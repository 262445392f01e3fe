"""Self-tests of the benchmark's own generators and arithmetic.

Run from the root of the repository::

    python3 -m pytest servebench -q

No server is started: operations run against a recording stand-in for
the connection, so these tests check exactly the bytes a run would send,
and the closed loop's failure path runs against a bare socket that drops
the connection.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from client import Outcome, Record, closed_loop  # noqa: E402
from run import (PER_LAYER_UNITS, ROUNDS, WINDOWS, beyond,  # noqa: E402
                 percentile, window_rates)
from spans import fold  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OPS = 12


class RecordingConnection:
    """Answers every request with a canned 200 and keeps what was sent."""

    def __init__(self) -> None:
        self.sent = []
        self.children = 0

    def request(self, method, path, body=b""):
        self.sent.append((method, path, body))
        if path.endswith("/deltas"):
            self.children += 1
            return 200, json.dumps({"graph_ref": f"{self.children:064x}"}).encode()
        return 200, b'{"report":{},"schema":"v2","served":{}}'


@pytest.fixture(scope="module")
def built():
    """Two instances per workload for seed 1 and one for seed 2."""
    out = {}
    for name, cls in WORKLOADS.items():
        out[name] = [cls(1), cls(1), cls(2)]
        for w in out[name]:
            w.ref = "a" * 64  # set by prepare() against a live server
    return out


def sent_bytes(workload, ops=OPS):
    conn = RecordingConnection()
    for op in workload.stream(ops):
        assert isinstance(op(conn), Outcome)
    return conn.sent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(built, name):
    first, again, _other = built[name]
    assert sent_bytes(first) == sent_bytes(again)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_requests(built, name):
    first, _again, other = built[name]
    assert sent_bytes(first) != sent_bytes(other)


def test_paper_fresh_operation_is_one_pass_with_fresh_seeds(built):
    workload = built["paper-fresh"][0]
    sent = sent_bytes(workload, ops=2)
    assert len(sent) == 2 * len(workload.KINDS)
    docs = [json.loads(body) for _m, _path, body in sent]
    assert [d["algorithm"] for d in docs[:len(workload.KINDS)]] == [
        algorithm for algorithm, _graph in workload.KINDS]
    assert len({d["seed"] for d in docs}) == len(docs)


def test_hot_skew_zipf_sequence_is_seeded(built):
    first, again, other = built["hot-skew"]
    seq = first.key_sequence(5000)
    assert (seq == again.key_sequence(5000)).all()
    assert not (seq == other.key_sequence(5000)).all()
    # Zipf(1.0): the most popular key is drawn about 1/H(n) of the time.
    counts = sorted((seq == k).sum() for k in range(len(first.keys)))
    assert counts[-1] > 5 * counts[len(counts) // 2]
    assert len(first.keys) == len(set(first.bodies)) >= 500


def test_delta_chain_ops_are_seeded_and_weight_only(built):
    first, again, other = built["delta-chain"]
    ops = list(first.delta_ops(3))
    assert ops == list(again.delta_ops(3))
    assert ops != list(other.delta_ops(3))
    assert all(op[0] == "set_weight" for epoch in ops for op in epoch)
    assert all(len({op[1] for op in epoch}) == first.EDITS for epoch in ops)


def test_delta_chain_advances_its_parent(built):
    conn = RecordingConnection()
    for op in built["delta-chain"][0].stream(2):
        op(conn)
    parents = [json.loads(body)["graph"]["delta"]["parent"]
               for _m, path, body in conn.sent if path == "/v1/solve"]
    assert parents == ["a" * 64, f"{1:064x}"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_percentile_leaves_ten_samples(name):
    workload = WORKLOADS[name]
    count = workload(1).op_count(BENCHMARK["run_seconds"]) // ROUNDS * ROUNDS
    assert beyond(count, workload.tail_pct) >= 10


def test_benchmark_lists_every_workload_with_its_reason():
    assert ({w["name"]: w["why"] for w in BENCHMARK["workloads"]}
            == {name: cls.why for name, cls in WORKLOADS.items()})


def test_benchmark_lists_every_per_layer_metric_with_its_unit():
    folded = fold({"spans": [], "events": []}, 0.0, 1.0, ops=1)
    measured_by_client = {"server.response_kb", "core.rounds",
                          "core.messages", "trace.overhead"}
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(listed) == set(folded) | measured_by_client
    assert all(unit == PER_LAYER_UNITS.get(name, "ms")
               for name, unit in listed.items())


def test_percentile_is_nearest_rank_and_failures_miss():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert beyond(100, 90) == 10
    assert percentile(values[:99] + [float("inf")], 100) == float("inf")


def test_window_rates_count_completed_operations_per_window():
    # Two operations per window, each 0.5 s long, back to back.
    records = [Record(i, 0.5 * i, 0.5 * (i + 1), Outcome((200,), 0))
               for i in range(2 * WINDOWS)]
    assert window_rates(records, len(records), lambda pos: True) == (
        [2.0] * WINDOWS)
    # A failed check halves its window; a window the run never reached
    # (it stopped early) reads 0.
    rates = window_rates(records[:-1], len(records), lambda pos: pos != 0)
    assert rates[0] == 1.0 and rates[1:-1] == [2.0] * (WINDOWS - 2)
    assert rates[-1] == 0.0


def test_closed_loop_records_a_dropped_connection_and_stops():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def accept_and_drop():
        conn, _ = listener.accept()
        conn.recv(65536)
        conn.close()

    server = threading.Thread(target=accept_and_drop, daemon=True)
    server.start()

    def op(conn):
        status, payload = conn.request("POST", "/v1/solve", b"{}")
        return Outcome((status,), len(payload))

    try:
        records, start, end = closed_loop("127.0.0.1", port, [op, op],
                                          time.perf_counter() + 30)
    finally:
        server.join(timeout=10)
        listener.close()
    assert not server.is_alive()
    assert len(records) == 1 and not records[0].ok
    assert "ConnectionError" in records[0].error
    assert start <= records[0].start <= records[0].end <= end


def test_fold_subtracts_children_and_counts_per_operation():
    spans = [
        # sid, parent, name, t0, t1, agg
        [1, 0, "op", 1.0, 2.0, 0.0],
        [2, 1, "server.read", 1.0, 1.1, 0.0],
        [3, 1, "server.route", 1.1, 1.9, 0.0],
        [4, 3, "engine.submit", 1.2, 1.8, 0.0],
        [5, 4, "api.key", 1.2, 1.3, 0.0],
        [6, 0, "columnar.execute", 1.3, 1.7, 0.1],
        [7, 6, "runner.execute", 1.4, 1.5, 0.0],
        [8, 0, "api.key", 5.0, 6.0, 0.0],      # outside the window
    ]
    events = [["server.solve", 1.1, 1.0], ["engine.submit", 1.2, 1.0],
              ["engine.memory_hit", 1.2, 1.0], ["engine.queue_wait", 1.3, 0.1]]
    out = fold({"spans": spans, "events": events}, 0.5, 2.5, ops=2)
    assert out["server.self_ms"] == pytest.approx(1000 * (0.1 + 0.2) / 2)
    assert out["server.unattributed_ms"] == pytest.approx(1000 * 0.1 / 2)
    assert out["engine.submit_ms"] == pytest.approx(1000 * 0.5 / 2)
    assert out["api.key_ms"] == pytest.approx(1000 * 0.1 / 2)
    assert out["columnar.execute_ms"] == pytest.approx(1000 * 0.2 / 2)
    assert out["columnar.rng_ms"] == pytest.approx(1000 * 0.1 / 2)
    assert out["columnar.fallback_ratio"] == 1.0
    assert out["runner.calls"] == 0.5
    assert out["engine.memory_hit_ratio"] == 1.0
    assert out["engine.queue_wait_ms"] == pytest.approx(1000 * 0.1 / 2)
    assert out["server.parse_hit_ratio"] == 1.0
