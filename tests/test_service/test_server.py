"""The HTTP layer: routes, status mapping, and cross-path byte identity."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import SCHEMA_VERSION, SolveRequest, solve
from repro.graphs import gnp, uniform_weights
from repro.bench.loadgen import build_request_pool, run_open_loop
from repro.service import SolverEngine, SolverServer
from repro.service.http import BackgroundServer, HttpClient


@pytest.fixture
def instance():
    return uniform_weights(gnp(26, 0.14, seed=11), 1, 15, seed=12)


class ServerThread:
    """A live ``repro serve`` stack on an ephemeral port, off-thread,
    so tests (and the load client, which owns its own event loop) can talk
    to it over real sockets."""

    def __init__(self, **engine_kwargs):
        self.engine_kwargs = engine_kwargs

    def __enter__(self):
        self._runner = BackgroundServer(SolverServer(
            SolverEngine(**self.engine_kwargs), host="127.0.0.1", port=0))
        self.port = self._runner.port
        self.engine = self._runner.server.engine
        return self

    def __exit__(self, *exc_info):
        self._runner.close()


def http(port, method, path, body=b""):
    """One request against the live server; returns (status, doc)."""

    async def go():
        client = HttpClient("127.0.0.1", port)
        try:
            status, payload = await client.request(method, path, body)
        finally:
            await client.close()
        return status, json.loads(payload) if payload else None

    return asyncio.run(go())


class TestRoutes:
    def test_health(self):
        with ServerThread() as server:
            status, doc = http(server.port, "GET", "/v1/health")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["schema"] == SCHEMA_VERSION

    def test_algorithms(self):
        with ServerThread() as server:
            status, doc = http(server.port, "GET", "/v1/algorithms")
        assert status == 200
        names = {entry["name"] for entry in doc["algorithms"]}
        assert {"thm1", "thm2", "thm3"} <= names

    def test_metrics_counts_requests(self, instance):
        request = SolveRequest(graph=instance, algorithm="thm2", seed=3,
                               params={"eps": 0.5})
        with ServerThread() as server:
            http(server.port, "POST", "/v1/solve",
                 request.to_json().encode())
            status, doc = http(server.port, "GET", "/v1/metrics")
        assert status == 200
        assert doc["requests"] == 1
        assert doc["completed"] == 1
        assert doc["batches"] >= 1

    def test_unknown_route_404(self):
        with ServerThread() as server:
            status, doc = http(server.port, "GET", "/v2/anything")
        assert status == 404
        assert doc["error"]["code"] == "not_found"

    def test_solve_requires_post(self):
        with ServerThread() as server:
            status, doc = http(server.port, "GET", "/v1/solve")
        assert status == 405


class TestSolveEndpoint:
    def test_fixed_seed_response_is_byte_identical_to_api_solve(
            self, instance):
        request = SolveRequest(graph=instance, algorithm="thm2", seed=7,
                               params={"eps": 0.5})
        with ServerThread() as server:
            status, envelope = http(server.port, "POST", "/v1/solve",
                                    request.to_json().encode())
        assert status == 200
        wire = json.dumps(envelope["report"], sort_keys=True,
                          separators=(",", ":"))
        direct = solve(instance, "thm2", seed=7, eps=0.5)
        assert wire == direct.to_json()
        served = envelope["served"]
        assert set(served) == {"cached", "coalesced", "seconds",
                               "trace_id", "stages"}
        assert served["cached"] is False
        assert served["coalesced"] is False
        # Every response carries a 32-hex trace id and a per-stage
        # latency breakdown covering at least queue/solve/serialize.
        assert len(served["trace_id"]) == 32
        int(served["trace_id"], 16)
        assert {"queue_wait", "solve", "serialize"} <= set(served["stages"])
        assert all(s >= 0.0 for s in served["stages"].values())

    def test_spec_graph_request_solves(self):
        body = json.dumps({
            "schema": SCHEMA_VERSION,
            "graph": {"inline": {"spec": "gnp:20,0.2",
                                 "weights": "uniform:1,9", "seed": 5}},
            "algorithm": "thm1",
            "seed": 2,
            "params": {"eps": 0.5},
        }).encode()
        with ServerThread() as server:
            status, envelope = http(server.port, "POST", "/v1/solve", body)
        assert status == 200
        assert envelope["report"]["ok"] is True

    def test_repeat_request_served_from_cache(self, instance, tmp_path):
        request = SolveRequest(graph=instance, algorithm="thm2", seed=7,
                               params={"eps": 0.5})
        body = request.to_json().encode()
        with ServerThread(cache_dir=str(tmp_path)) as server:
            _, cold = http(server.port, "POST", "/v1/solve", body)
            _, warm = http(server.port, "POST", "/v1/solve", body)
        assert cold["served"]["cached"] is False
        assert warm["served"]["cached"] is True
        assert warm["report"] == cold["report"]

    @pytest.mark.parametrize("body, match", [
        (b"{nope", "not valid JSON"),
        (b'{"schema": "v9", "graph": {}, "algorithm": "thm2"}',
         "unsupported schema"),
        (b'{"schema": "v1", "graph": {"spec": "nosuch:1"}, '
         b'"algorithm": "thm2"}', "Migrating from v1"),
        (b'{"schema": "v2", "graph": {"spec": "gnp:8,0.2"}, '
         b'"algorithm": "thm2"}', "exactly one of inline/ref/delta"),
    ])
    def test_bad_request_400(self, body, match):
        with ServerThread() as server:
            status, doc = http(server.port, "POST", "/v1/solve", body)
        assert status == 400
        assert match in doc["error"]["message"]

    def test_unknown_algorithm_400(self, instance):
        request = SolveRequest(graph=instance, algorithm="thm2")
        doc = request.to_doc()
        doc["algorithm"] = "nosuch"
        with ServerThread() as server:
            status, doc = http(server.port, "POST", "/v1/solve",
                               json.dumps(doc).encode())
        assert status == 400
        assert "nosuch" in doc["error"]["message"]

    def test_oversized_spec_graph_413_without_materializing(self):
        # Valid JSON, valid schema — but the spec declares more nodes
        # than the server admits.  This must be a clean 413 *before* the
        # generator runs (a 10^8-node gnp would otherwise stall or OOM
        # the engine and surface as a 500-class failure).
        body = json.dumps({
            "schema": SCHEMA_VERSION,
            "graph": {"inline": {"spec": "gnp:100000000,0.5", "seed": 1}},
            "algorithm": "thm2",
        }).encode()
        with ServerThread() as server:
            status, doc = http(server.port, "POST", "/v1/solve", body)
        assert status == 413
        assert "100000000 nodes" in doc["error"]["message"]

    def test_oversized_inline_graph_413(self):
        from repro.service.server import MAX_GRAPH_NODES

        body = json.dumps({
            "schema": SCHEMA_VERSION,
            "graph": {"inline": {
                "nodes": [[i, 1] for i in range(MAX_GRAPH_NODES + 1)],
                "edges": []}},
            "algorithm": "thm2",
        }).encode()
        with ServerThread() as server:
            status, doc = http(server.port, "POST", "/v1/solve", body)
        assert status == 413
        assert str(MAX_GRAPH_NODES) in doc["error"]["message"]

    def test_oversized_grid_and_caterpillar_specs_413(self):
        # Size declared multiplicatively must be caught too.
        for spec in ("grid:20000,20000", "caterpillar:1000000,200"):
            body = json.dumps({
                "schema": SCHEMA_VERSION,
                "graph": {"inline": {"spec": spec}},
                "algorithm": "mis-det",
            }).encode()
            with ServerThread() as server:
                status, doc = http(server.port, "POST", "/v1/solve", body)
            assert status == 413, spec

    def test_unknown_backend_400(self, instance):
        request = SolveRequest(graph=instance, algorithm="thm2",
                               params={"eps": 0.5})
        doc = request.to_doc()
        doc["backend"] = "gpu"
        with ServerThread() as server:
            status, doc = http(server.port, "POST", "/v1/solve",
                               json.dumps(doc).encode())
        assert status == 400
        assert "unknown backend" in doc["error"]["message"]

    def test_columnar_backend_response_byte_identical(self, instance):
        request = SolveRequest(graph=instance, algorithm="thm8", seed=5)
        columnar = SolveRequest(graph=instance, algorithm="thm8", seed=5,
                                backend="columnar")
        with ServerThread() as server:
            s1, d1 = http(server.port, "POST", "/v1/solve",
                          request.to_json().encode())
            s2, d2 = http(server.port, "POST", "/v1/solve",
                          columnar.to_json().encode())
        assert s1 == s2 == 200
        assert d2["report"] == d1["report"]

    def test_malformed_request_line_400(self):
        async def go(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return int(line.split()[1])

        with ServerThread() as server:
            assert asyncio.run(go(server.port)) == 400

    def test_keep_alive_serves_multiple_requests(self, instance):
        request = SolveRequest(graph=instance, algorithm="thm2", seed=1,
                               params={"eps": 0.5})
        body = request.to_json().encode()

        async def go(port):
            client = HttpClient("127.0.0.1", port)
            try:
                statuses = []
                for _ in range(3):
                    status, _payload = await client.request(
                        "POST", "/v1/solve", body
                    )
                    statuses.append(status)
                # all three went over one connection
                assert len(client._idle) == 1
                return statuses
            finally:
                await client.close()

        with ServerThread() as server:
            assert asyncio.run(go(server.port)) == [200, 200, 200]


class TestLoadgen:
    def test_loadgen_round_trip_verifies_all_reports(self, tmp_path):
        pool = build_request_pool(
            specs=(("gnp:18,0.2", "uniform:1,9"), ("cycle:16", "unit")),
            algorithms=("thm2",),
            seeds=(1, 2),
        )
        out = tmp_path / "run.json"
        with ServerThread(cache_dir=str(tmp_path / "cache")) as server:
            doc = run_open_loop(port=server.port, rate=40.0, duration_s=1.0,
                                arrival="uniform", out_path=str(out),
                                pool=pool)
        assert doc["completed"] > 0
        assert doc["status_counts"] == {"200": doc["sent"]}
        assert doc["served"]["cached"] > 0
        assert doc["served"]["with_trace_id"] == doc["completed"]
        assert doc["latency"]["p99_s"] >= doc["latency"]["p50_s"]
        assert {"queue_wait", "serialize"} <= set(doc["latency"]["stages"])
        assert doc["divergent_reports"] == 0
        assert doc["verification"]["failures"] == []
        assert doc["verification"]["verified"] == doc["unique_reports"] > 0
        written = json.loads(out.read_text())
        assert written["kind"] == "service_loadgen"
        assert written["achieved_rps"] > 0

    def test_pool_is_deterministic(self):
        a = build_request_pool(seeds=(1,))
        b = build_request_pool(seeds=(1,))
        assert [e.request.key() for e in a] == [e.request.key() for e in b]
        assert [e.body for e in a] == [e.body for e in b]
