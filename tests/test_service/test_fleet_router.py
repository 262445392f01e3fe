"""The sharded fleet end to end: placement, coalescing, failover, drain.

These tests run the real router over in-process thread workers
(``start_fleet(threaded=True)``) — the same HTTP surface as the
subprocess fleet without fork cost, so they stay in tier 1.  One test
runs the subprocess pool's restart path; ``benchmarks/fleet_smoke.py``
covers the rest of ``repro fleet``.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.api import SolveRequest, solve
from repro.core import weighted_greedy_maxis
from repro.graphs import gnp, uniform_weights
from repro.service import (
    ServedReport,
    ServiceStats,
    SolverEngine,
    SolverServer,
)
from repro.service.fleet import shard_for_request, start_fleet
from repro.service.fleet.aggregate import (
    aggregate_snapshots,
    render_fleet_prometheus,
)
from repro.service.http import HttpClient


# Fleet keys that are the sum of the same key over the workers.
SUMMED_KEYS = ("requests", "completed", "failed", "rejected", "coalesced",
               "cache_hits", "memory_cache_hits", "executed", "timeouts",
               "batches", "incremental_served", "incremental_fallback",
               "in_flight", "queue_depth")


@pytest.fixture
def instance():
    return uniform_weights(gnp(24, 0.15, seed=1), 1, 10, seed=2)


def http(port, method, path, body=b""):
    async def go():
        client = HttpClient("127.0.0.1", port)
        try:
            status, payload = await client.request(method, path, body)
        finally:
            await client.close()
        return status, json.loads(payload) if payload else None

    return asyncio.run(go())


def http_burst(port, bodies):
    """Fire all bodies concurrently over independent connections."""

    async def one(body):
        client = HttpClient("127.0.0.1", port)
        try:
            status, payload = await client.request("POST", "/v1/solve", body)
        finally:
            await client.close()
        return status, json.loads(payload) if payload else None

    async def go():
        return await asyncio.gather(*(one(b) for b in bodies))

    return asyncio.run(go())


def counting_registry(calls, *, delay=0.0):
    def wrapper(graph, seed=None, **params):
        calls.append(seed)
        if delay:
            time.sleep(delay)
        return weighted_greedy_maxis(graph, seed=seed)

    return {"counted": wrapper}


def request_body(instance, *, algorithm="thm2", seed=7, params=None):
    request = SolveRequest(graph=instance, algorithm=algorithm, seed=seed,
                           params={"eps": 0.5} if params is None else params)
    return request, request.to_json().encode()


class TestPlacement:
    def test_same_body_lands_on_same_worker(self, instance, tmp_path):
        fleet = start_fleet(workers=2, threaded=True,
                            cache_dir=str(tmp_path / "disk"))
        try:
            _, body = request_body(instance)
            workers = set()
            for _ in range(4):
                status, doc = http(fleet.port, "POST", "/v1/solve", body)
                assert status == 200
                workers.add(doc["served"]["worker_id"])
            assert len(workers) == 1, "placement must be sticky"
        finally:
            fleet.close()

    def test_placement_matches_shard_function(self, instance, tmp_path):
        fleet = start_fleet(workers=2, threaded=True,
                            cache_dir=str(tmp_path / "disk"))
        try:
            for seed in range(4):
                request, body = request_body(instance, seed=seed)
                expected = shard_for_request(request, 2)
                status, doc = http(fleet.port, "POST", "/v1/solve", body)
                assert status == 200
                assert doc["served"]["worker_id"] == str(expected), seed
        finally:
            fleet.close()

    def test_distinct_keys_spread_across_workers(self, instance, tmp_path):
        fleet = start_fleet(workers=2, threaded=True,
                            cache_dir=str(tmp_path / "disk"))
        try:
            workers = set()
            for seed in range(8):
                _, body = request_body(instance, seed=seed)
                status, doc = http(fleet.port, "POST", "/v1/solve", body)
                assert status == 200
                workers.add(doc["served"]["worker_id"])
            assert workers == {"0", "1"}
        finally:
            fleet.close()


class TestCoalescingSurvivesSharding:
    def test_each_unique_fingerprint_executes_exactly_once(self, instance):
        """The acceptance pin: N concurrent duplicates of K unique
        requests through the sharded router execute the solver exactly
        K times fleet-wide — coalescing (and the memory tier) survive
        sharding because duplicates always land on the same worker."""
        calls = []
        fleet = start_fleet(workers=4, threaded=True, memory_cache=32,
                            registry=counting_registry(calls, delay=0.05))
        try:
            unique = 3
            dup = 6
            bodies = []
            for seed in range(unique):
                _, body = request_body(instance, algorithm="counted",
                                       seed=seed, params={})
                bodies.extend([body] * dup)
            results = http_burst(fleet.port, bodies)
            assert all(status == 200 for status, _ in results)
            status, metrics = http(fleet.port, "GET", "/v1/metrics")
            assert status == 200
        finally:
            fleet.close()
        assert len(calls) == unique, (
            f"expected exactly {unique} solver executions fleet-wide, "
            f"saw {len(calls)}")
        assert metrics["executed"] == unique
        per_worker_executed = sum(
            w["executed"] for w in metrics["workers"].values())
        assert per_worker_executed == unique
        served = metrics["coalesced"] + metrics["memory_cache_hits"]
        assert served == unique * (dup - 1)

    def test_sequential_repeats_served_from_memory_tier(self, instance):
        calls = []
        fleet = start_fleet(workers=2, threaded=True, memory_cache=32,
                            registry=counting_registry(calls))
        try:
            _, body = request_body(instance, algorithm="counted", seed=5,
                                   params={})
            docs = [http(fleet.port, "POST", "/v1/solve", body)[1]
                    for _ in range(3)]
        finally:
            fleet.close()
        assert len(calls) == 1
        assert "cache_tier" not in docs[0]["served"]
        assert [d["served"].get("cache_tier") for d in docs[1:]] == [
            "memory", "memory"]


class TestByteIdentity:
    def test_fleet_response_is_byte_identical_to_api_solve(self, instance,
                                                           tmp_path):
        request, body = request_body(instance)
        reference = solve(instance, "thm2", seed=7, eps=0.5).to_json()
        fleet = start_fleet(workers=2, threaded=True, memory_cache=8,
                            cache_dir=str(tmp_path / "disk"))
        try:
            blobs = set()
            for _ in range(3):  # computed, then memory-tier repeats
                status, doc = http(fleet.port, "POST", "/v1/solve", body)
                assert status == 200
                blobs.add(json.dumps(doc["report"], sort_keys=True,
                                     separators=(",", ":")))
        finally:
            fleet.close()
        assert blobs == {reference}

    def test_fleet_matches_single_process_serve(self, instance, tmp_path):
        """Same fixed-seed request through `repro serve` (single
        process) and through the 2-worker fleet: identical canonical
        report bytes, tier by tier."""
        request, body = request_body(instance, seed=13)

        single = {}

        async def run_single():
            engine = SolverEngine(cache_dir=str(tmp_path / "single"))
            server = SolverServer(engine, host="127.0.0.1", port=0)
            port = await server.start()
            client = HttpClient("127.0.0.1", port)
            try:
                _, payload = await client.request("POST", "/v1/solve", body)
                single["report"] = json.loads(payload)["report"]
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(run_single())

        fleet = start_fleet(workers=2, threaded=True, memory_cache=8,
                            cache_dir=str(tmp_path / "fleet"))
        try:
            status, doc = http(fleet.port, "POST", "/v1/solve", body)
            assert status == 200
        finally:
            fleet.close()
        canon = lambda d: json.dumps(d, sort_keys=True, separators=(",", ":"))  # noqa: E731
        assert canon(doc["report"]) == canon(single["report"])


class TestHealthAndReadiness:
    def test_fleet_health_aggregates_workers(self, instance):
        fleet = start_fleet(workers=2, threaded=True)
        try:
            status, doc = http(fleet.port, "GET", "/v1/health")
            assert status == 200
            assert doc["status"] == "ok"
            assert doc["role"] == "fleet-router"
            assert doc["shards"] == 2
            assert doc["workers_alive"] == 2
            assert set(doc["workers"]) == {"0", "1"}
            for worker_id, entry in doc["workers"].items():
                assert entry["alive"]
                assert entry["worker_id"] == worker_id
                assert "backend" not in entry
        finally:
            fleet.close()

    def test_fleet_ready_all_workers(self, instance):
        fleet = start_fleet(workers=2, threaded=True)
        try:
            status, doc = http(fleet.port, "GET", "/v1/ready")
            assert status == 200
            assert doc["status"] == "ready"
            assert doc["workers_ready"] == 2
        finally:
            fleet.close()

    def test_worker_readiness_splits_from_liveness_on_drain(self):
        """Satellite pin: /v1/health stays 200 while draining (alive),
        /v1/ready flips to 503 (not serviceable)."""

        async def scenario():
            engine = SolverEngine(worker_id="w9")
            server = SolverServer(engine, host="127.0.0.1", port=0)
            port = await server.start()
            client = HttpClient("127.0.0.1", port)
            try:
                h_before = await client.request("GET", "/v1/health")
                r_before = await client.request("GET", "/v1/ready")
                engine.begin_drain()
                h_after = await client.request("GET", "/v1/health")
                r_after = await client.request("GET", "/v1/ready")
            finally:
                await client.close()
                await server.shutdown()
            return h_before, r_before, h_after, r_after

        h_before, r_before, h_after, r_after = asyncio.run(scenario())
        assert h_before[0] == 200
        assert json.loads(h_before[1])["worker_id"] == "w9"
        assert "backend" not in json.loads(h_before[1])
        assert r_before[0] == 200
        assert json.loads(r_before[1])["status"] == "ready"
        assert json.loads(r_before[1])["worker_id"] == "w9"
        assert h_after[0] == 200, "liveness survives draining"
        assert json.loads(h_after[1])["status"] == "draining"
        assert r_after[0] == 503, "readiness does not"
        assert json.loads(r_after[1])["status"] == "draining"


class TestFailover:
    def test_request_fails_over_when_owner_dies(self, instance, tmp_path):
        fleet = start_fleet(workers=2, threaded=True,
                            cache_dir=str(tmp_path / "disk"))
        fleet.server.supervisor.restart_on_crash = False
        try:
            request, body = request_body(instance, seed=3)
            owner = shard_for_request(request, 2)
            status, doc = http(fleet.port, "POST", "/v1/solve", body)
            assert status == 200
            assert doc["served"]["worker_id"] == str(owner)
            fleet.server.supervisor.crash(str(owner))
            status, doc = http(fleet.port, "POST", "/v1/solve", body)
            assert status == 200, "failover must keep the key available"
            assert doc["served"]["worker_id"] == str(1 - owner)
            assert fleet.server.stats["failovers"] >= 1
        finally:
            fleet.close()

    def test_supervisor_restarts_crashed_worker(self, instance, tmp_path):
        fleet = start_fleet(workers=2, threaded=True,
                            cache_dir=str(tmp_path / "disk"))
        try:
            supervisor = fleet.server.supervisor
            supervisor.crash("1")
            # The reaper may restart the worker first.  Whichever
            # check() did the restart returned its id: this one, or the
            # reaper's, which the router adds to stats["restarts"].
            returned = supervisor.check()
            wait_for(lambda: len(returned)
                     + fleet.server.stats["restarts"] == 1,
                     5.0, "the restart to be reported once")
            assert returned in ([], ["1"])
            endpoint = supervisor.endpoints()[1]
            assert endpoint.alive
            assert endpoint.restarts == 1
            assert_shard_one_served_by_worker_one(fleet.port, instance)
        finally:
            fleet.close()

    def test_marked_dead_worker_is_replaced(self, instance, tmp_path):
        """A worker the router marked dead is replaced by the reaper
        even though its thread still runs."""
        fleet = start_fleet(workers=2, threaded=True,
                            cache_dir=str(tmp_path / "disk"))
        try:
            endpoint = fleet.server.supervisor.endpoints()[1]
            endpoint.alive = False  # what FleetRouter._request does
            wait_for(lambda: endpoint.alive and endpoint.restarts == 1,
                     10.0, "the marked worker to be replaced")
            wait_for(lambda: fleet.server.stats["restarts"] == 1,
                     5.0, "the router to count the restart")
            assert_shard_one_served_by_worker_one(fleet.port, instance)
        finally:
            fleet.close()

    def test_subprocess_worker_respawns(self, instance, tmp_path):
        """The production restart path: a SIGKILLed ``repro serve``
        worker comes back on a new port, and the router follows it."""
        scratch = tmp_path / "fleet"
        fleet = start_fleet(workers=2, scratch_dir=str(scratch),
                            cache_dir=str(tmp_path / "disk"))
        supervisor = fleet.server.supervisor
        try:
            supervisor.crash("1")

            def back():
                status, doc = http(fleet.port, "GET", "/v1/health")
                entry = doc["workers"]["1"]
                return entry["alive"] and entry["restarts"] == 1

            wait_for(back, 60.0, "the reaper to respawn worker 1")
            wait_for(lambda: fleet.server.stats["restarts"] == 1,
                     5.0, "the router to count the restart")
            assert_shard_one_served_by_worker_one(fleet.port, instance)
        finally:
            fleet.close()
        assert not any(w.running() for w in supervisor._workers)
        for index in (0, 1):
            log = (scratch / f"worker-{index}.log").read_text()
            assert log.count("repro-serve drained") == 1, log

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_close_stops_workers_when_drain_fails(self, tmp_path):
        """The router's shutdown hard-stops the pool even when the
        graceful drain raises; the error ends the router's thread."""
        fleet = start_fleet(workers=2, threaded=True,
                            cache_dir=str(tmp_path / "disk"))
        supervisor = fleet.server.supervisor

        def failing_drain():
            raise RuntimeError("drain failed")

        supervisor.drain = failing_drain
        fleet.close()
        assert not any(w.running() for w in supervisor._workers)


def wait_for(predicate, timeout_s, what):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out after {timeout_s}s waiting for {what}")
        time.sleep(0.05)


def assert_shard_one_served_by_worker_one(port, instance):
    for seed in range(6):
        request, body = request_body(instance, seed=seed)
        if shard_for_request(request, 2) == 1:
            status, doc = http(port, "POST", "/v1/solve", body)
            assert status == 200
            assert doc["served"]["worker_id"] == "1"
            return
    pytest.fail("no probe key landed on shard 1")  # pragma: no cover


class TestRouterEdges:
    def test_malformed_body_gets_canonical_worker_400(self):
        fleet = start_fleet(workers=2, threaded=True)
        try:
            status, doc = http(fleet.port, "POST", "/v1/solve", b"{nope")
            assert status == 400
            assert doc["error"]["code"] == "bad_request"
            assert fleet.server.stats["body_routed"] >= 1
        finally:
            fleet.close()

    def test_oversized_graph_is_413_at_router(self):
        fleet = start_fleet(workers=1, threaded=True)
        try:
            body = json.dumps({
                "schema": "v2",
                "graph": {"inline": {"spec": "gnp:2000000,0.001"}},
                "algorithm": "thm2",
            }).encode()
            status, doc = http(fleet.port, "POST", "/v1/solve", body)
            assert status == 413
        finally:
            fleet.close()

    def test_routing_cache_skips_reparse(self, instance):
        fleet = start_fleet(workers=2, threaded=True)
        try:
            _, body = request_body(instance)
            for _ in range(3):
                http(fleet.port, "POST", "/v1/solve", body)
            stats = dict(fleet.server.stats)
        finally:
            fleet.close()
        assert stats["parse_routed"] == 1
        assert stats["routing_cache_hits"] == 2

    def test_algorithms_proxied(self):
        fleet = start_fleet(workers=2, threaded=True)
        try:
            status, doc = http(fleet.port, "GET", "/v1/algorithms")
            assert status == 200
            names = {entry["name"] for entry in doc["algorithms"]}
            assert "thm2" in names
        finally:
            fleet.close()


class TestFleetMetrics:
    def test_json_aggregation_sums_workers(self, instance, tmp_path):
        fleet = start_fleet(workers=2, threaded=True, memory_cache=8,
                            cache_dir=str(tmp_path / "disk"))
        try:
            for seed in range(4):
                _, body = request_body(instance, seed=seed)
                http(fleet.port, "POST", "/v1/solve", body)
                http(fleet.port, "POST", "/v1/solve", body)  # memory hit
            status, doc = http(fleet.port, "GET", "/v1/metrics")
        finally:
            fleet.close()
        assert status == 200
        assert doc["scope"] == "fleet"
        assert doc["workers_reporting"] == 2
        assert doc["requests"] == 8
        assert doc["executed"] == 4
        assert doc["memory_cache_hits"] == 4
        for key in SUMMED_KEYS:
            assert doc[key] == sum(
                w[key] for w in doc["workers"].values()), key
        assert doc["router"]["routed"] == 8
        assert doc["latency_approx"]["count"] == 8
        assert doc["latency_approx"]["p99_s"] >= doc["latency_approx"]["p50_s"]

    def test_prometheus_exposition(self, instance):
        fleet = start_fleet(workers=2, threaded=True)
        try:
            _, body = request_body(instance)
            http(fleet.port, "POST", "/v1/solve", body)

            async def fetch():
                client = HttpClient("127.0.0.1", fleet.port)
                try:
                    return await client.request(
                        "GET", "/v1/metrics?format=prometheus")
                finally:
                    await client.close()

            status, payload = asyncio.run(fetch())
        finally:
            fleet.close()
        assert status == 200
        text = payload.decode()
        assert "# TYPE repro_fleet_requests_total counter" in text
        assert "repro_fleet_requests_total 1" in text
        assert 'repro_fleet_requests_total{worker="0"}' in text
        assert 'repro_fleet_requests_total{worker="1"}' in text
        assert "repro_fleet_request_latency_seconds_bucket" in text
        assert "repro_fleet_router_routed 1" in text


class TestAggregateUnit:
    """aggregate_snapshots on snapshots of real ServiceStats objects."""

    @staticmethod
    def _snap(worker_id, latencies, report):
        """One worker's ``/v1/metrics`` document after one computed
        request per latency, as it arrives over the wire."""
        stats = ServiceStats()
        for seconds in latencies:
            stats.inc("requests")
            stats.finish(ServedReport(report=report, seconds=seconds),
                         executed=True)
        snap = stats.snapshot(in_flight=0, queue_depth=0, draining=False,
                              worker_id=worker_id)
        return json.loads(json.dumps(snap))

    def test_counter_sum_and_histogram_merge(self, instance):
        report = solve(instance, "thm2", seed=7, eps=0.5)
        a = self._snap("0", [0.05] * 4 + [0.5] * 2, report)
        b = self._snap("1", [0.05, 0.5], report)
        doc = aggregate_snapshots([a, b])
        assert doc["requests"] == 8
        assert doc["executed"] == 8
        merged = doc["histograms"][
            "repro_service_request_latency_seconds"]["series"][0]
        buckets = dict(merged["buckets"])
        assert (buckets["0.1"], buckets["1"], buckets["+Inf"]) == (5, 8, 8)
        assert merged["count"] == 8
        # p50 falls in the first bucket (5 of 8 <= 0.1s).
        assert 0.0 < doc["latency_approx"]["p50_s"] <= 0.1
        assert 0.1 < doc["latency_approx"]["p99_s"] <= 1.0

    def test_render_prometheus_from_synthetic(self, instance):
        report = solve(instance, "thm2", seed=7, eps=0.5)
        a = self._snap("0", [0.05] * 3, report)
        text = render_fleet_prometheus([a], router={"routed": 3})
        assert "repro_fleet_requests_total 3" in text
        assert 'repro_fleet_request_latency_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_fleet_router_routed 3" in text


class TestGraphPlane:
    """The graph registry through the router: shared store, ref routing,
    eviction broadcast."""

    def _register(self, fleet, instance):
        from repro.graphs import io as graph_io

        status, doc = http(fleet.port, "POST", "/v1/graphs",
                           graph_io.to_bytes(instance))
        assert status == 200
        return doc["graph_ref"]

    def test_register_then_solve_by_ref_on_any_worker(self, instance,
                                                      tmp_path):
        fleet = start_fleet(workers=3, threaded=True,
                            graph_store=str(tmp_path / "graphs"))
        try:
            ref = self._register(fleet, instance)
            assert ref == instance.fingerprint()
            request, body = request_body(instance)
            doc = json.loads(body)
            doc["graph"] = {"ref": ref}
            ref_body = json.dumps(doc).encode()
            s1, env1 = http(fleet.port, "POST", "/v1/solve", body)
            s2, env2 = http(fleet.port, "POST", "/v1/solve", ref_body)
            assert s1 == s2 == 200
            assert env1["report"] == env2["report"]
            # Ref and body forms of the same request share the shard.
            assert (env1["served"]["worker_id"]
                    == env2["served"]["worker_id"])
            assert fleet.server.stats["ref_routed"] >= 1
        finally:
            fleet.close()

    def test_describe_proxied(self, instance, tmp_path):
        fleet = start_fleet(workers=2, threaded=True,
                            graph_store=str(tmp_path / "graphs"))
        try:
            ref = self._register(fleet, instance)
            status, info = http(fleet.port, "GET", f"/v1/graphs/{ref}")
            assert status == 200
            assert info["n"] == instance.n and info["m"] == instance.m
            status, _ = http(fleet.port, "GET", "/v1/graphs/" + "0" * 64)
            assert status == 404
        finally:
            fleet.close()

    def test_evict_broadcasts_to_all_workers(self, instance, tmp_path):
        fleet = start_fleet(workers=3, threaded=True,
                            graph_store=str(tmp_path / "graphs"))
        try:
            ref = self._register(fleet, instance)
            status, doc = http(fleet.port, "DELETE", f"/v1/graphs/{ref}")
            assert status == 200
            assert doc["evicted"] is True
            assert doc["workers_polled"] == 3
            # Every worker's store dropped it: a ref solve now 404s
            # regardless of which shard owns the key.
            request, body = request_body(instance)
            rdoc = json.loads(body)
            rdoc["graph"] = {"ref": ref}
            status, _ = http(fleet.port, "POST", "/v1/solve",
                             json.dumps(rdoc).encode())
            assert status == 404
        finally:
            fleet.close()

    def test_unknown_ref_solve_404_through_router(self, instance, tmp_path):
        fleet = start_fleet(workers=2, threaded=True,
                            graph_store=str(tmp_path / "graphs"))
        try:
            request, body = request_body(instance)
            doc = json.loads(body)
            doc["graph"] = {"ref": "0" * 64}
            status, _ = http(fleet.port, "POST", "/v1/solve",
                             json.dumps(doc).encode())
            assert status == 404
            # The bad ref still routed by its ref (no body-hash fallback).
            assert fleet.server.stats["ref_routed"] >= 1
            assert fleet.server.stats["body_routed"] == 0
        finally:
            fleet.close()
