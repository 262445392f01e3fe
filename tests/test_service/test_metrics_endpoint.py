"""``GET /v1/metrics``: JSON snapshot schema and Prometheus exposition."""

from __future__ import annotations

import asyncio
import json
import re
import threading

import pytest

from repro.api import SolveRequest, solve
from repro.core import weighted_greedy_maxis
from repro.graphs import gnp, uniform_weights
from repro.service import (
    DeadlineExceeded,
    RequestRejected,
    ServedReport,
    SolverEngine,
)
from repro.service.stats import STAGES, ServiceStats

from .test_server import ServerThread, http

# The flat JSON counters; each is one registry family.
FLAT_COUNTERS = ("requests", "completed", "failed", "rejected", "coalesced",
                 "cache_hits", "memory_cache_hits", "executed", "timeouts",
                 "batches", "incremental_served", "incremental_fallback")


@pytest.fixture
def instance():
    return uniform_weights(gnp(24, 0.15, seed=5), 1, 12, seed=6)


def raw_http(port, method, path):
    """One request, returning (status, headers, body-text)."""

    async def go():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
                     f"Connection: close\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        return raw

    raw = asyncio.run(go())
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body.decode("utf-8")


class TestJsonSnapshot:
    def test_snapshot_schema(self, instance):
        request = SolveRequest(graph=instance, algorithm="thm2", seed=3,
                               params={"eps": 0.5})
        with ServerThread() as server:
            http(server.port, "POST", "/v1/solve",
                 request.to_json().encode())
            status, doc = http(server.port, "GET", "/v1/metrics")
        assert status == 200
        # Legacy keys survive; the telemetry PR's additions ride along.
        for key in ("requests", "completed", "failed", "rejected",
                    "coalesced", "cache_hits", "timeouts", "batches",
                    "p50_latency_s", "p95_latency_s", "p99_latency_s",
                    "observed_latencies", "latency_reservoir", "stages",
                    "backend", "histograms"):
            assert key in doc, key
        reservoir = doc["latency_reservoir"]
        assert reservoir["scheme"].startswith("reservoir-sampling")
        assert reservoir["capacity"] >= reservoir["size"] >= 1
        assert reservoir["observed_total"] == doc["observed_latencies"] == 1
        assert set(doc["stages"]) <= set(STAGES)
        assert doc["stages"]["solve"]["count"] == 1
        assert "repro_service_request_latency_seconds" in doc["histograms"]

    def test_explicit_json_format(self):
        with ServerThread() as server:
            status, doc = http(server.port, "GET", "/v1/metrics?format=json")
        assert status == 200
        assert doc["requests"] == 0

    def test_unknown_format_400(self):
        with ServerThread() as server:
            status, doc = http(server.port, "GET", "/v1/metrics?format=xml")
        assert status == 400
        assert "unknown metrics format" in doc["error"]["message"]

    def test_empty_reservoir_percentiles_are_zero(self):
        with ServerThread() as server:
            status, doc = http(server.port, "GET", "/v1/metrics")
        assert status == 200
        assert doc["observed_latencies"] == 0
        assert doc["p50_latency_s"] == 0.0
        assert doc["p95_latency_s"] == 0.0
        assert doc["p99_latency_s"] == 0.0


class TestPrometheusExposition:
    def test_content_type_and_families(self, instance):
        request = SolveRequest(graph=instance, algorithm="thm2", seed=3,
                               params={"eps": 0.5})
        with ServerThread() as server:
            http(server.port, "POST", "/v1/solve",
                 request.to_json().encode())
            status, headers, text = raw_http(
                server.port, "GET", "/v1/metrics?format=prometheus")
        assert status == 200
        assert headers["content-type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        assert "# TYPE repro_service_request_latency_seconds histogram" \
            in text
        assert "repro_service_requests_total 1" in text
        assert "repro_service_completed_total 1" in text
        assert re.search(r"repro_service_in_flight \d", text)
        assert re.search(r"repro_service_uptime_seconds \S+", text)

    def test_histogram_buckets_monotone_with_sum_and_count(self, instance):
        request = SolveRequest(graph=instance, algorithm="thm2", seed=3,
                               params={"eps": 0.5})
        with ServerThread() as server:
            for seed in (1, 2, 3):
                body = SolveRequest(graph=instance, algorithm="thm2",
                                    seed=seed,
                                    params={"eps": 0.5}).to_json().encode()
                http(server.port, "POST", "/v1/solve", body)
            _, _, text = raw_http(
                server.port, "GET", "/v1/metrics?format=prometheus")
        family = "repro_service_request_latency_seconds"
        buckets = re.findall(
            rf'^{family}_bucket{{le="([^"]+)"}} (\d+)$', text, re.M)
        assert buckets, text
        assert buckets[-1][0] == "+Inf"
        counts = [int(c) for _le, c in buckets]
        assert counts == sorted(counts)
        count = int(re.search(rf"^{family}_count (\d+)$", text, re.M)[1])
        assert counts[-1] == count == 3
        assert float(re.search(rf"^{family}_sum (\S+)$", text, re.M)[1]) > 0

    def test_stage_histogram_labelled_per_stage(self, instance):
        request = SolveRequest(graph=instance, algorithm="thm2", seed=3,
                               params={"eps": 0.5})
        with ServerThread() as server:
            http(server.port, "POST", "/v1/solve",
                 request.to_json().encode())
            _, _, text = raw_http(
                server.port, "GET", "/v1/metrics?format=prometheus")
        for stage in ("queue_wait", "solve", "serialize"):
            assert re.search(
                r'repro_service_stage_latency_seconds_count'
                rf'{{stage="{stage}"}} \d+', text), stage

    def test_exposition_parses_line_by_line(self):
        with ServerThread() as server:
            _, _, text = raw_http(
                server.port, "GET", "/v1/metrics?format=prometheus")
        assert text.endswith("\n")
        for line in text.splitlines():
            assert (line.startswith("# ")
                    or re.match(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+$',
                                line)), line


class TestServiceStatsUnit:
    def test_absorb_run_telemetry_folds_counters(self):
        stats = ServiceStats()
        stats.absorb_run_telemetry({
            "runs": {"columnar": 2},
            "kernels": {"GhaffariMIS": {"runs": 2, "seconds": 0.5}},
            "fallbacks": [{"algorithm": "Foo", "reason": "no-kernel",
                           "count": 3, "detail": "no kernel for Foo"}],
        })
        snap = stats.snapshot(in_flight=0, queue_depth=0, draining=False)
        backend = snap["backend"]
        assert backend["runs"] == {"columnar": 2}
        assert backend["kernels"]["GhaffariMIS"] == {"runs": 2,
                                                     "seconds": 0.5}
        assert backend["fallbacks"] == 3
        assert backend["fallback_reasons"] == {"no-kernel": 3}
        assert backend["fallback_details"] == {"no-kernel":
                                               "no kernel for Foo"}

    def test_absorb_empty_telemetry_is_noop(self):
        stats = ServiceStats()
        stats.absorb_run_telemetry({})
        snap = stats.snapshot(in_flight=0, queue_depth=0, draining=False)
        assert snap["backend"]["fallbacks"] == 0

    def test_observe_stages_skips_total(self):
        stats = ServiceStats()
        stats.observe_stages({"solve": 0.1, "total": 0.2})
        snap = stats.snapshot(in_flight=0, queue_depth=0, draining=False)
        assert set(snap["stages"]) == {"solve"}

    def test_latency_reservoir_survives_sustained_load(self):
        stats = ServiceStats()
        for i in range(10_000):
            stats.observe_latency(i / 10_000)
        snap = stats.snapshot(in_flight=0, queue_depth=0, draining=False)
        assert snap["latency_reservoir"]["observed_total"] == 10_000
        assert snap["latency_reservoir"]["size"] == \
            snap["latency_reservoir"]["capacity"] == 4096
        # Unbiased over the whole run, not the newest 4096.
        assert snap["p50_latency_s"] == pytest.approx(0.5, abs=0.05)

    def test_json_and_prometheus_agree_on_counts(self, instance):
        report = solve(instance, "thm2", seed=3, eps=0.5)
        stats = ServiceStats()
        for _ in range(3):
            stats.inc("requests")
        for s in (0.01, 0.02):
            stats.finish(ServedReport(report=report, seconds=s),
                         executed=True)
        snap = stats.snapshot(in_flight=1, queue_depth=0, draining=False)
        text = stats.render_prometheus(in_flight=1, queue_depth=0,
                                       draining=False)
        hist = snap["histograms"]["repro_service_request_latency_seconds"]
        assert hist["series"][0]["count"] == 2
        assert "repro_service_request_latency_seconds_count 2" in text
        assert "repro_service_requests_total 3" in text
        assert "repro_service_completed_total 2" in text
        assert (snap["requests"], snap["completed"], snap["executed"]) == \
            (3, 2, 2)


class TestHeadAndMetricsJson:
    def test_head_metrics_has_no_body(self):
        with ServerThread() as server:
            status, headers, body = raw_http(server.port, "HEAD",
                                             "/v1/metrics")
        assert status == 200
        assert body == ""
        assert int(headers["content-length"]) > 0

    def test_json_metrics_content_type(self):
        with ServerThread() as server:
            status, headers, body = raw_http(server.port, "GET",
                                             "/v1/metrics")
        assert status == 200
        assert headers["content-type"] == "application/json"
        json.loads(body)


def _family_total(families, name, **labels):
    family = families.get(name) or {"series": []}
    return sum(entry["value"] for entry in family["series"]
               if all(entry["labels"].get(k) == v for k, v in labels.items()))


class TestMetricContract:
    """What each serve path counts, pinned as literal numbers."""

    def test_every_serve_path_counts(self, instance, tmp_path):
        gate = threading.Event()
        gate.set()
        calls = []

        def solver(graph, seed=None, **params):
            calls.append(seed)
            if not gate.wait(timeout=10.0):
                raise RuntimeError("gate never opened")
            if params.get("fail"):
                raise RuntimeError("induced solver failure")
            return weighted_greedy_maxis(graph, seed=seed)

        engine_kwargs = dict(registry={"mis-luby": solver},
                             cache_dir=str(tmp_path), memory_cache=8,
                             max_queue=1, max_batch=1)

        def req(seed, **kwargs):
            return SolveRequest(graph=instance, algorithm="mis-luby",
                                seed=seed, **kwargs)

        async def scenario():
            # Warm the disk tier with an engine whose counts are not read.
            warmer = SolverEngine(**engine_kwargs)
            await warmer.start()
            await warmer.submit(req(100))
            await warmer.aclose()

            engine = SolverEngine(**engine_kwargs)
            await engine.start()
            store = engine.graph_store
            # computed, then the memory hit of the same key, then disk
            await engine.submit(req(1))
            assert (await engine.submit(req(1))).cache_tier == "memory"
            assert (await engine.submit(req(100))).cache_tier == "disk"
            # coalesced follower
            gate.clear()
            leader = asyncio.ensure_future(engine.submit(req(2)))
            await asyncio.sleep(0)
            follower = asyncio.ensure_future(engine.submit(req(2)))
            await asyncio.sleep(0.05)
            gate.set()
            assert not (await leader).coalesced
            assert (await follower).coalesced
            # incremental served, then a topology edit that falls back
            ref = store.put(instance).ref
            await engine.submit(SolveRequest.from_doc(
                {"schema": "v2", "graph": {"ref": ref},
                 "algorithm": "mis-luby", "seed": 5}, store=store))
            v = instance.nodes[0]
            for ops, mode in (([["set_weight", v, 50.0]], "incremental"),
                              ([["add_node", 10**6, 1.0]], "full")):
                delta = SolveRequest.from_doc(
                    {"schema": "v2",
                     "graph": {"delta": {"parent": ref, "ops": ops}},
                     "algorithm": "mis-luby", "seed": 5}, store=store)
                assert (await engine.submit(delta)).solve_mode == mode
            # solver failure
            failed = await engine.submit(req(3, params={"fail": True}))
            assert not failed.report.ok
            # 429 and 504: hold the dispatcher, then fill the one queue
            # slot with a request whose deadline expires in the queue.
            gate.clear()
            del calls[:]
            held = asyncio.ensure_future(engine.submit(req(10)))
            while not calls:
                await asyncio.sleep(0.01)
            queued = asyncio.ensure_future(engine.submit(
                req(11, timeout_s=0.05)))
            await asyncio.sleep(0)
            with pytest.raises(RequestRejected):
                await engine.submit(req(12))
            with pytest.raises(DeadlineExceeded):
                await queued
            gate.set()
            await held
            await engine.drain()
            snapshot = engine.metrics_snapshot()
            await engine.aclose()
            return snapshot

        snap = asyncio.run(scenario())
        assert {key: snap[key] for key in FLAT_COUNTERS} == {
            "requests": 10, "completed": 10, "failed": 1, "rejected": 1,
            "coalesced": 1, "cache_hits": 1, "memory_cache_hits": 1,
            "executed": 7, "timeouts": 1, "batches": 8,
            "incremental_served": 1, "incremental_fallback": 1,
        }
        assert {stage: entry["count"]
                for stage, entry in snap["stages"].items()} == {
            "cache_lookup": 9, "coalesce_wait": 1, "graph_attach": 1,
            "incremental": 1, "queue_wait": 8, "solve": 8,
        }


class TestJsonReadsTheRegistry:
    def test_flat_counters_equal_their_families_across_a_scrape(
            self, instance):
        with ServerThread(memory_cache=8) as server:
            _, before = http(server.port, "GET", "/v1/metrics")
            raw_http(server.port, "GET", "/v1/metrics?format=prometheus")
            for seed in (1, 2):
                body = SolveRequest(graph=instance, algorithm="thm2",
                                    seed=seed, params={"eps": 0.5})
                http(server.port, "POST", "/v1/solve",
                     body.to_json().encode())
            _, doc = http(server.port, "GET", "/v1/metrics")
        families = doc["histograms"]
        assert set(families) == set(before["histograms"])
        tiers = {"cache_hits": "disk", "memory_cache_hits": "memory"}
        for key in FLAT_COUNTERS:
            if key in tiers:
                value = _family_total(
                    families, "repro_service_cache_tier_hits_total",
                    tier=tiers[key])
            else:
                value = _family_total(families,
                                      f"repro_service_{key}_total")
            assert doc[key] == value, key
        assert doc["requests"] == doc["completed"] == 2
