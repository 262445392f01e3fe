"""The metric registry, reservoir, traces, and run collectors."""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro.obs.aggregate import percentile
from repro.obs.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    ReservoirSample,
    RunTelemetry,
    TraceContext,
    collect_run_telemetry,
    current_collector,
    new_trace_id,
    prometheus_text,
    record_backend_run,
    record_fallback,
    record_kernel_time,
)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("jobs_total", "help")
        c.inc()
        c.inc(2.0)
        assert c.value() == 3.0

    def test_labelled_series_are_independent(self):
        c = Counter("ops_total", "help", labelnames=("kind",))
        c.inc(kind="read")
        c.inc(5, kind="write")
        assert c.value(kind="read") == 1.0
        assert c.value(kind="write") == 5.0

    def test_negative_increment_rejected(self):
        c = Counter("jobs_total", "help")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_wrong_labels_rejected(self):
        c = Counter("ops_total", "help", labelnames=("kind",))
        with pytest.raises(ValueError, match="takes labels"):
            c.inc(direction="up")

    def test_render_escapes_label_values(self):
        reg = MetricRegistry()
        reg.counter("ops_total", "help", labelnames=("detail",)).inc(
            detail='say "hi"\nplease\\now')
        line = [ln for ln in reg.render_prometheus().splitlines()
                if not ln.startswith("#")][0]
        assert '\\"hi\\"' in line
        assert "\\n" in line
        assert "\n" not in line


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("depth", "help")
        g.set(4)
        g.set(2)
        assert g.value() == 2.0

    def test_render(self):
        reg = MetricRegistry()
        reg.gauge("depth", "help").set(3)
        assert reg.render_prometheus().splitlines() == [
            "# HELP depth help", "# TYPE depth gauge", "depth 3"]


class TestHistogram:
    def test_observe_lands_in_correct_bucket(self):
        h = Histogram("lat", "help", buckets=(0.1, 1.0, 10.0))
        h.observe(0.05)   # <= 0.1
        h.observe(0.5)    # <= 1.0
        h.observe(100.0)  # +Inf only
        (entry,) = h.series()
        assert entry["buckets"] == [("0.1", 1), ("1", 2), ("10", 2),
                                    ("+Inf", 3)]
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(100.55)

    def test_boundary_value_is_inclusive(self):
        h = Histogram("lat", "help", buckets=(1.0,))
        h.observe(1.0)
        (entry,) = h.series()
        assert entry["buckets"][0] == ("1", 1)

    def test_bucket_counts_are_monotone(self):
        h = Histogram("lat", "help")
        for i in range(200):
            h.observe(0.0005 * (i + 1))
        (entry,) = h.series()
        counts = [count for _le, count in entry["buckets"]]
        assert counts == sorted(counts)
        assert counts[-1] == entry["count"] == 200

    def test_render_has_bucket_sum_count(self):
        reg = MetricRegistry()
        reg.histogram("lat", "help", buckets=(0.5,)).observe(0.25)
        text = reg.render_prometheus()
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert 'lat_sum 0.25' in text
        assert 'lat_count 1' in text

    def test_rejects_empty_and_infinite_bounds(self):
        with pytest.raises(ValueError):
            Histogram("lat", "help", buckets=())
        with pytest.raises(ValueError):
            Histogram("lat", "help", buckets=(1.0, float("inf")))

    def test_default_buckets_cover_service_regime(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 60.0


class TestMetricRegistry:
    def test_namespace_prefixes_names(self):
        reg = MetricRegistry(namespace="svc")
        c = reg.counter("jobs_total", "help")
        assert c.name == "svc_jobs_total"
        assert reg.get("jobs_total") is c

    def test_registration_is_idempotent(self):
        reg = MetricRegistry()
        assert reg.counter("a", "help") is reg.counter("a", "help")

    def test_kind_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("a", "help")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a", "help")

    def test_label_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("a", "help", labelnames=("x",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("a", "help", labelnames=("y",))

    def test_snapshot_shape(self):
        reg = MetricRegistry(namespace="svc")
        reg.counter("jobs_total", "jobs").inc(3)
        reg.histogram("lat", "latency", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert set(snap) == {"svc_jobs_total", "svc_lat"}
        assert snap["svc_jobs_total"]["kind"] == "counter"
        assert snap["svc_jobs_total"]["series"][0]["value"] == 3.0
        assert snap["svc_lat"]["kind"] == "histogram"

    def test_prometheus_exposition_is_well_formed(self):
        reg = MetricRegistry(namespace="svc")
        reg.counter("jobs_total", "jobs run").inc(2)
        reg.gauge("depth", "queue depth").set(1)
        reg.histogram("lat_seconds", "latency").observe(0.003)
        text = reg.render_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert (line.startswith("# HELP ") or line.startswith("# TYPE ")
                    or re.match(r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+$',
                                line)), line
        assert "svc_jobs_total 2" in text
        assert "svc_depth 1" in text
        assert 'svc_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "svc_lat_seconds_count 1" in text

    def test_unlabelled_scalars_have_a_series_from_registration(self):
        reg = MetricRegistry(namespace="svc")
        reg.counter("jobs_total", "jobs run")
        reg.gauge("depth", "queue depth")
        snap = reg.snapshot()
        assert snap["svc_jobs_total"]["series"] == [{"labels": {},
                                                     "value": 0.0}]
        assert snap["svc_depth"]["series"] == [{"labels": {}, "value": 0.0}]
        assert "svc_jobs_total 0" in reg.render_prometheus()

    def test_encoder_reads_a_json_round_tripped_snapshot(self):
        reg = MetricRegistry(namespace="svc")
        reg.counter("ops_total", "ops", labelnames=("kind",)).inc(kind="r")
        reg.histogram("lat_seconds", "latency",
                      labelnames=("stage",)).observe(0.003, stage="solve")
        doc = json.loads(json.dumps(reg.snapshot()))
        assert prometheus_text(doc) == reg.render_prometheus()
        assert 'svc_lat_seconds_bucket{stage="solve",le="+Inf"} 1' in \
            prometheus_text(doc)


class TestReservoirSample:
    def test_fills_then_stays_bounded(self):
        r = ReservoirSample(capacity=10)
        for i in range(100):
            r.observe(float(i))
        assert len(r) == 10
        assert r.observed_total == 100

    def test_small_streams_are_kept_exactly(self):
        r = ReservoirSample(capacity=100)
        for i in range(20):
            r.observe(float(i))
        assert sorted(r.values()) == [float(i) for i in range(20)]

    def test_sample_is_not_a_newest_window(self):
        # The deque this replaces would contain only the last `capacity`
        # values (all large); a uniform reservoir keeps early ones too.
        r = ReservoirSample(capacity=64, rng_seed=7)
        for i in range(10_000):
            r.observe(float(i))
        assert min(r.values()) < 10_000 - 64

    def test_percentiles_unbiased_on_uniform_stream(self):
        r = ReservoirSample(capacity=1024, rng_seed=3)
        for i in range(50_000):
            r.observe(i / 50_000)
        assert percentile(r.values(), 50) == pytest.approx(0.5, abs=0.05)
        assert percentile(r.values(), 95) == pytest.approx(0.95, abs=0.05)

    def test_empty_percentile_is_zero(self):
        assert percentile(ReservoirSample().values(), 95) == 0.0


class TestTraceContext:
    def test_trace_ids_are_unique_hex(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 32
        int(a, 16)

    def test_stage_accumulates(self):
        ctx = TraceContext()
        ctx.add_stage("solve", 0.1)
        ctx.add_stage("solve", 0.2)
        assert ctx.stages["solve"] == pytest.approx(0.3)

    def test_stage_context_manager_times(self):
        ctx = TraceContext()
        with ctx.stage("serialize"):
            pass
        assert ctx.stages["serialize"] >= 0.0

    def test_to_doc_includes_primary_only_when_set(self):
        follower = TraceContext(primary_trace_id="abc")
        assert follower.to_doc()["primary_trace_id"] == "abc"
        assert "primary_trace_id" not in TraceContext().to_doc()


class TestRunCollectors:
    def test_no_collector_is_a_noop(self):
        assert current_collector() is None
        record_backend_run("per-node")  # must not raise

    def test_collector_receives_records(self):
        with collect_run_telemetry() as col:
            record_backend_run("columnar")
            record_kernel_time("GhaffariMIS", 0.25)
            record_fallback("Foo", "no-kernel", "no kernel for Foo")
        doc = col.to_doc()
        assert doc["runs"] == {"columnar": 1}
        assert doc["kernels"]["GhaffariMIS"]["runs"] == 1
        assert doc["fallbacks"] == [{"algorithm": "Foo",
                                     "reason": "no-kernel", "count": 1,
                                     "detail": "no kernel for Foo"}]

    def test_innermost_collector_wins(self):
        with collect_run_telemetry() as outer:
            with collect_run_telemetry() as inner:
                record_backend_run("columnar")
            record_backend_run("per-node")
        assert inner.backend_runs == {"columnar": 1}
        assert outer.backend_runs == {"per-node": 1}

    def test_collectors_are_thread_local(self):
        seen = {}

        def worker():
            seen["other"] = current_collector()

        with collect_run_telemetry():
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert current_collector() is not None
        assert seen["other"] is None

    def test_empty_collector_doc_is_empty(self):
        with collect_run_telemetry() as col:
            pass
        assert col.to_doc() == {}

    def test_run_telemetry_counts(self):
        t = RunTelemetry()
        t.record_fallback("A", "kernel")
        t.record_fallback("A", "kernel")
        t.record_fallback("B", "dense-state")
        assert t.fallback_count == 3
