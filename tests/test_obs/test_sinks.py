"""Event sinks and the ambient instrumentation registry."""

import io
import json

import pytest

from repro.graphs import path, star
from repro.obs import (
    JsonlStreamSink,
    MetricRegistry,
    MultiSink,
    NullSink,
    RingBufferSink,
    RoundSeriesSink,
    TelemetrySink,
    install_sink,
)
from repro.simulator import run
from tests.test_simulator.test_runner import CountRounds, EchoNeighborSum


class TestNullSink:
    def test_swallows_everything(self):
        sink = NullSink()
        res = run(path(3), EchoNeighborSum, sink=sink)
        assert res.metrics.rounds == 1

    def test_does_not_request_profiling(self):
        # The runner only pays for perf_counter() when a sink implements
        # on_round_profile; NullSink must not.
        assert getattr(NullSink(), "on_round_profile", None) is None


class TestRingBufferSink:
    def test_keeps_most_recent_events(self):
        sink = RingBufferSink(capacity=3)
        for r in range(7):
            sink.record(r, "send", 0, (1, 8))
        assert len(sink) == 3
        assert sink.evicted_events == 4
        assert [e.round_index for e in sink.events] == [4, 5, 6]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_tail_of_long_run(self):
        sink = RingBufferSink(capacity=5)
        run(path(4), lambda: CountRounds(10), sink=sink)
        rounds = [e.round_index for e in sink.events]
        assert rounds == sorted(rounds)
        assert rounds[-1] == 10  # the tail survived; the head was evicted
        assert sink.evicted_events > 0


class TestRoundSeriesSink:
    def test_rows_aggregate_traffic_and_wall_clock(self):
        sink = RoundSeriesSink()
        res = run(path(3), EchoNeighborSum, sink=sink)
        rows = sink.rows()
        assert [r["round"] for r in rows] == [0, 1]
        assert sum(r["messages"] for r in rows) == res.metrics.messages
        assert sum(r["halts"] for r in rows) == 3
        # Profiling was active: some wall-clock must have been recorded.
        assert sink.total_compute_seconds + sink.total_delivery_seconds > 0

    def test_drop_bits_charged_into_bit_totals(self):
        from repro.simulator import NodeAlgorithm

        class HaltingHub(NodeAlgorithm):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.halt("early")

            def on_round(self, ctx, inbox):
                if ctx.round_index == 1:
                    ctx.broadcast("ping")
                else:
                    ctx.halt(len(inbox))

        sink = RoundSeriesSink()
        res = run(star(3), HaltingHub, sink=sink)
        total_bits = sum(r["bits"] for r in sink.rows())
        assert total_bits == res.metrics.total_bits  # drops included
        assert sum(r["drops"] for r in sink.rows()) == 3


class TestJsonlStreamSink:
    def test_streams_events_and_profiles(self):
        buf = io.StringIO()
        with JsonlStreamSink(buf) as sink:
            run(path(3), EchoNeighborSum, sink=sink)
        records = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        kinds = {r["type"] for r in records}
        assert kinds == {"event", "round_profile"}
        assert sink.records_written == len(records)

    def test_owns_and_closes_file(self, tmp_path):
        target = tmp_path / "t.jsonl"
        with JsonlStreamSink(str(target)) as sink:
            sink.write({"type": "meta", "x": 1})
        records = [json.loads(ln) for ln in target.read_text().splitlines()]
        assert records == [{"type": "meta", "x": 1}]

    def test_non_json_detail_stringified(self):
        buf = io.StringIO()
        JsonlStreamSink(buf).record(0, "halt", 1, detail=frozenset([2]))
        doc = json.loads(buf.getvalue())
        assert "2" in doc["detail"]


class TestMultiSink:
    def test_fans_out(self):
        ring = RingBufferSink(capacity=100)
        series = RoundSeriesSink()
        res = run(path(3), EchoNeighborSum, sink=MultiSink([ring, series]))
        assert len(ring) > 0
        assert sum(r["messages"] for r in series.rows()) == res.metrics.messages

    def test_only_profiled_members_get_profiles(self):
        null = NullSink()
        series = RoundSeriesSink()
        run(path(3), EchoNeighborSum, sink=MultiSink([null, series]))
        assert series.total_compute_seconds >= 0.0


class TestAmbientRegistry:
    def test_installed_sink_observes_inner_runs(self):
        series = RoundSeriesSink()
        with install_sink(series):
            res = run(path(3), EchoNeighborSum)
        assert sum(r["messages"] for r in series.rows()) == res.metrics.messages

    def test_uninstalled_after_context(self):
        series = RoundSeriesSink()
        with install_sink(series):
            pass
        run(path(3), EchoNeighborSum)
        assert series.rows() == []

    def test_composed_algorithm_streams_through_ambient_sink(self):
        from repro.core import theorem1_maxis
        from repro.graphs import gnp, uniform_weights

        g = uniform_weights(gnp(20, 0.15, seed=1), 1, 10, seed=2)
        ring = RingBufferSink(capacity=100_000)
        with install_sink(ring):
            theorem1_maxis(g, 0.5, seed=1)
        kinds = {e.kind for e in ring.events}
        assert "send" in kinds and "halt" in kinds


class TestTelemetrySink:
    def test_mirrors_events_into_registry(self):
        reg = MetricRegistry(namespace="t")
        sink = TelemetrySink(registry=reg)
        res = run(path(3), EchoNeighborSum, sink=sink)
        events = reg.get("sim_events_total")
        assert events.value(kind="send") == res.metrics.messages
        assert events.value(kind="halt") == 3
        assert reg.get("sim_bits_total").value() == res.metrics.total_bits
        # round profiles were delivered (the sink implements the hook)
        assert reg.get("sim_compute_seconds_total").value() > 0

    def test_registry_is_required(self):
        with pytest.raises(TypeError):
            TelemetrySink()

    def test_renders_in_prometheus_exposition(self):
        reg = MetricRegistry(namespace="t")
        run(path(3), EchoNeighborSum, sink=TelemetrySink(registry=reg))
        text = reg.render_prometheus()
        assert '# TYPE t_sim_events_total counter' in text
        assert 't_sim_events_total{kind="send"}' in text
