"""Chrome-trace export, phase tables, and round timelines."""

import json

import pytest

from repro.core import theorem2_maxis
from repro.graphs import gnp, uniform_weights
from repro.obs import (
    chrome_trace,
    phase_rows,
    render_phase_table,
    render_round_timeline,
    render_telemetry,
    rows_from_events,
    telemetry_summary,
)
from repro.simulator.metrics import SpanNode


@pytest.fixture(scope="module")
def boosting_run():
    """A real E3-style boosting run (Theorem 2 wraps Algorithm 1)."""
    g = uniform_weights(gnp(30, 0.12, seed=11), 1, 20, seed=12)
    return theorem2_maxis(g, 0.5, seed=11)


class TestChromeTrace:
    def test_structure_is_valid_and_json_serializable(self, boosting_run):
        doc = chrome_trace(boosting_run.metrics.span)
        json.dumps(doc)  # must not raise
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert set(ev) >= {"name", "ph", "ts", "dur", "pid", "tid", "args"}

    def test_root_duration_equals_run_rounds(self, boosting_run):
        doc = chrome_trace(boosting_run.metrics.span)
        root = doc["traceEvents"][0]
        assert root["name"] == "theorem2"
        assert root["dur"] == boosting_run.metrics.rounds

    def test_children_fit_inside_parent(self, boosting_run):
        doc = chrome_trace(boosting_run.metrics.span)
        by_tid = {}
        for ev in doc["traceEvents"]:
            by_tid.setdefault(ev["tid"], []).append(ev)
        root = doc["traceEvents"][0]
        for ev in doc["traceEvents"]:
            assert ev["ts"] + ev["dur"] <= root["ts"] + root["dur"]

    def test_sequential_children_abut(self):
        tree = SpanNode(name="root", rounds=5, children=(
            SpanNode(name="a", rounds=2),
            SpanNode(name="b", rounds=3),
        ))
        events = {e["name"]: e for e in chrome_trace(tree)["traceEvents"]}
        assert events["a"]["ts"] == 0 and events["a"]["dur"] == 2
        assert events["b"]["ts"] == 2 and events["b"]["dur"] == 3

    def test_parallel_child_starts_at_sibling_start(self):
        tree = SpanNode(name="root", rounds=7, children=(
            SpanNode(name="tree", rounds=4),
            SpanNode(name="pipe", rounds=7, mode="par"),
            SpanNode(name="flood", rounds=0),
        ))
        events = {e["name"]: e for e in chrome_trace(tree)["traceEvents"]}
        assert events["pipe"]["ts"] == events["tree"]["ts"] == 0
        assert events["flood"]["ts"] == 7


class TestPhaseTable:
    def test_rows_are_indented_and_share_labelled(self, boosting_run):
        rows = phase_rows(boosting_run.metrics.span)
        assert rows[0]["phase"] == "theorem2"
        assert rows[0]["share"] == "100.0%"
        assert any(r["phase"].startswith("  ") for r in rows[1:])

    def test_render_contains_phases(self, boosting_run):
        text = render_phase_table(boosting_run.metrics.span)
        assert "boost" in text
        assert "push[0]" in text
        assert "sample-H" in text


class TestRoundTimeline:
    def test_rows_from_jsonl_records(self):
        records = [
            {"type": "meta", "ignored": True},
            {"type": "event", "round": 0, "kind": "send", "node": 1,
             "detail": [2, 40]},
            {"type": "event", "round": 1, "kind": "drop", "node": 2,
             "detail": [1, 16]},
            {"type": "event", "round": 1, "kind": "halt", "node": 2,
             "detail": None},
            {"type": "round_profile", "round": 1, "compute_seconds": 0.25,
             "delivery_seconds": 0.5},
        ]
        rows = rows_from_events(records)
        assert [r["round"] for r in rows] == [0, 1]
        assert rows[0]["messages"] == 1 and rows[0]["bits"] == 40
        assert rows[1]["drops"] == 1 and rows[1]["bits"] == 16
        assert rows[1]["halts"] == 1
        text = render_round_timeline(rows)
        assert "round 1:" in text
        assert "1 dropped" in text
        assert "250.00ms compute" in text

    def test_row_cap(self):
        rows = [{"round": r, "messages": 0, "bits": 0} for r in range(10)]
        text = render_round_timeline(rows, max_rounds=4)
        assert "6 more rounds" in text

    def test_empty(self):
        assert render_round_timeline([]) == "(no rounds)"


class TestTelemetrySummary:
    RECORDS = [
        {"type": "meta"},  # no telemetry: ignored
        {"type": "job", "telemetry": {
            "runs": {"columnar": 2},
            "kernels": {"GhaffariMIS": {"runs": 2, "seconds": 0.5}},
            "fallbacks": [{"algorithm": "Foo", "reason": "no-kernel",
                           "count": 1, "detail": "no kernel for Foo"}],
            "stages": {"cache_lookup": 0.001},
        }},
        {"type": "job", "telemetry": {
            "runs": {"columnar": 1, "per-node": 1},
            "kernels": {"GhaffariMIS": {"runs": 1, "seconds": 0.25}},
            "fallbacks": [{"algorithm": "Foo", "reason": "no-kernel",
                           "count": 2}],
        }},
    ]

    def test_summary_sums_across_jobs(self):
        summary = telemetry_summary(self.RECORDS)
        assert summary["jobs_with_telemetry"] == 2
        assert summary["backend_runs"] == {"columnar": 3, "per-node": 1}
        assert summary["kernels"]["GhaffariMIS"] == {"runs": 3,
                                                     "seconds": 0.75}
        (fb,) = summary["fallbacks"]
        assert fb == {"algorithm": "Foo", "reason": "no-kernel",
                      "count": 3, "detail": "no kernel for Foo"}
        assert summary["stages"]["cache_lookup"]["count"] == 1

    def test_render_mentions_reasons_and_details(self):
        text = render_telemetry(self.RECORDS)
        assert "Foo [no-kernel]: 3" in text
        assert "no kernel for Foo" in text
        assert "GhaffariMIS: 3 runs" in text

    def test_render_without_telemetry_records(self):
        assert "no telemetry records" in render_telemetry([{"type": "meta"}])

    def test_batch_run_emits_telemetry_on_job_docs(self):
        from repro.graphs import uniform_weights as uw
        from repro.simulator.batch import BatchJob, batch_run
        from repro.simulator.instrument import install_outcome_emitter

        g = uw(gnp(14, 0.2, seed=1), 1, 9, seed=2)
        records = []
        with install_outcome_emitter(records.append):
            batch_run([BatchJob(g, "mis-det", seed=1)])
        summary = telemetry_summary(records)
        assert summary["jobs_with_telemetry"] == 1
        # A job that names no backend runs on the columnar default.
        assert summary["backend_runs"].get("columnar", 0) >= 1
