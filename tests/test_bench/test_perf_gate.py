"""Perf-gate harness: matrix shape, measurement schema, gate logic."""

import json

import pytest

from repro.bench.perf_gate import (
    BASELINE_FILE,
    SCHEMA,
    compare_reports,
    load_report,
    matrix_cells,
    pipelined_coloring,
    render_comparison,
    render_report,
    run_perf_gate,
    write_report,
)
from repro.graphs import gnp
from repro.graphs.weights import integer_weights


# Building the full matrix is no longer free — the scale tier
# materializes 10^5..2*10^5-node graphs — so every test in this module
# shares one build.
@pytest.fixture(scope="module")
def full_cells():
    return matrix_cells("full")


class TestMatrix:
    def test_tiny_is_subset_of_full(self, full_cells):
        tiny = {(c["graph_name"], c["alg_name"]) for c in matrix_cells("tiny")}
        full = {(c["graph_name"], c["alg_name"]) for c in full_cells}
        assert tiny and tiny < full

    def test_full_covers_four_algorithm_families_and_scale_tier(self, full_cells):
        algs = {c["alg_name"] for c in full_cells}
        assert {"thm8", "thm9", "thm1", "coloring"} <= algs
        # The scale tier pairs each per-node cell with its columnar twin.
        assert {"mis-det", "mis-det@columnar", "mis-luby@columnar"} <= algs

    def test_scale_cells_record_their_backend(self, full_cells):
        # Every cell names its backend: the default is columnar, so a
        # per-node cell that named none would time the wrong scheduler.
        by_alg = {c["alg_name"]: c for c in full_cells}
        assert by_alg["mis-det"]["backend"] == "per-node"
        assert by_alg["thm1"]["backend"] == "per-node"
        assert by_alg["mis-det@columnar"]["backend"] == "columnar"
        assert len(by_alg["mis-det@columnar"]["graph"].nodes) >= 100_000

    def test_unknown_matrix_rejected(self):
        with pytest.raises(ValueError):
            matrix_cells("huge")

    def test_graphs_are_deterministic(self, full_cells):
        a = {c["graph_name"]: c["graph"].fingerprint() for c in full_cells}
        b = {c["graph_name"]: c["graph"].fingerprint()
             for c in matrix_cells("full")}
        assert a == b


class TestMeasurement:
    def test_tiny_report_schema_and_roundtrip(self, tmp_path):
        doc = run_perf_gate(matrix="tiny", repeats=1)
        assert doc["schema"] == SCHEMA
        assert doc["matrix"] == "tiny"
        assert len(doc["cells"]) == len(matrix_cells("tiny"))
        for cell in doc["cells"]:
            assert cell["backend"] == "per-node"
            assert cell["seconds"] > 0
            assert cell["rounds"] > 0
            assert cell["messages"] > 0
            assert cell["weight"] > 0
        assert doc["env"]["python"]
        path = tmp_path / BASELINE_FILE
        write_report(doc, str(path))
        assert load_report(str(path)) == json.loads(path.read_text())

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"schema": "something-else", "cells": []}')
        with pytest.raises(ValueError):
            load_report(str(path))

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            run_perf_gate(matrix="tiny", repeats=0)

    def test_coloring_cell_callable_is_deterministic(self):
        g = integer_weights(gnp(30, 0.15, seed=1), 100, seed=2)
        a = pipelined_coloring(g, seed=0)
        b = pipelined_coloring(g, seed=99)  # seed is accepted and ignored
        assert tuple(sorted(a.independent_set)) == tuple(sorted(b.independent_set))
        assert a.metrics.rounds == b.metrics.rounds


class TestGate:
    def _report(self, cells):
        return {"schema": SCHEMA, "cells": [
            {"graph": g, "algorithm": a, "seconds": s} for g, a, s in cells
        ]}

    def test_within_tolerance_passes(self):
        cur = self._report([("g", "x", 0.014)])
        base = self._report([("g", "x", 0.010)])
        rows, ok = compare_reports(cur, base, tolerance=1.5)
        assert ok
        assert rows[0]["status"] == "ok"
        assert rows[0]["ratio"] == pytest.approx(1.4)

    def test_slowdown_beyond_tolerance_fails(self):
        cur = self._report([("g", "x", 0.016), ("g", "y", 0.010)])
        base = self._report([("g", "x", 0.010), ("g", "y", 0.010)])
        rows, ok = compare_reports(cur, base, tolerance=1.5)
        assert not ok
        by_alg = {r["algorithm"]: r for r in rows}
        assert by_alg["x"]["status"] == "FAIL"
        assert by_alg["y"]["status"] == "ok"

    def test_unmatched_cells_never_fail_the_gate(self):
        # The tiny CI matrix is a strict subset of the committed full
        # baseline: baseline-only cells report as missing, new cells as
        # new, and neither trips the gate.
        cur = self._report([("g", "x", 0.010), ("h", "x", 0.010)])
        base = self._report([("g", "x", 0.010), ("g", "z", 0.010)])
        rows, ok = compare_reports(cur, base, tolerance=1.5)
        assert ok
        statuses = {(r["graph"], r["algorithm"]): r["status"] for r in rows}
        assert statuses[("h", "x")] == "new"
        assert statuses[("g", "z")] == "missing"

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_reports(self._report([]), self._report([]), tolerance=0)

    def test_renderers_return_text(self):
        doc = {"schema": SCHEMA, "matrix": "tiny", "repeats": 1,
               "env": {"commit": "abc"}, "cells": [
                   {"graph": "g", "algorithm": "x", "n": 10, "m": 5,
                    "seconds": 0.01, "rounds_per_sec": 100.0,
                    "messages_per_sec": 1000.0}]}
        assert "g/x" in render_report(doc)
        rows, _ = compare_reports(doc, doc, tolerance=1.5)
        assert "g/x" in render_comparison(rows, 1.5)


class TestCommittedBaseline:
    def test_repo_baseline_is_a_full_matrix_report(self, full_cells):
        # BENCH_runner.json at the repo root is the committed reference;
        # every cell of the full matrix must be present.
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        path = os.path.join(root, BASELINE_FILE)
        doc = load_report(path)
        keys = {(c["graph"], c["algorithm"]) for c in doc["cells"]}
        want = {(c["graph_name"], c["alg_name"]) for c in full_cells}
        assert keys == want
