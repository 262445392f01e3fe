"""Perf-gate benchmark harness (``repro bench`` / ``make bench-perf``).

The simulator's hot path is a deliberate optimisation target (CSR graph
kernels, the slot-indexed round scheduler — see ``docs/performance.md``),
and optimisations rot silently: a harmless-looking change to message
accounting or context plumbing can double the wall-clock cost of every
experiment without failing a single correctness test.  This module pins
the cost down.

It times a fixed matrix of **cells** — generator-zoo instance × algorithm
family (good-nodes, sparsification, Theorem 1 boosting, the pipelined
colouring-to-MaxIS) — through the batch engine (``n_jobs=1``, no cache,
so every run pays full price through the exact code path sweeps use).
Each cell is run ``repeats`` times with the *same* seed and scored by the
best (minimum) wall-clock time, which is robust to scheduler noise; the
first, warm-up repetition is discarded.

Results are written as ``BENCH_runner.json``: per-cell seconds,
rounds/sec and messages/sec, plus enough environment metadata (python,
numpy, platform, commit) to judge whether two files are comparable.  The
*gate* compares a fresh measurement against a committed baseline and
fails if any cell slowed beyond a tolerance factor.  Absolute times only
transfer between identical machines, so CI runs the gate against its own
freshly measured baseline with a wide tolerance (see the ``bench-perf``
job) while developers compare against the committed file on the machine
that produced it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.generators import gnp, grid_2d, random_tree
from repro.graphs.weights import integer_weights, uniform_weights
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "SCHEMA",
    "BASELINE_FILE",
    "pipelined_coloring",
    "MATRICES",
    "matrix_cells",
    "resolve_matrix",
    "run_perf_gate",
    "compare_reports",
    "render_report",
    "render_comparison",
    "main",
]

SCHEMA = "repro-perf-gate/v1"
BASELINE_FILE = "BENCH_runner.json"

# One fixed seed per cell: best-of-k only makes sense when every repeat
# does identical work.
CELL_SEED = 7


def pipelined_coloring(graph: WeightedGraph, *, seed: Any = None,
                       **kwargs: Any):
    """Greedy ``(Δ+1)``-colouring + pipelined best-colour-class MaxIS.

    Module-level (hence picklable) so it can ride through
    :class:`~repro.simulator.batch.BatchJob` like the registry entries.
    The pipeline is deterministic; ``seed`` is accepted for signature
    uniformity and ignored.
    """
    from repro.coloring import greedy_coloring, pipelined_color_class_maxis

    colors = greedy_coloring(graph)
    return pipelined_color_class_maxis(graph, colors, **kwargs)


# --------------------------------------------------------------------- #
# the cell matrix
# --------------------------------------------------------------------- #

def _graph_zoo() -> Dict[str, Any]:
    """Named, deterministic instance *builders* spanning the generator zoo.

    ``gnp60`` is the *tiny* tier (CI smoke); the medium cells carry the
    ≥2x hot-path speedup criterion; ``gnp100k``/``gnp200k`` are the
    columnar-backend scale tier (10⁵–10⁶ edge endpoints).  Builders keep
    matrix selection cheap — a tiny run never pays for a 200k-node
    generator.
    """
    return {
        "gnp60": lambda: integer_weights(gnp(60, 0.1, seed=5), 100, seed=6),
        "gnp300": lambda: integer_weights(gnp(300, 0.04, seed=1),
                                          1_000_000, seed=2),
        "grid300": lambda: uniform_weights(grid_2d(15, 20), 1, 100, seed=3),
        "tree400": lambda: integer_weights(random_tree(400, seed=4),
                                           1000, seed=5),
        "gnp100k": lambda: integer_weights(gnp(100_000, 8e-5, seed=3),
                                           100, seed=4),
        "gnp200k": lambda: integer_weights(gnp(200_000, 4e-5, seed=3),
                                           100, seed=4),
    }


# (name, batch algorithm) — strings resolve through algorithm_registry(),
# the callable is the colouring pipeline above.  These cells time the
# per-node reference scheduler, which they name explicitly.
_ALGORITHMS: Tuple[Tuple[str, Any], ...] = (
    ("thm8", "thm8"),          # good-nodes single shot (Theorem 8)
    ("thm9", "thm9"),          # sparsify-then-solve (Theorem 9)
    ("thm1", "thm1"),          # boosted (1+eps)Delta (Theorem 1)
    ("coloring", pipelined_coloring),
)

_TINY_GRAPHS = ("gnp60",)
_FULL_GRAPHS = ("gnp60", "gnp300", "grid300", "tree400")

# The columnar-backend scale tier: (graph, algorithm, backend).  The
# per-node/columnar pairs on the same (graph, algorithm) are what the
# ≥10x wall-clock criterion in ROADMAP.md is read from.  mis-det is
# RNG-free, so its kernel shows the pure array-path speedup; mis-luby
# is the RNG-bound cell, drawing every node's stream through the
# column (repro.simulator.randomness.NodeStreams).  Per-node cells keep
# the bare algorithm name, columnar cells carry "@columnar".
_SCALE_CELLS: Tuple[Tuple[str, str, str], ...] = (
    ("gnp100k", "mis-det", "per-node"),
    ("gnp100k", "mis-det", "columnar"),
    ("gnp200k", "mis-det", "per-node"),
    ("gnp200k", "mis-det", "columnar"),
    ("gnp100k", "mis-luby", "columnar"),
)

# The cheap columnar scale cells for CI (the per-node reference at this
# size is too slow for a smoke job): the array path, and the RNG path.
_COLUMNAR_TINY_CELLS = (("gnp100k", "mis-det", "columnar"),
                        ("gnp100k", "mis-luby", "columnar"))

MATRICES = ("tiny", "full", "scale", "columnar-tiny")


def matrix_cells(matrix: str = "full") -> List[Dict[str, Any]]:
    """The cell list for ``matrix`` (one of :data:`MATRICES`).

    Each cell dict carries ``graph_name``, ``graph``, ``alg_name``,
    ``algorithm`` (a registry name or picklable callable), and
    ``backend`` (``"per-node"`` or ``"columnar"``, always named).
    ``full`` is the classic generator-zoo matrix plus the scale tier;
    ``scale`` and ``columnar-tiny`` are the scale tier alone and its CI
    subset.
    """
    if matrix == "tiny":
        graph_names: Sequence[str] = _TINY_GRAPHS
        extra: Sequence[Tuple[str, str, str]] = ()
    elif matrix == "full":
        graph_names = _FULL_GRAPHS
        extra = _SCALE_CELLS
    elif matrix == "scale":
        graph_names = ()
        extra = _SCALE_CELLS
    elif matrix == "columnar-tiny":
        graph_names = ()
        extra = _COLUMNAR_TINY_CELLS
    else:
        raise ValueError(
            f"unknown matrix {matrix!r}; use one of {', '.join(MATRICES)}"
        )
    zoo = _graph_zoo()
    built: Dict[str, WeightedGraph] = {}

    def graph_of(name: str) -> WeightedGraph:
        if name not in built:
            built[name] = zoo[name]()
        return built[name]

    cells = [
        {"graph_name": gname, "graph": graph_of(gname),
         "alg_name": aname, "algorithm": alg, "backend": "per-node"}
        for gname in graph_names
        for aname, alg in _ALGORITHMS
    ]
    cells.extend(
        {"graph_name": gname, "graph": graph_of(gname),
         "alg_name": aname if backend == "per-node" else f"{aname}@{backend}",
         "algorithm": aname, "backend": backend}
        for gname, aname, backend in extra
    )
    return cells


# --------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------- #

def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "commit": _git_commit(),
    }


def _time_cell(cell: Dict[str, Any], repeats: int) -> Dict[str, Any]:
    """Best-of-``repeats`` wall clock for one cell through the batch engine.

    Submits ``repeats + 1`` identical fixed-seed jobs in one in-process
    sweep and drops the first (warm-up: imports, lazy CSR build, ...).
    """
    from repro.simulator.batch import BatchJob, batch_run

    graph = cell["graph"]
    jobs = [BatchJob(graph, cell["algorithm"], seed=CELL_SEED,
                     label=f"{cell['graph_name']}/{cell['alg_name']}",
                     backend=cell["backend"])
            for _ in range(repeats + 1)]
    result = batch_run(jobs, master_seed=0, n_jobs=1, cache_dir=None)
    failures = result.failures
    if failures:
        raise RuntimeError(
            f"perf-gate cell {cell['graph_name']}/{cell['alg_name']} "
            f"failed: {failures[0].error}"
        )
    timed = result.outcomes[1:]  # drop the warm-up repetition
    best = min(o.seconds for o in timed)
    metrics = timed[0].metrics
    rounds = metrics.rounds if metrics is not None else 0
    messages = metrics.messages if metrics is not None else 0
    return {
        "graph": cell["graph_name"],
        "algorithm": cell["alg_name"],
        "backend": cell["backend"],
        "n": graph.n,
        "m": graph.m,
        "seconds": best,
        "rounds": rounds,
        "messages": messages,
        "rounds_per_sec": rounds / best if best > 0 else 0.0,
        "messages_per_sec": messages / best if best > 0 else 0.0,
        "weight": timed[0].weight,
    }


def run_perf_gate(matrix: str = "full", repeats: int = 3) -> Dict[str, Any]:
    """Measure every cell of ``matrix`` and return the report document."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    cells = [_time_cell(cell, repeats) for cell in matrix_cells(matrix)]
    return {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "matrix": matrix,
        "repeats": repeats,
        "cell_seed": CELL_SEED,
        "env": _environment(),
        "cells": cells,
    }


# --------------------------------------------------------------------- #
# the gate
# --------------------------------------------------------------------- #

def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = 1.5) -> Tuple[List[Dict[str, Any]], bool]:
    """Match cells by (graph, algorithm) and flag slowdowns.

    A cell **fails** when ``current.seconds > baseline.seconds *
    tolerance``.  Cells present on only one side are reported but never
    fail the gate (the tiny CI matrix is a strict subset of the full
    one).  Returns ``(rows, ok)``.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    base_by_key = {(c["graph"], c["algorithm"]): c
                   for c in baseline.get("cells", [])}
    rows: List[Dict[str, Any]] = []
    ok = True
    for cell in current.get("cells", []):
        key = (cell["graph"], cell["algorithm"])
        base = base_by_key.pop(key, None)
        if base is None:
            rows.append({"graph": key[0], "algorithm": key[1],
                         "status": "new", "seconds": cell["seconds"],
                         "baseline_seconds": None, "ratio": None})
            continue
        ratio = (cell["seconds"] / base["seconds"]
                 if base["seconds"] > 0 else float("inf"))
        failed = ratio > tolerance
        ok = ok and not failed
        rows.append({
            "graph": key[0],
            "algorithm": key[1],
            "status": "FAIL" if failed else "ok",
            "seconds": cell["seconds"],
            "baseline_seconds": base["seconds"],
            "ratio": ratio,
        })
    for key in sorted(base_by_key):
        rows.append({"graph": key[0], "algorithm": key[1],
                     "status": "missing", "seconds": None,
                     "baseline_seconds": base_by_key[key]["seconds"],
                     "ratio": None})
    return rows, ok


def render_report(doc: Dict[str, Any]) -> str:
    lines = [
        f"perf gate — matrix={doc['matrix']} repeats={doc['repeats']} "
        f"commit={doc['env'].get('commit') or '?'}",
        f"{'cell':<22} {'n':>5} {'m':>6} {'ms':>9} "
        f"{'rounds/s':>10} {'msgs/s':>12}",
    ]
    for c in doc["cells"]:
        lines.append(
            f"{c['graph'] + '/' + c['algorithm']:<22} {c['n']:>5} {c['m']:>6} "
            f"{c['seconds'] * 1e3:>9.2f} {c['rounds_per_sec']:>10.0f} "
            f"{c['messages_per_sec']:>12.0f}"
        )
    return "\n".join(lines)


def render_comparison(rows: List[Dict[str, Any]], tolerance: float) -> str:
    lines = [
        f"gate vs baseline (tolerance {tolerance:g}x)",
        f"{'cell':<22} {'ms':>9} {'base ms':>9} {'ratio':>7}  status",
    ]
    for r in rows:
        ms = "-" if r["seconds"] is None else f"{r['seconds'] * 1e3:.2f}"
        base = ("-" if r["baseline_seconds"] is None
                else f"{r['baseline_seconds'] * 1e3:.2f}")
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.2f}"
        lines.append(
            f"{r['graph'] + '/' + r['algorithm']:<22} {ms:>9} {base:>9} "
            f"{ratio:>7}  {r['status']}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# CLI plumbing (shared by `repro bench` and benchmarks/perf_gate.py)
# --------------------------------------------------------------------- #

def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not a perf-gate report (schema "
            f"{doc.get('schema')!r}, expected {SCHEMA!r})"
        )
    return doc


def write_report(doc: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_gate(*, matrix: str, repeats: int, out: Optional[str],
             baseline: Optional[str], tolerance: float,
             as_json: bool = False) -> int:
    """Measure, optionally persist, optionally gate.  Returns exit code."""
    doc = run_perf_gate(matrix=matrix, repeats=repeats)
    if out:
        write_report(doc, out)
    if as_json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(render_report(doc))
    if baseline is None:
        return 0
    try:
        base_doc = load_report(baseline)
    except FileNotFoundError:
        print(f"baseline {baseline!r} not found; gate skipped "
              f"(write one with --out)")
        return 0
    except ValueError as exc:
        print(str(exc))
        return 2
    rows, ok = compare_reports(doc, base_doc, tolerance=tolerance)
    print()
    print(render_comparison(rows, tolerance))
    if not ok:
        print("PERF GATE FAILED")
        return 1
    print("perf gate passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="perf_gate",
        description="Time the simulator hot path over a fixed cell matrix "
                    "and gate against a committed baseline.",
    )
    add_bench_arguments(parser)
    args = parser.parse_args(argv)
    return run_gate(matrix=resolve_matrix(args),
                    repeats=args.repeats, out=args.out,
                    baseline=args.baseline, tolerance=args.tolerance,
                    as_json=args.json)


def resolve_matrix(args: Any) -> str:
    """``--matrix`` wins; ``--tiny`` stays as the legacy spelling."""
    if getattr(args, "matrix", None):
        return args.matrix
    return "tiny" if args.tiny else "full"


def add_bench_arguments(parser: Any) -> None:
    """Shared flag set for ``repro bench`` and ``benchmarks/perf_gate.py``."""
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke matrix (gnp60 only) instead of the "
                             "full generator-zoo matrix")
    parser.add_argument("--matrix", choices=list(MATRICES), default=None,
                        help="explicit cell matrix (overrides --tiny); "
                             "'scale' is the 10^5-node backend tier, "
                             "'columnar-tiny' its two-cell CI subset")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per cell (best-of, after a "
                             "discarded warm-up run)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help=f"write the measurement as a report JSON "
                             f"(commit as {BASELINE_FILE} to set the "
                             f"baseline)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="gate against this report; exit 1 if any "
                             "matched cell slowed beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=1.5,
                        help="allowed slowdown factor per cell "
                             "(default 1.5; CI uses 3.0)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of a table")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
