"""Failure-safe `make delta-smoke` driver.

End-to-end exercise of the delta plane against an in-process
:class:`~repro.service.SolverEngine` (memory cache on — the tier the
incremental path derives from), the way a warm worker serves it:

1. build the 10^5-node cell, register it, and run the parent's full
   solve once so its report sits in the memory tier;
2. **byte identity**: a weight-only delta-form solve must be served
   incrementally (``solve_mode == "incremental"``) and its report must
   be byte-identical to ``repro.api.solve`` of the equivalent
   from-scratch child — the acceptance pin;
3. measure the re-solve cells at <= 1% edit distance: per epoch, a
   fresh weight-only edit script is (a) applied and re-solved in full
   through the engine (register child, solve by ref — what a
   delta-unaware service would do on every mutation) and (b) submitted
   as a delta-form request served from the parent's cached report; the
   incremental path must be at least ``--min-speedup`` (default 3x)
   faster on the p50;
4. sanity: a topology edit falls back to the full path
   (``solve_mode == "full"``), so the speedup never comes at the cost
   of soundness.

All scratch state (graph store, result cache, the measured document)
lives in a temporary directory removed in a ``finally`` block.  The
document is copied to the gitignored ``bench_delta_current.json`` in the
working directory only when ``--keep-bench`` is passed (CI uploads it as
an artifact).

Run as ``python benchmarks/delta_smoke.py`` (the Makefile sets
``PYTHONPATH=src``); exits non-zero with diagnostics on any violation.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def _summary(samples):
    return {
        "p50_s": statistics.median(samples),
        "mean_s": statistics.fmean(samples),
        "min_s": min(samples),
        "max_s": max(samples),
    }


def _edit_script(graph, rng, n_ops):
    """A weight-only edit script touching ``n_ops`` distinct nodes."""
    nodes = rng.sample(list(graph.nodes), n_ops)
    return [["set_weight", v, float(rng.randint(1, 50))]
            for v in nodes]


async def _run_cell(args, scratch):
    from repro.api import SolveRequest, solve
    from repro.graphs import gnp, uniform_weights
    from repro.graphs.delta import GraphDelta, apply_delta
    from repro.service import SolverEngine

    n, p = args.nodes, args.degree / args.nodes
    print(f"[delta-smoke] building gnp({n}, {p:g}) ...", flush=True)
    parent = uniform_weights(gnp(n, p, seed=11), 1, 20, seed=12)
    n_ops = max(1, int(n * args.edit_distance))
    print(f"[delta-smoke] n={parent.n} m={parent.m} "
          f"edit_ops={n_ops} ({100 * args.edit_distance:.2g}% of nodes)",
          flush=True)

    engine = SolverEngine(workers=2, memory_cache=64,
                          cache_dir=str(Path(scratch) / "cache"),
                          graph_store=str(Path(scratch) / "graphs"))
    await engine.start()
    try:
        store = engine.graph_store
        parent_ref = store.put(parent)

        def request_for(graph_doc):
            return SolveRequest.from_doc(
                {"schema": "v2", "graph": graph_doc,
                 "algorithm": args.algorithm, "seed": args.seed},
                store=store)

        # -- 1. warm the parent's report into the memory tier --------- #
        t0 = time.perf_counter()
        warm = await engine.submit(request_for({"ref": parent_ref.ref}))
        warm_s = time.perf_counter() - t0
        assert warm.report.ok, warm.report.error
        print(f"[delta-smoke] parent full solve: {warm_s:.3f}s "
              f"(|IS|={len(warm.report.independent_set)})", flush=True)

        # -- 2. byte identity: incremental == from-scratch ------------ #
        rng = random.Random(args.seed)
        ops = _edit_script(parent, rng, n_ops)
        child = apply_delta(parent, GraphDelta.of(ops))
        served = await engine.submit(request_for(
            {"delta": {"parent": parent_ref.ref, "ops": ops}}))
        if served.solve_mode != "incremental":
            raise AssertionError(
                f"weight-only delta took mode {served.solve_mode!r}, "
                "expected incremental (is the memory cache on?)")
        local = solve(child, args.algorithm, seed=args.seed)
        if served.report.to_json() != local.to_json():
            raise AssertionError(
                "incremental report is not byte-identical to the "
                "from-scratch solve of the equivalent child")
        print("[delta-smoke] byte identity: incremental == from-scratch "
              f"(dirty_frontier={served.dirty_frontier})", flush=True)

        # -- 3. the re-solve cells ------------------------------------ #
        full_s, inc_s, frontiers = [], [], []
        for epoch in range(args.epochs):
            # Full path: what a delta-unaware service pays per edit —
            # register the edited graph, re-solve it from scratch.
            # Distinct scripts per epoch so nothing cache-hits.
            ops_full = _edit_script(parent, rng, n_ops)
            t0 = time.perf_counter()
            child_ref = store.put_delta(parent_ref.ref,
                                        GraphDelta.of(ops_full))
            out = await engine.submit(request_for({"ref": child_ref.ref}))
            full_s.append(time.perf_counter() - t0)
            assert out.report.ok and out.solve_mode == ""

            # Incremental path: the same class of edit, delta-form.
            ops_inc = _edit_script(parent, rng, n_ops)
            t0 = time.perf_counter()
            out = await engine.submit(request_for(
                {"delta": {"parent": parent_ref.ref, "ops": ops_inc}}))
            inc_s.append(time.perf_counter() - t0)
            assert out.report.ok and out.solve_mode == "incremental"
            frontiers.append(out.dirty_frontier)
            print(f"[delta-smoke] epoch {epoch}: full={full_s[-1]:.3f}s "
                  f"incremental={inc_s[-1]:.4f}s", flush=True)

        # -- 4. topology edits stay sound ----------------------------- #
        u = parent.nodes[0]
        v = next(w for w in parent.nodes
                 if w != u and w not in parent.neighbors(u))
        out = await engine.submit(request_for(
            {"delta": {"parent": parent_ref.ref,
                       "ops": [["add_edge", u, v]]}}))
        assert out.solve_mode == "full", (
            f"topology edit served as {out.solve_mode!r}")
        print("[delta-smoke] topology edit fell back to the full path",
              flush=True)

        speedup = statistics.median(full_s) / statistics.median(inc_s)
        snapshot = engine.metrics_snapshot()
        return {
            "schema": "v1",
            "kind": "delta_smoke",
            "host": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "system": platform.system(),
            },
            "config": {
                "n": parent.n,
                "m": parent.m,
                "algorithm": args.algorithm,
                "seed": args.seed,
                "epochs": args.epochs,
                "edit_ops": n_ops,
                "edit_distance": args.edit_distance,
                "min_speedup": args.min_speedup,
            },
            "parent_full_solve_s": warm_s,
            "full": _summary(full_s),
            "incremental": _summary(inc_s),
            "speedup_p50": speedup,
            "dirty_frontier": {
                "min": min(frontiers),
                "max": max(frontiers),
                "mean": statistics.fmean(frontiers),
            },
            "incremental_served": snapshot["incremental_served"],
            "incremental_fallback": snapshot["incremental_fallback"],
            "byte_identical": True,
        }
    finally:
        await engine.aclose()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=100_000,
                        help="cell size (default: the 10^5-node cell)")
    parser.add_argument("--degree", type=float, default=6.0,
                        help="expected average degree of the gnp cell")
    parser.add_argument("--edit-distance", type=float, default=0.01,
                        help="fraction of nodes each edit script touches")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--algorithm", default="mis-luby",
                        help="must be weight-oblivious for the "
                        "incremental path")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--keep-bench", action="store_true",
                        help="copy the measured document to "
                        "bench_delta_current.json in the working directory")
    args = parser.parse_args(argv)

    scratch = tempfile.mkdtemp(prefix="delta_smoke_")
    try:
        doc = asyncio.run(_run_cell(args, scratch))
        out_path = Path(scratch) / "BENCH_delta.json"
        out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"[delta-smoke] speedup p50: {doc['speedup_p50']:.1f}x "
              f"(full {doc['full']['p50_s']:.3f}s vs incremental "
              f"{doc['incremental']['p50_s']:.4f}s)", flush=True)
        if args.keep_bench:
            shutil.copy(out_path, "bench_delta_current.json")
            print("[delta-smoke] wrote bench_delta_current.json", flush=True)
        if doc["speedup_p50"] < args.min_speedup:
            print(f"[delta-smoke] FAIL: speedup {doc['speedup_p50']:.2f}x "
                  f"< required {args.min_speedup}x", file=sys.stderr)
            return 1
        print("[delta-smoke] OK", flush=True)
        return 0
    except AssertionError as exc:
        print(f"[delta-smoke] FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
