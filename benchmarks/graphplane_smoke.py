"""Failure-safe `make graphplane-smoke` driver.

End-to-end exercise of the zero-copy graph plane through the real CLI,
the way CI runs it:

1. start ``repro serve --graph-store`` on an ephemeral port (parsed
   from its startup banner);
2. ``POST /v1/graphs`` a binary graph blob and assert the returned ref
   is the graph's fingerprint; describe it back header-only;
3. **byte identity**: solve the same request once with the graph in the
   body and once as a ``graph_ref``, and assert both envelope reports
   are identical to each other and to ``repro.api.solve``;
4. measure the ingest-once-solve-many cells (10^4- and 10^5-node
   graphs): fresh solves (distinct seeds) over one registered graph
   through the multi-MB-body path vs the ~200-byte ref path — the body
   path re-pays JSON graph parsing and worker-pool graph pickling on
   every request, the ref path attaches the shared CSR arena once —
   plus cached-repeat latencies and in-process JSON-parse vs
   store-attach timings; assert the ref path is at least
   ``--min-speedup`` (default 5x) faster on the 10^5 fresh-solve cell;
5. evict the ref and assert a subsequent ref solve 404s;
6. SIGTERM the server, assert a clean drain, and assert its shm arena
   segments are gone from ``/dev/shm``;
7. crash-reclaim: boot a second server, register a graph, ``SIGKILL``
   it, and assert the resource tracker unlinks the orphaned segment and
   that its orphaned pool workers exit on ``SIGTERM``.

All scratch state (server cache, graph store, logs, the benchmark
document) lives in a temporary directory removed in a ``finally``
block.  The measured document is copied to ``BENCH_graphplane.json`` in
the working directory only when ``--keep-bench`` is passed (CI uploads
it as an artifact next to the committed baseline).

Run as ``python benchmarks/graphplane_smoke.py`` (the Makefile sets
``PYTHONPATH=src``); exits non-zero with diagnostics on any violation.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from repro.service.http import fetch

BANNER = re.compile(r"repro-serve listening on http://([0-9.]+):(\d+)")


def _start_server(scratch: str, tag: str = "serve"):
    log_path = os.path.join(scratch, f"{tag}.log")
    log = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--memory-cache", "256",
         "--cache", os.path.join(scratch, f"cache-{tag}"),
         "--graph-store", os.path.join(scratch, f"graphs-{tag}")],
        stdout=log, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        with open(log_path, encoding="utf-8") as fh:
            match = BANNER.search(fh.read())
        if match:
            return proc, log, log_path, match.group(1), int(match.group(2))
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    log.close()
    with open(log_path, encoding="utf-8") as fh:
        raise AssertionError(f"server did not start:\n{fh.read()}")


def _gone(pid: int) -> bool:
    """Exited: no /proc entry, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            stat = fh.read()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


def _pool_workers(pid: int) -> list:
    """Live children of ``pid`` running its own image: its process-pool
    workers, not the resource tracker it spawned.  The pool forks from
    the dispatch thread, so every thread's ``children`` file is read.
    A thread or child that exits during the scan is skipped."""
    def cmdline(p: int) -> bytes:
        with open(f"/proc/{p}/cmdline", "rb") as fh:
            return fh.read()

    try:
        image = cmdline(pid)
    except (FileNotFoundError, ProcessLookupError):
        return []
    children = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path, encoding="utf-8") as fh:
                children.update(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    workers = []
    for child in sorted(children):
        try:
            same = cmdline(child) == image
        except (FileNotFoundError, ProcessLookupError):
            continue
        if same and not _gone(child):
            workers.append(child)
    return workers


def _shm_path(fingerprint: str) -> str:
    from repro.graphs.store import shm_segment_name

    return os.path.join("/dev/shm", shm_segment_name(fingerprint))


# --------------------------------------------------------------------- #
# smoke: registration, byte identity, eviction
# --------------------------------------------------------------------- #

def _check_registry_and_byte_identity(host: str, port: int) -> str:
    from repro.api import SolveRequest, solve
    from repro.graphs import gnp, uniform_weights
    from repro.graphs import io as graph_io

    graph = uniform_weights(gnp(30, 0.12, seed=5), 1, 20, seed=6)
    fp = graph.fingerprint()

    status, reg = fetch(host, port, "POST", "/v1/graphs",
                        graph_io.to_bytes(graph))
    assert status == 200, (status, reg)
    assert reg["graph_ref"] == fp, reg
    assert reg["n"] == graph.n and reg["m"] == graph.m, reg

    status, info = fetch(host, port, "GET", f"/v1/graphs/{fp}")
    assert status == 200 and info["n"] == graph.n, (status, info)

    body_doc = SolveRequest(graph=graph, algorithm="thm2", seed=7,
                            params={"eps": 0.5}).to_doc()
    ref_doc = dict(body_doc)
    ref_doc["graph"] = {"ref": fp}

    s1, env1 = fetch(host, port, "POST", "/v1/solve",
                     json.dumps(body_doc).encode())
    s2, env2 = fetch(host, port, "POST", "/v1/solve",
                     json.dumps(ref_doc).encode())
    assert s1 == s2 == 200, (s1, s2, env1, env2)
    assert env1["report"] == env2["report"], (
        "graph_ref solve diverged from body solve:\n"
        f"{env1['report']}\n{env2['report']}")
    wire = json.dumps(env1["report"], sort_keys=True, separators=(",", ":"))
    direct = solve(graph, "thm2", seed=7, eps=0.5).to_json()
    assert wire == direct, (
        f"served report diverged from repro.api.solve:\n{wire}\n{direct}")

    status, out = fetch(host, port, "DELETE", f"/v1/graphs/{fp}")
    assert status == 200 and out["evicted"] is True, (status, out)
    status, err = fetch(host, port, "POST", "/v1/solve",
                        json.dumps(ref_doc).encode())
    assert status == 404, (
        f"evicted ref still solvable (status {status}): {err}")
    return fp


# --------------------------------------------------------------------- #
# measured cells: ingest-once-solve-many vs solve-with-body
# --------------------------------------------------------------------- #

def _build_cell_graph(n: int):
    from repro.graphs import random_tree, uniform_weights

    return uniform_weights(random_tree(n, seed=1), 1, 100, seed=2)


def _percentiles(samples: list) -> dict:
    ordered = sorted(samples)
    return {
        "p50_s": statistics.median(ordered),
        "min_s": ordered[0],
        "max_s": ordered[-1],
        "mean_s": statistics.fmean(ordered),
    }


def _solve_docs(graph, fp: str, seed: int):
    from repro.api import SolveRequest

    body_doc = SolveRequest(graph=graph, algorithm="mis-det", seed=seed,
                            backend="columnar").to_doc()
    ref_doc = dict(body_doc)
    ref_doc["graph"] = {"ref": fp}
    return json.dumps(body_doc).encode(), json.dumps(ref_doc).encode()


def _measure_cell(host: str, port: int, n: int, repeats: int) -> dict:
    """One ingest-once-solve-many cell for an ``n``-node graph.

    The gated scenario is *fresh* solves: ``repeats`` requests with
    distinct seeds against the same graph.  The body path ships and
    re-parses the multi-MB JSON graph and re-pickles it to the worker
    pool on every request; the ref path ships a ~200-byte envelope and
    attaches the shared CSR arena once.  (Disjoint seed ranges keep the
    two paths from warming each other's report cache — same seed means
    same request key on both paths, by design.)

    Cached repeats of one request are also recorded for context — there
    the identical response envelope dominates both paths, so the
    graph-plane win is smaller.  The cold ref solve's stage breakdown
    (``graph_attach`` vs ``solve``) is recorded from the served
    envelope.
    """
    from repro.graphs import io as graph_io

    graph = _build_cell_graph(n)
    fp = graph.fingerprint()
    blob_bytes = graph_io.to_bytes(graph)
    body, ref_body = _solve_docs(graph, fp, seed=7)

    t0 = time.perf_counter()
    status, reg = fetch(host, port, "POST", "/v1/graphs", blob_bytes)
    ingest_s = time.perf_counter() - t0
    assert status == 200 and reg["graph_ref"] == fp, (status, reg)

    t0 = time.perf_counter()
    status, cold_env = fetch(host, port, "POST", "/v1/solve", ref_body)
    cold_ref_s = time.perf_counter() - t0
    assert status == 200, (status, cold_env)

    t0 = time.perf_counter()
    status, warm_env = fetch(host, port, "POST", "/v1/solve", body)
    warm_body_s = time.perf_counter() - t0
    assert status == 200, (status, warm_env)
    assert warm_env["report"] == cold_env["report"], (
        f"body/ref reports diverged on the {n}-node cell")
    assert warm_env["served"]["cached"], warm_env["served"]

    # Fresh solves: every request has a previously unseen seed, so every
    # request executes the solver — what differs between the paths is
    # purely how the graph reaches it.
    fresh_body, fresh_ref = [], []
    for i in range(repeats):
        fresh, _ = _solve_docs(graph, fp, seed=100 + i)
        t0 = time.perf_counter()
        status, env = fetch(host, port, "POST", "/v1/solve", fresh)
        fresh_body.append(time.perf_counter() - t0)
        assert status == 200 and not env["served"]["cached"], env["served"]
    for i in range(repeats):
        _, fresh = _solve_docs(graph, fp, seed=200 + i)
        t0 = time.perf_counter()
        status, env = fetch(host, port, "POST", "/v1/solve", fresh)
        fresh_ref.append(time.perf_counter() - t0)
        assert status == 200 and not env["served"]["cached"], env["served"]

    # Cached repeats of one request (context, not gated): both paths are
    # memory-cache hits and return the same response envelope.
    cached_body, cached_ref = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        status, env = fetch(host, port, "POST", "/v1/solve", body)
        cached_body.append(time.perf_counter() - t0)
        assert status == 200 and env["served"]["cached"], env["served"]
        t0 = time.perf_counter()
        status, env = fetch(host, port, "POST", "/v1/solve", ref_body)
        cached_ref.append(time.perf_counter() - t0)
        assert status == 200 and env["served"]["cached"], env["served"]

    # In-process companion numbers: rebuilding the graph from its JSON
    # document (what every body solve used to pay) vs attaching the CSR
    # arrays zero-copy from a fresh store over the same root (mmap path;
    # the store's own shm segments would register in this process's
    # resource tracker and warn at exit).
    t0 = time.perf_counter()
    rebuilt = graph_io.from_doc(json.loads(body)["graph"]["inline"])
    parse_s = time.perf_counter() - t0
    assert rebuilt.fingerprint() == fp

    from repro.graphs.store import GraphStore

    store_root = tempfile.mkdtemp(prefix="graphplane-cell-")
    try:
        with GraphStore(store_root, use_shm=False) as writer:
            writer.put(graph)
        with GraphStore(store_root, use_shm=False) as reader:
            t0 = time.perf_counter()
            attached = reader.attach(fp)
            attach_s = time.perf_counter() - t0
            assert attached.fingerprint() == fp
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    fresh_body_stats = _percentiles(fresh_body)
    fresh_ref_stats = _percentiles(fresh_ref)
    return {
        "n": graph.n,
        "m": graph.m,
        "body_bytes": len(body),
        "ref_bytes": len(ref_body),
        "blob_bytes": len(blob_bytes),
        "ingest_s": ingest_s,
        "cold_ref_solve_s": cold_ref_s,
        "cold_ref_stages": cold_env["served"].get("stages", {}),
        "warm_body_first_s": warm_body_s,
        "repeats": repeats,
        "fresh_body": fresh_body_stats,
        "fresh_ref": fresh_ref_stats,
        "speedup_p50": (fresh_body_stats["p50_s"]
                        / max(fresh_ref_stats["p50_s"], 1e-9)),
        "cached_body": _percentiles(cached_body),
        "cached_ref": _percentiles(cached_ref),
        "inprocess": {
            "json_parse_s": parse_s,
            "store_attach_s": attach_s,
            "speedup": parse_s / max(attach_s, 1e-9),
        },
    }


# --------------------------------------------------------------------- #
# crash reclaim
# --------------------------------------------------------------------- #

def _check_crash_reclaims_arena(scratch: str) -> bool:
    """SIGKILL a server mid-flight; its shm segments must still vanish
    (the stdlib resource tracker outlives the process and unlinks what
    the dead store owned), and its orphaned pool workers must exit on
    SIGTERM.  Returns False when /dev/shm is unavailable (mmap-only
    platforms have nothing to leak); skips the pool-worker part, with a
    note, where the kernel has no ``/proc/<pid>/task/*/children``."""
    if not os.path.isdir("/dev/shm"):
        return False
    track_workers = bool(glob.glob("/proc/self/task/*/children"))
    if not track_workers:
        print("crash reclaim: no /proc/<pid>/task/*/children here, pool "
              "workers not checked", flush=True)
    from repro.graphs import gnp, uniform_weights
    from repro.graphs import io as graph_io

    graph = uniform_weights(gnp(24, 0.2, seed=8), 1, 9, seed=9)
    proc, log, log_path, host, port = _start_server(scratch, tag="crash")
    workers: list = []
    try:
        status, reg = fetch(host, port, "POST", "/v1/graphs",
                            graph_io.to_bytes(graph))
        assert status == 200, (status, reg)
        seg = _shm_path(graph.fingerprint())
        assert os.path.exists(seg), f"no arena segment exported at {seg}"
        if track_workers:
            # /v1/ready answers 200 once every pool worker has forked.
            deadline = time.monotonic() + 60.0
            while fetch(host, port, "GET", "/v1/ready")[0] != 200:
                assert time.monotonic() < deadline, "server never ready"
                time.sleep(0.1)
            workers = _pool_workers(proc.pid)
            assert len(workers) == 2, (
                f"expected 2 pool workers, found {workers}; server log:\n"
                + open(log_path, encoding="utf-8").read())
    finally:
        proc.kill()
        proc.wait(timeout=10.0)
        log.close()
    for pid in workers:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGTERM)
    deadline = time.monotonic() + 5.0
    while not all(_gone(pid) for pid in workers):
        if time.monotonic() > deadline:
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            raise AssertionError(
                f"pool workers {workers} of the SIGKILLed server outlived "
                f"SIGTERM by 5 s; server log:\n"
                + open(log_path, encoding="utf-8").read())
        time.sleep(0.1)
    if workers:
        print("crash reclaim: the SIGKILLed server's pool workers exited "
              "on SIGTERM", flush=True)
    deadline = time.monotonic() + 15.0
    seg = _shm_path(graph.fingerprint())
    while time.monotonic() < deadline:
        if not os.path.exists(seg):
            return True
        time.sleep(0.2)
    raise AssertionError(
        f"arena segment {seg} leaked after SIGKILL (resource tracker "
        f"did not reclaim it); server log:\n"
        + open(log_path, encoding="utf-8").read())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=10,
                        help="measured solves per path per cell")
    parser.add_argument("--cells", default="10000,100000",
                        help="comma-separated node counts")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required ref-vs-body repeat speedup on the "
                             "largest cell")
    parser.add_argument("--keep-bench", action="store_true",
                        help="copy the bench doc to ./BENCH_graphplane.json")
    args = parser.parse_args()
    cells = [int(x) for x in args.cells.split(",") if x]

    scratch = tempfile.mkdtemp(prefix="graphplane-smoke-")
    proc = log = None
    try:
        proc, log, log_path, host, port = _start_server(scratch)

        status, doc = fetch(host, port, "GET", "/v1/health")
        assert status == 200 and doc["status"] == "ok", (status, doc)

        smoke_fp = _check_registry_and_byte_identity(host, port)
        print("graph plane smoke ok: register/describe/solve-by-ref/"
              "evict byte-identical", flush=True)

        measured = []
        for n in cells:
            cell = _measure_cell(host, port, n, args.repeats)
            measured.append(cell)
            print(f"cell n={cell['n']}: ingest {cell['ingest_s'] * 1e3:.1f} ms "
                  f"({cell['blob_bytes']} B blob), fresh-solve p50 "
                  f"body {cell['fresh_body']['p50_s'] * 1e3:.1f} ms "
                  f"({cell['body_bytes']} B) vs ref "
                  f"{cell['fresh_ref']['p50_s'] * 1e3:.1f} ms "
                  f"({cell['ref_bytes']} B) -> {cell['speedup_p50']:.1f}x; "
                  f"cached p50 {cell['cached_body']['p50_s'] * 1e3:.2f} vs "
                  f"{cell['cached_ref']['p50_s'] * 1e3:.2f} ms; "
                  f"in-process parse {cell['inprocess']['json_parse_s'] * 1e3:.0f} ms "
                  f"vs attach {cell['inprocess']['store_attach_s'] * 1e3:.2f} ms",
                  flush=True)
        gate = measured[-1]
        assert gate["speedup_p50"] >= args.min_speedup, (
            f"ref path only {gate['speedup_p50']:.2f}x faster than body "
            f"path on the {gate['n']}-node cell "
            f"(required {args.min_speedup:.1f}x): {gate}")

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60.0)
        log.close()
        log_text = open(log_path, encoding="utf-8").read()
        assert rc == 0, f"server exit {rc}:\n{log_text}"
        assert "repro-serve drained" in log_text, log_text
        if os.path.isdir("/dev/shm"):
            for cell in measured:
                graph = _build_cell_graph(cell["n"])
                seg = _shm_path(graph.fingerprint())
                assert not os.path.exists(seg), (
                    f"arena segment {seg} leaked after drain")
            assert not os.path.exists(_shm_path(smoke_fp)), (
                "smoke graph arena segment leaked after drain")

        crash_checked = _check_crash_reclaims_arena(scratch)
        if crash_checked:
            print("crash reclaim ok: SIGKILLed server's arena segments "
                  "unlinked by the resource tracker", flush=True)

        bench = {
            "schema": "v1",
            "kind": "graphplane",
            "config": {
                "cells": cells,
                "repeats": args.repeats,
                "min_speedup": args.min_speedup,
                "algorithm": "mis-det",
                "backend": "columnar",
            },
            "host": {
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
            },
            "cells": measured,
            "drain_clean": True,
            "crash_reclaim_checked": crash_checked,
        }
        bench_path = os.path.join(scratch, "bench_graphplane.json")
        with open(bench_path, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if args.keep_bench:
            shutil.copy(bench_path, "BENCH_graphplane.json")
        print(f"graphplane-smoke ok: {len(measured)} cells, largest "
              f"{gate['n']} nodes at {gate['speedup_p50']:.1f}x ref-vs-body "
              f"repeat speedup, drain clean", flush=True)
        return 0
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
        if log is not None and not log.closed:
            log.close()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
