"""Benchmark of ``repro serve``: one workload, end to end or traced.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload hot-skew --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads in turn.  A run is three
rounds; each starts the unmodified server from ``src/`` with a fresh
cache, prepares the workload, drives a fixed number of operations over
one keep-alive connection in a closed loop, and checks every output.
The last line of standard output is the result as one JSON object.
With ``--trace 0`` it holds the end-to-end metrics; with ``--trace 1``
one round runs on the plain server and one on the traced server (see
``launcher.py``), and the result holds the per-layer metrics.  Exit
code 0 means every output check passed; 1 means a check failed (the
result is still printed); 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy

from client import Connection, Record, closed_loop
from spans import fold
from sut import Server
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run is this many rounds, each on a fresh server with a fresh cache:
# setup_s is the median of the rounds' set-ups, and no server lives
# through more than a third of the run's operations (delta-chain's
# server memory grows with every epoch).
ROUNDS = 3
# throughput_rps is the median rate over this many equal windows of
# consecutive operations per round, so one stall moves one window.
WINDOWS = 10
HOST = "127.0.0.1"


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (a failed operation is
    ``inf``, so it misses every latency limit)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """Samples above the nearest-rank ``pct`` percentile of ``count``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def host_record(command: List[str]) -> Dict[str, Any]:
    commit = None   # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(),
            "client_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "src_sha256": digest.hexdigest(), "server_command": command}


class Round:
    """One fresh server: set up, then a fixed number of timed operations,
    then the output checks on what the client recorded."""

    def __init__(self, workload, work: Path, tag: str, ops: int,
                 cap_s: float, traced: bool) -> None:
        self.ops = ops
        self.spans = work / f"{tag}-spans.json" if traced else None
        t0 = time.perf_counter()
        server = Server(ROOT, work / f"{tag}-cache", self.spans)
        try:
            conn = Connection(HOST, server.port)
            try:
                workload.prepare(conn)
            finally:
                conn.close()
            self.setup_s = time.perf_counter() - t0
            self.command = server.command
            self.records, self.start, self.end = closed_loop(
                HOST, server.port, workload.stream(ops),
                time.perf_counter() + cap_s)
            self.peak_rss_mb = server.peak_rss_mb()
            server.stop()
        finally:
            server.kill()
        self.ok = [r for r in self.records if r.ok]
        t0 = time.perf_counter()
        self.failures = workload.check(self.records)
        self.check_s = time.perf_counter() - t0

    @property
    def completed(self) -> int:
        return len(self.ok) - len(self.failures)

    def done(self, pos: int) -> bool:
        return self.records[pos].ok and pos not in self.failures

    def latencies_ms(self) -> List[float]:
        """One latency per planned operation; anything that did not
        complete correctly (or at all) is ``inf``."""
        out = [(r.end - r.start) * 1000.0 for pos, r in enumerate(self.records)
               if self.done(pos)]
        return out + [math.inf] * (self.ops - len(out))


def window_rates(records: List[Record], planned: int,
                 done: Callable[[int], bool]) -> List[float]:
    """Operations completed per second in each of ``WINDOWS`` equal runs
    of consecutive planned operations, timed from the start of a
    window's first operation to the end of its last; a window holding
    an operation that never ran reads 0."""
    rates = []
    for w in range(WINDOWS):
        lo, hi = w * planned // WINDOWS, (w + 1) * planned // WINDOWS
        if hi <= lo:
            continue
        if hi > len(records):
            rates.append(0.0)
            continue
        completed = sum(done(pos) for pos in range(lo, hi))
        rates.append(completed / (records[hi - 1].end - records[lo].start))
    return rates


def throughput(rounds: List[Round]) -> float:
    """Median over every round's windows of operations per second."""
    return statistics.median(
        v for r in rounds for v in window_rates(r.records, r.ops, r.done))


def mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(workload, rounds: List[Round]) -> Dict[str, Dict[str, Any]]:
    latencies = [v for r in rounds for v in r.latencies_ms()]
    print(f"tail_ms is p{workload.tail_pct:g} of {len(latencies)} operations "
          f"({beyond(len(latencies), workload.tail_pct)} beyond it)")
    print("per round, seconds of set-up / timed phase / output checks: "
          + ", ".join(f"{r.setup_s:.3f}/{r.end - r.start:.3f}/{r.check_s:.3f}"
                      for r in rounds))
    return {
        "setup_s": metric(statistics.median(r.setup_s for r in rounds), "s"),
        "throughput_rps": metric(throughput(rounds), "req/s"),
        "p50_ms": metric(percentile(latencies, 50.0), "ms"),
        "tail_ms": metric(percentile(latencies, workload.tail_pct), "ms"),
        "peak_rss_mb": metric(max(r.peak_rss_mb for r in rounds), "MB"),
    }


PER_LAYER_UNITS = {
    "server.parse_hit_ratio": "ratio", "server.response_kb": "KiB",
    "graphs.delta.apply_calls": "count", "engine.memory_hit_ratio": "ratio",
    "engine.coalesced_ratio": "ratio", "engine.batch_jobs": "count",
    "incremental.served_ratio": "ratio", "batch.disk_hit_ratio": "ratio",
    "core.rounds": "count", "core.messages": "count", "runner.calls": "count",
    "columnar.fallback_ratio": "ratio", "trace.overhead": "ratio",
}


def per_layer(workload, plain: Round, traced: Round) -> Dict[str, Dict[str, Any]]:
    with open(traced.spans, encoding="utf-8") as fh:
        doc = json.load(fh)
    values = fold(doc, traced.start, traced.end, max(1, traced.completed))
    reports = workload.reports(traced.ok)
    ops = max(1, len(traced.ok))
    values["server.response_kb"] = mean(
        [r.outcome.nbytes / 1024.0 for r in traced.ok])
    values["core.rounds"] = sum(r["rounds"] for r in reports) / ops
    values["core.messages"] = sum(r["messages"] for r in reports) / ops
    values["trace.overhead"] = (throughput([traced]) / throughput([plain])
                                if plain.completed else 0.0)
    return {name: metric(value, PER_LAYER_UNITS.get(name, "ms"))
            for name, value in sorted(values.items())}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload and print its result; returns the exit code."""
    workload = WORKLOADS[name](seed)
    ops = workload.op_count(seconds) // ROUNDS
    cap_s = 3 * seconds / ROUNDS + 20
    work = ROOT / ".servebench" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            plain = Round(workload, work, "plain", ops, cap_s, False)
            traced = Round(workload, work, "traced", ops, cap_s, True)
            metrics = per_layer(workload, plain, traced)
            rounds = [plain, traced]
        else:
            rounds = [Round(workload, work, f"round{i}", ops, cap_s, False)
                      for i in range(ROUNDS)]
            metrics = end_to_end(workload, rounds)
    except (OSError, RuntimeError) as exc:
        print(f"servebench: {name} could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it
    for r in rounds:
        for pos, reason in sorted(r.failures.items())[:10]:
            print(f"check failed: operation {pos}: {reason}", file=sys.stderr)
        for rec in r.records:
            if rec.error:
                print(f"operation {rec.index}: {rec.error}", file=sys.stderr)
    attempted = sum(r.ops for r in rounds)
    failed = attempted - sum(r.completed for r in rounds)
    print("host " + json.dumps(host_record(rounds[-1].command)))
    print(f"{name}: {workload.why}")
    for metric_name, m in metrics.items():
        print(f"  {metric_name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"servebench: no repro source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    # One request is in flight at a time, so the client and the server
    # never run at once: keep both (the server inherits this) on one CPU,
    # where handing a request over is a plain context switch instead of
    # waking an idle CPU, and leave the others to the rest of the host.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"servebench: running unpinned: {exc}", file=sys.stderr)
    # SIGTERM unwinds like an error, so no server outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
