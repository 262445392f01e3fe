"""Failure-safe `make fleet-smoke` driver.

End-to-end exercise of the sharded solver fleet through the real CLI,
the way CI runs it:

1. start ``repro fleet`` (router + 2 worker subprocesses) on an
   ephemeral port (parsed from its startup banner by
   :class:`~repro.service.fleet.supervisor.ServiceProcess`, the launcher
   the fleet starts its own workers with) with a fresh shared disk
   cache;
2. check ``GET /v1/ready`` (all shards warm) and ``GET /v1/health``
   (both workers alive, worker_id/backend in each payload);
3. **coalescing survives sharding**: fire concurrent duplicate requests
   for a handful of unique fingerprints through the router and assert
   the fleet-wide ``executed`` counter equals the number of *unique*
   fingerprints — every duplicate was coalesced or served by a cache
   tier on the single worker that owns its shard;
4. assert one fixed-seed routed response is byte-identical to
   ``repro.api.solve``;
5. run ``repro loadgen --arrival poisson`` (open loop, seeded) against
   the fleet, which re-checks report consistency and writes the
   latency/goodput document;
6. SIGTERM the router and assert the whole fleet drains and exits 0.

All scratch state (worker caches, logs, the benchmark document) lives
in a temporary directory removed in a ``finally`` block.  The benchmark
document is copied to ``bench_fleet_current.json`` in the working
directory only when ``--keep-bench`` is passed (CI uploads it as the
open-loop artifact).

Run as ``python benchmarks/fleet_smoke.py`` (the Makefile sets
``PYTHONPATH=src``); exits non-zero with diagnostics on any violation.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile

from repro.service.fleet.supervisor import ServiceProcess
from repro.service.http import fetch


def _request_bodies(unique: int) -> list:
    from repro.api import SolveRequest
    from repro.graphs import gnp, uniform_weights

    graph = uniform_weights(gnp(30, 0.12, seed=3), 1, 20, seed=4)
    return [
        SolveRequest(graph=graph, algorithm="thm2", seed=seed,
                     params={"eps": 0.5}).to_json().encode()
        for seed in range(unique)
    ]


def _check_coalescing_survives_sharding(host: str, port: int) -> dict:
    """K unique fingerprints x N concurrent duplicates -> K executions."""
    unique, dup = 3, 6
    bodies = [body for body in _request_bodies(unique) for _ in range(dup)]
    with concurrent.futures.ThreadPoolExecutor(max_workers=len(bodies)) as ex:
        results = list(ex.map(
            lambda b: fetch(host, port, "POST", "/v1/solve", b), bodies))
    for status, doc in results:
        assert status == 200, (status, doc)
    status, metrics = fetch(host, port, "GET", "/v1/metrics")
    assert status == 200, (status, metrics)
    assert metrics["executed"] == unique, (
        f"coalescing broke across shards: {unique} unique fingerprints but "
        f"{metrics['executed']} solver executions fleet-wide "
        f"(coalesced={metrics['coalesced']}, "
        f"memory={metrics['memory_cache_hits']}, "
        f"disk={metrics['cache_hits']})")
    spared = (metrics["coalesced"] + metrics["memory_cache_hits"]
              + metrics["cache_hits"])
    assert spared == unique * (dup - 1), metrics
    return metrics


def _check_byte_identity(host: str, port: int) -> None:
    from repro.api import SolveRequest, solve
    from repro.graphs import gnp, uniform_weights

    graph = uniform_weights(gnp(30, 0.12, seed=5), 1, 20, seed=6)
    request = SolveRequest(graph=graph, algorithm="thm2", seed=7,
                           params={"eps": 0.5})
    status, envelope = fetch(host, port, "POST", "/v1/solve",
                             request.to_json().encode())
    assert status == 200, (status, envelope)
    wire = json.dumps(envelope["report"], sort_keys=True,
                      separators=(",", ":"))
    direct = solve(graph, "thm2", seed=7, eps=0.5).to_json()
    assert wire == direct, (
        f"routed report diverged from repro.api.solve:\n{wire}\n{direct}"
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--rate", type=float, default=40.0,
                        help="open-loop offered rate (req/s)")
    parser.add_argument("--duration", type=float, default=4.0,
                        help="loadgen seconds")
    parser.add_argument("--keep-bench", action="store_true",
                        help="copy the bench doc to ./bench_fleet_current"
                             ".json")
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(prefix="fleet-smoke-")
    fleet = None
    try:
        fleet = ServiceProcess(
            ["fleet", "--port", "0", "--workers", str(args.workers),
             "--cache", os.path.join(scratch, "cache"),
             "--scratch", os.path.join(scratch, "fleet")],
            os.path.join(scratch, "fleet.log"))
        host, port = fleet.host, fleet.port

        status, doc = fetch(host, port, "GET", "/v1/ready")
        assert status == 200 and doc["status"] == "ready", (status, doc)
        assert doc["workers_ready"] == args.workers, doc

        status, doc = fetch(host, port, "GET", "/v1/health")
        assert status == 200 and doc["status"] == "ok", (status, doc)
        assert doc["workers_alive"] == args.workers, doc
        for worker_id, entry in doc["workers"].items():
            assert entry["worker_id"] == worker_id, doc["workers"]
            assert entry["backend"], doc["workers"]

        metrics = _check_coalescing_survives_sharding(host, port)
        _check_byte_identity(host, port)

        bench_path = os.path.join(scratch, "bench_fleet.json")
        load = subprocess.run(
            [sys.executable, "-m", "repro", "loadgen",
             "--host", host, "--port", str(port),
             "--arrival", "poisson", "--arrival-seed", "0",
             "--rate", str(args.rate),
             "--duration", str(args.duration),
             "--out", bench_path],
            capture_output=True, text=True,
        )
        print(load.stdout, end="")
        assert load.returncode == 0, (
            f"loadgen failed (rc={load.returncode}):\n"
            f"{load.stdout}\n{load.stderr}"
        )
        bench = json.loads(open(bench_path, encoding="utf-8").read())
        assert bench["completed"] > 0, bench
        assert bench["divergent_reports"] == 0, bench

        fleet.stop()
        rc = fleet.proc.wait(timeout=60.0)
        log_text = fleet.log()
        assert rc == 0, f"fleet exit {rc}:\n{log_text}"
        assert "repro-fleet drained" in log_text, log_text

        if args.keep_bench:
            shutil.copy(bench_path, "bench_fleet_current.json")
        burst = metrics["requests"] + metrics["coalesced"]
        print(f"fleet-smoke ok: {args.workers} workers, "
              f"{metrics['executed']} executions for "
              f"{burst} sharded requests "
              f"(coalesced={metrics['coalesced']}, "
              f"memory={metrics['memory_cache_hits']}), "
              f"{bench['completed']} open-loop requests at goodput "
              f"{bench['goodput_ratio']:.2f}, drain clean")
        return 0
    finally:
        if fleet is not None:
            fleet.kill()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
