"""Failure-safe `make service-smoke` driver.

End-to-end exercise of the solver service through the real CLI, the way
CI runs it:

1. start ``repro serve`` as a subprocess on an ephemeral port (parsed
   from its startup banner);
2. check ``GET /v1/health``;
3. ``POST /v1/solve`` one fixed-seed request and assert the returned
   report is byte-identical to ``repro.api.solve`` for the same request;
4. run the open-loop load client
   (:func:`repro.bench.loadgen.run_open_loop`) in-process against it:
   uniform arrivals at 20 req/s for 5 s, drawn from the generator zoo ×
   thm1/thm2/thm3 × 24 seeds (504 requests), so most requests run the
   solver.  The client certifies every unique report;
5. gate that run on the service-level objectives in :data:`SLO`, each
   printed as measured value next to its limit;
6. SIGTERM the server and assert it drains and exits 0.

All scratch state (server cache, logs) lives in a temporary directory
removed in a ``finally`` block.  The run document, SLO verdicts
included, is written to ``bench_service_current.json`` in the working
directory only when ``--keep-bench`` is passed (CI uploads it as an
artifact).

Run as ``python benchmarks/service_smoke.py`` (the Makefile sets
``PYTHONPATH=src``); exits non-zero with diagnostics on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from repro.bench.loadgen import build_request_pool, run_open_loop
from repro.service.fleet.supervisor import ServiceProcess
from repro.service.http import fetch

RATE = 20.0
SEEDS = tuple(range(1, 25))

# Service-level objectives of the open-loop run: (metric, comparator,
# limit).  error_rate counts every arrival that did not come back 200;
# executed_ratio is the share of completed requests the solver ran for,
# so the latency limits are judged on solves, not on cache hits.
SLO = (
    ("p50_ms", "<=", 500.0),
    ("p95_ms", "<=", 2000.0),
    ("p99_ms", "<=", 5000.0),
    ("error_rate", "<=", 0.02),
    ("achieved_rps", ">=", 5.0),
    ("executed_ratio", ">=", 0.80),
)


def _check_byte_identity(host: str, port: int) -> None:
    # PYTHONPATH=src puts repro in reach of the driver itself.
    from repro.api import SolveRequest, solve
    from repro.graphs import gnp, uniform_weights

    graph = uniform_weights(gnp(30, 0.12, seed=3), 1, 20, seed=4)
    request = SolveRequest(graph=graph, algorithm="thm2", seed=7,
                           params={"eps": 0.5})
    status, envelope = fetch(host, port, "POST", "/v1/solve",
                             request.to_json().encode())
    assert status == 200, (status, envelope)
    wire = json.dumps(envelope["report"], sort_keys=True,
                      separators=(",", ":"))
    direct = solve(graph, "thm2", seed=7, eps=0.5).to_json()
    assert wire == direct, (
        f"HTTP report diverged from repro.api.solve:\n{wire}\n{direct}"
    )


def _executed(host: str, port: int) -> int:
    status, metrics = fetch(host, port, "GET", "/v1/metrics")
    assert status == 200, (status, metrics)
    return metrics["executed"]


def _slo_verdicts(run: dict, executed: int) -> list:
    lat = run["latency"]
    measured = {
        "p50_ms": lat["p50_s"] * 1e3,
        "p95_ms": lat["p95_s"] * 1e3,
        "p99_ms": lat["p99_s"] * 1e3,
        "error_rate": 1.0 - run["completed"] / run["offered"],
        "achieved_rps": run["achieved_rps"],
        "executed_ratio": executed / run["completed"],
    }
    return [
        {"metric": metric, "comparator": comparator, "limit": limit,
         "measured": measured[metric],
         "holds": (measured[metric] <= limit if comparator == "<="
                   else measured[metric] >= limit)}
        for metric, comparator, limit in SLO
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds of offered load")
    parser.add_argument("--keep-bench", action="store_true",
                        help="copy the run document to "
                             "./bench_service_current.json")
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(prefix="service-smoke-")
    server = None
    try:
        server = ServiceProcess(
            ["serve", "--port", "0", "--workers", "2",
             "--cache", os.path.join(scratch, "cache")],
            os.path.join(scratch, "serve.log"))
        host, port = server.host, server.port

        status, doc = fetch(host, port, "GET", "/v1/health")
        assert status == 200 and doc["status"] == "ok", (status, doc)

        _check_byte_identity(host, port)

        executed_before = _executed(host, port)
        run = run_open_loop(host=host, port=port, rate=RATE,
                            duration_s=args.duration, arrival="uniform",
                            pool=build_request_pool(seeds=SEEDS))
        executed = _executed(host, port) - executed_before
        assert run["completed"] > 0, run
        assert run["served"]["cached"] + run["served"]["coalesced"] > 0, \
            run["served"]
        assert run["served"]["with_trace_id"] == run["completed"], \
            run["served"]
        assert run["divergent_reports"] == 0, run
        v = run["verification"]
        assert v["failures"] == [], v["failures"]
        assert v["verified"] == run["unique_reports"] > 0, v

        run["slo"] = _slo_verdicts(run, executed)
        for check in run["slo"]:
            print(f"SLO [{'ok ' if check['holds'] else 'FAIL'}] "
                  f"{check['metric']:<15} measured {check['measured']:10.3f} "
                  f"{check['comparator']} limit {check['limit']:g}")
        if args.keep_bench:
            with open("bench_service_current.json", "w",
                      encoding="utf-8") as fh:
                json.dump(run, fh, indent=2, sort_keys=True)
                fh.write("\n")

        server.stop()
        rc = server.proc.wait(timeout=30.0)
        log_text = server.log()
        assert rc == 0, f"server exit {rc}:\n{log_text}"
        assert "drained" in log_text, log_text

        violated = [c["metric"] for c in run["slo"] if not c["holds"]]
        if violated:
            print(f"service-smoke FAIL: SLO violated: {violated}")
            return 1
        print(f"service-smoke ok: {run['completed']}/{run['offered']} "
              f"requests at {run['achieved_rps']:.1f} req/s, "
              f"{executed} solver executions, "
              f"{run['served']['cached']} cached / "
              f"{run['served']['coalesced']} coalesced, "
              f"{v['verified']}/{run['unique_reports']} reports certified, "
              f"drain clean")
        return 0
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
