"""Failure-safe `make slo-check` driver: gate CI on tail-latency SLOs.

Two gates, both against ``benchmarks/slo_spec.json`` (override with
``--spec``):

1. **Offline** — re-evaluate the committed ``BENCH_service.json``
   baseline document.  Catches a regression that slipped into the
   committed numbers, and catches someone tightening the spec below
   what the baseline actually measures.
2. **Live** — start ``repro serve`` on an ephemeral port, run a short
   loadgen burst in-process with the spec attached, and gate on the
   fresh verdicts.  Skipped with ``--offline-only``.

The live burst's full benchmark document (SLO verdicts included) is
written to ``--report`` (default ``slo_report.json``; CI uploads it as
an artifact).  Exits non-zero if any gate's objective is violated.

Run as ``python benchmarks/slo_check.py`` (the Makefile sets
``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(_HERE, "slo_spec.json")
DEFAULT_BASELINE = os.path.join(os.path.dirname(_HERE), "BENCH_service.json")


def _offline_gate(spec, baseline_path: str) -> bool:
    """Verdicts against the committed benchmark document."""
    if not os.path.exists(baseline_path):
        print(f"offline gate: no baseline at {baseline_path} — skipped")
        return True
    with open(baseline_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    report = spec.evaluate_doc(bench)
    print(f"offline gate ({os.path.basename(baseline_path)}):")
    print(report.render())
    return report.holds


def _live_gate(spec, *, clients: int, duration_s: float,
               report_path: str) -> bool:
    """Fresh loadgen burst against a just-started server."""
    from repro.service import run_loadgen
    from repro.service.fleet.supervisor import ServiceProcess

    scratch = tempfile.mkdtemp(prefix="slo-check-")
    server = None
    try:
        server = ServiceProcess(
            ["serve", "--port", "0", "--workers", "2",
             "--cache", os.path.join(scratch, "cache")],
            os.path.join(scratch, "serve.log"))
        doc = run_loadgen(
            host=server.host, port=server.port, clients=clients,
            duration_s=duration_s, out_path=report_path, verify=False,
            slo=spec,
        )
        server.stop()
        rc = server.proc.wait(timeout=30.0)
        if rc != 0:
            print(f"server exit {rc}:\n{server.log()}")
            return False

        from repro.service.slo import SLOCheck, SLOReport
        verdicts = SLOReport(
            spec_name=doc["slo"]["spec"],
            checks=[SLOCheck(**c) for c in doc["slo"]["checks"]],
        )
        lat = doc["latency"]
        print(f"live gate: {doc['completed']}/{doc['sent']} requests, "
              f"{doc['throughput_rps']:.0f} req/s, "
              f"p50 {lat['p50_s'] * 1e3:.1f} ms / "
              f"p95 {lat['p95_s'] * 1e3:.1f} ms / "
              f"p99 {lat['p99_s'] * 1e3:.1f} ms, "
              f"{doc['served']['with_trace_id']} traced")
        print(verdicts.render())
        if doc["completed"] == 0:
            print("live gate: no requests completed")
            return False
        if doc["served"]["with_trace_id"] != doc["completed"]:
            print(f"live gate: only {doc['served']['with_trace_id']} of "
                  f"{doc['completed']} responses carried a trace id")
            return False
        return verdicts.holds
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", default=DEFAULT_SPEC,
                        help="SLO spec JSON (benchmarks/slo_spec.json)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed BENCH_service.json for the "
                             "offline gate")
    parser.add_argument("--report", default="slo_report.json",
                        help="where the live burst's document goes")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="live burst seconds")
    parser.add_argument("--offline-only", action="store_true",
                        help="skip the live server burst")
    args = parser.parse_args()

    from repro.service.slo import load_slo_spec
    spec = load_slo_spec(args.spec)

    ok = _offline_gate(spec, args.baseline)
    if not args.offline_only:
        ok = _live_gate(spec, clients=args.clients,
                        duration_s=args.duration,
                        report_path=args.report) and ok
    print(f"slo-check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
