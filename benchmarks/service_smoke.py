"""Failure-safe `make service-smoke` driver.

End-to-end exercise of the solver service through the real CLI, the way
CI runs it:

1. start ``repro serve`` as a subprocess on an ephemeral port (parsed
   from its startup banner);
2. check ``GET /v1/health``;
3. ``POST /v1/solve`` one fixed-seed request and assert the returned
   report is byte-identical to ``repro.api.solve`` for the same request;
4. run ``repro loadgen`` (8 concurrent clients, a few seconds) against
   it, which re-certifies every unique report offline and writes the
   latency/throughput document;
5. SIGTERM the server and assert it drains and exits 0.

All scratch state (server cache, logs, the benchmark document) lives in
a temporary directory removed in a ``finally`` block.  The benchmark
document is copied to ``BENCH_service.json`` in the working directory
only when ``--keep-bench`` is passed (CI uploads it as an artifact).

Run as ``python benchmarks/service_smoke.py`` (the Makefile sets
``PYTHONPATH=src``); exits non-zero with diagnostics on any violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.service.http import fetch

BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")


def _start_server(scratch: str):
    log_path = os.path.join(scratch, "serve.log")
    log = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache", os.path.join(scratch, "cache")],
        stdout=log, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 30.0
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


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--duration", type=float, default=5.0,
                        help="loadgen seconds")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--keep-bench", action="store_true",
                        help="copy the benchmark doc to ./BENCH_service.json")
    args = parser.parse_args()

    scratch = tempfile.mkdtemp(prefix="service-smoke-")
    proc = log = None
    try:
        proc, log, log_path, host, port = _start_server(scratch)

        status, doc = fetch(host, port, "GET", "/v1/health")
        assert status == 200 and doc["status"] == "ok", (status, doc)

        _check_byte_identity(host, port)

        bench_path = os.path.join(scratch, "BENCH_service.json")
        load = subprocess.run(
            [sys.executable, "-m", "repro", "loadgen",
             "--host", host, "--port", str(port),
             "--clients", str(args.clients),
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
        assert bench["served"]["cached"] + bench["served"]["coalesced"] > 0, \
            bench["served"]
        v = bench["verification"]
        assert v["verified"] == bench["unique_reports"] > 0, v

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30.0)
        log.close()
        log_text = open(log_path, encoding="utf-8").read()
        assert rc == 0, f"server exit {rc}:\n{log_text}"
        assert "drained" in log_text, log_text

        if args.keep_bench:
            shutil.copy(bench_path, "BENCH_service.json")
        print(f"service-smoke ok: {bench['completed']} requests at "
              f"{bench['throughput_rps']:.0f} req/s, "
              f"{bench['served']['cached']} cached / "
              f"{bench['served']['coalesced']} coalesced, "
              f"{v['verified']}/{bench['unique_reports']} reports certified, "
              f"drain clean")
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
