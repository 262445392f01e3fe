"""Pool workers of ``repro serve --workers 2`` keep their signals.

The pool forks after the server's event loop has taken over SIGTERM and
SIGINT.  Three probes against one live server, in sequence:

1. SIGTERM to one pool worker kills that worker, and the server neither
   drains nor exits.
2. After a SIGKILL of one pool worker, concurrent fresh solves still
   succeed: the broken pool is replaced and the batch re-run.
3. After a SIGKILL of the server, its orphaned pool workers exit on
   SIGTERM.

The pool forks from the dispatch thread, so its workers are read from
``/proc/<pid>/task/*/children``.
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api import SolveRequest
from repro.graphs import gnp, uniform_weights
from repro.service.http import fetch

pytestmark = pytest.mark.skipif(
    not list(Path("/proc/self/task").glob("*/children")),
    reason="needs /proc/<pid>/task/*/children")

BANNER = re.compile(r"repro-serve listening on http://([0-9.]+):(\d+)")
SRC = Path(__file__).resolve().parents[2] / "src"


def wait_for(predicate, timeout_s, what, log_path):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout_s}s waiting for {what}; "
                f"server log:\n{log_path.read_text()}")


def gone(pid):
    """Exited: no /proc entry, or a zombie nobody has reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


def pool_workers(pid):
    """Live children of ``pid`` running its own image (the pool workers,
    not e.g. a resource tracker it spawned)."""
    try:
        image = Path(f"/proc/{pid}/cmdline").read_bytes()
        pids = set()
        for children in Path(f"/proc/{pid}/task").glob("*/children"):
            pids.update(int(p) for p in children.read_text().split())
    except (FileNotFoundError, ProcessLookupError):
        return []
    workers = []
    for child in sorted(pids):
        try:
            same = Path(f"/proc/{child}/cmdline").read_bytes() == image
        except (FileNotFoundError, ProcessLookupError):
            continue
        if same and not gone(child):
            workers.append(child)
    return workers


def solve_burst(host, port, seeds, log_path):
    """Concurrent fresh thm2 solves, each bounded at 15 s; all must
    succeed."""
    graph = uniform_weights(gnp(60, 0.1, seed=3), 1, 20, seed=4)

    def one(seed):
        body = SolveRequest(graph=graph, algorithm="thm2", seed=seed,
                            params={"eps": 0.5}).to_json().encode()
        try:
            return fetch(host, port, "POST", "/v1/solve", body,
                         timeout_s=15.0)
        except OSError as exc:
            return None, repr(exc)

    with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
        replies = list(pool.map(one, seeds))
    assert all(status == 200 and doc["report"]["ok"]
               for status, doc in replies), (replies, log_path.read_text())


def start_server(log_path):
    """``repro serve --workers 2`` with a warm pool: (proc, host, port)."""
    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            stdout=log, stderr=subprocess.STDOUT, env=env)
    found = []
    wait_for(lambda: found.append(BANNER.search(log_path.read_text()))
             or found[-1] is not None or proc.poll() is not None,
             60.0, "the banner", log_path)
    if found[-1] is None:
        pytest.fail(f"server did not start:\n{log_path.read_text()}")
    host, port = found[-1].group(1), int(found[-1].group(2))
    wait_for(lambda: fetch(host, port, "GET", "/v1/ready",
                           timeout_s=5.0)[0] == 200,
             60.0, "readiness", log_path)
    return proc, host, port


def test_pool_workers_keep_their_signals(tmp_path):
    log_path = tmp_path / "serve.log"
    proc, host, port = start_server(log_path)
    known = set()

    def workers():
        wait_for(lambda: len(pool_workers(proc.pid)) == 2, 30.0,
                 "two live pool workers", log_path)
        found = pool_workers(proc.pid)
        known.update(found)
        return found

    try:
        # 1. SIGTERM to a pool worker stays in that worker.
        victim = workers()[0]
        os.kill(victim, signal.SIGTERM)
        wait_for(lambda: gone(victim), 5.0, "the SIGTERMed worker to exit",
                 log_path)
        time.sleep(3.0)
        assert proc.poll() is None, (
            f"server exited {proc.returncode} after SIGTERM to a pool "
            f"worker:\n{log_path.read_text()}")
        status, doc = fetch(host, port, "GET", "/v1/ready", timeout_s=5.0)
        assert status == 200, (status, doc)

        # 2. After a SIGKILLed pool worker, solves still succeed.  The
        # first burst rebuilds the pool the SIGTERM above broke.
        solve_burst(host, port, range(100, 108), log_path)
        victim = workers()[0]
        os.kill(victim, signal.SIGKILL)
        solve_burst(host, port, range(200, 208), log_path)

        # 3. Orphans of a SIGKILLed server exit on SIGTERM.
        orphans = workers()
        proc.kill()
        proc.wait(timeout=10.0)
        for pid in orphans:
            os.kill(pid, signal.SIGTERM)
        wait_for(lambda: all(gone(pid) for pid in orphans), 5.0,
                 "orphaned pool workers to exit on SIGTERM", log_path)
    finally:
        if proc.poll() is None:
            known.update(pool_workers(proc.pid))
            proc.kill()
            proc.wait(timeout=10.0)
        for pid in known:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
