"""Worker lifecycle: one pool, two launchers.

:class:`FleetSupervisor` is the one worker pool behind the router.  It
starts N workers, replaces any that exited or that the router marked
dead (the worker is stopped first if it still runs), and drains them.
Its workers come from one of two launchers:

* :class:`ServiceProcess` — a ``python -m repro serve`` subprocess on an
  ephemeral port, parsed from its startup banner, ready once
  ``GET /v1/ready`` answers 200.  This is what ``repro fleet`` runs, and
  the same launcher starts ``repro serve`` and ``repro fleet`` for the
  smoke scripts and the subprocess tests.
* :class:`~repro.service.http.BackgroundServer` (``threaded=True``) —
  the same :class:`~repro.service.server.SolverServer` stack on its own
  event loop in a thread: no fork cost, and the only way to inject a
  solver ``registry`` (closures do not cross a process boundary).

A worker can fail-stop at any time and later restart, as in the fault
vocabulary's :class:`~repro.faults.plans.CrashSchedule`; the shared
disk cache (plus the router's stable sha256 sharding) is what makes the
restart cheap — the revived worker refills its memory tier from disk on
first touch.  :meth:`FleetSupervisor.crash` is the test hook: a
SIGKILLed process (or a stopped thread) takes exactly the restart path
a real crash would.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.service.engine import SolverEngine
from repro.service.http import BackgroundServer, fetch
from repro.service.server import SolverServer

__all__ = ["FleetSupervisor", "ServiceProcess", "WorkerEndpoint"]

BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")
START_TIMEOUT_S = 60.0  # banner plus readiness, per launch
DRAIN_TIMEOUT_S = 60.0  # a draining worker is killed after this
_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


@dataclass
class WorkerEndpoint:
    """Where one worker listens, plus its liveness as last observed."""

    worker_id: str
    host: str
    port: int
    alive: bool = True
    restarts: int = 0


class ServiceProcess:
    """``python -m repro <args>`` (``serve`` or ``fleet``) as a child.

    Output is appended to ``log_path``.  The constructor returns once
    the startup banner has named the port and ``GET /v1/ready`` answers
    200; otherwise it kills the child and raises with the log.  The
    child's ``PYTHONPATH`` starts with this package's source root, so
    it imports the same ``repro`` from any working directory.
    """

    def __init__(self, args: Sequence[str], log_path: str) -> None:
        self.log_path = log_path
        self.host, self.port = "", 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [_SRC_ROOT, env.get("PYTHONPATH")]))
        with open(log_path, "a", encoding="utf-8") as log:
            mark = log.tell()  # a respawn appends; read only its lines
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                stdout=log, stderr=subprocess.STDOUT, env=env)
        deadline = time.monotonic() + START_TIMEOUT_S
        last: Any = "no banner"
        while self.running() and time.monotonic() < deadline:
            if not self.port:
                match = BANNER.search(self.log(mark))
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
            else:
                try:
                    status, last = fetch(self.host, self.port, "GET",
                                         "/v1/ready", timeout_s=5.0)
                    if status == 200:
                        return
                except (OSError, ValueError) as exc:
                    last = exc
            time.sleep(0.05)
        self.kill()
        raise RuntimeError(f"repro {' '.join(args)} not ready after "
                           f"{START_TIMEOUT_S}s (last: {last}):\n"
                           f"{self.log(mark)}")

    def log(self, offset: int = 0) -> str:
        with open(self.log_path, encoding="utf-8") as fh:
            fh.seek(offset)
            return fh.read()

    def running(self) -> bool:
        return self.proc.poll() is None

    def stop(self) -> None:
        """SIGTERM: stop admitting, finish in-flight work, exit."""
        if self.running():
            self.proc.send_signal(signal.SIGTERM)

    def join(self, timeout_s: float) -> bool:
        """Wait for the child to exit; whether it did."""
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return False
        return True

    def kill(self) -> None:
        """SIGKILL and reap (a no-op once the child has exited)."""
        if self.running():
            self.proc.kill()
        self.proc.wait(timeout=10.0)


class FleetSupervisor:
    """Start, replace and drain N solver workers (subprocesses, or
    threads with ``threaded=True``)."""

    def __init__(
        self,
        *,
        workers: int,
        cache_dir: Optional[str] = None,
        memory_cache: int = 256,
        max_queue: int = 64,
        max_batch: int = 8,
        backend: str = "per-node",
        scratch_dir: str = ".fleet",
        graph_store: Optional[str] = None,
        host: str = "127.0.0.1",
        threaded: bool = False,
        registry: Optional[Dict[str, Any]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if registry is not None and not threaded:
            raise ValueError("registry injection requires threaded=True")
        self.workers = workers
        self.cache_dir = cache_dir
        self.memory_cache = memory_cache
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.backend = backend
        self.scratch_dir = scratch_dir
        self.graph_store = graph_store
        self.host = host
        self.threaded = threaded
        self.registry = registry
        self.restart_on_crash = True
        self._workers: List[Any] = [None] * workers
        self._endpoints = [
            WorkerEndpoint(worker_id=str(i), host=host, port=0, alive=False)
            for i in range(workers)
        ]
        # check() runs on the router's executor while tests crash()
        # and the router drain()s: one of them at a time.
        self._lock = threading.Lock()
        self._draining = False

    def start(self) -> List[WorkerEndpoint]:
        if not self.threaded:
            os.makedirs(self.scratch_dir, exist_ok=True)
        try:
            for index in range(self.workers):
                self._launch(index)
        except BaseException:
            self.stop()
            raise
        return self.endpoints()

    def _launch(self, index: int) -> None:
        """Start worker ``index`` and return once it is ready."""
        if self.threaded:
            engine = SolverEngine(
                cache_dir=self.cache_dir, memory_cache=self.memory_cache,
                max_queue=self.max_queue, max_batch=self.max_batch,
                worker_id=str(index), backend=self.backend,
                registry=self.registry, graph_store=self.graph_store)
            worker: Any = BackgroundServer(
                SolverServer(engine, host=self.host, port=0),
                name=f"fleet-worker-{index}")
        else:
            # All workers attach the same content-addressed graph store,
            # so a graph registered through any one of them resolves on
            # all.
            argv = [
                "serve", "--host", self.host, "--port", "0",
                "--worker-id", str(index),
                "--memory-cache", str(self.memory_cache),
                "--max-queue", str(self.max_queue),
                "--max-batch", str(self.max_batch),
                "--backend", self.backend,
                "--graph-store", (self.graph_store or os.path.join(
                    self.scratch_dir, "graphs")),
            ]
            if self.cache_dir is not None:
                argv += ["--cache", self.cache_dir]
            worker = ServiceProcess(argv, os.path.join(
                self.scratch_dir, f"worker-{index}.log"))
        self._workers[index] = worker
        self._endpoints[index].port = worker.port
        self._endpoints[index].alive = True

    def endpoints(self) -> List[WorkerEndpoint]:
        """The workers in shard order (the router's view of the pool)."""
        return list(self._endpoints)

    def check(self) -> List[str]:
        """Replace every worker that exited or that the router marked
        dead, stopping it first if it still runs; returns the ids
        restarted.  Does nothing while draining."""
        restarted: List[str] = []
        with self._lock:
            if self._draining:
                return restarted
            for index, endpoint in enumerate(self._endpoints):
                worker = self._workers[index]
                if endpoint.alive and worker.running():
                    continue
                endpoint.alive = False
                if self.restart_on_crash:
                    worker.kill()
                    self._launch(index)
                    endpoint.restarts += 1
                    restarted.append(endpoint.worker_id)
        return restarted

    def crash(self, worker_id: str) -> None:
        """Fail-stop one worker (SIGKILL a process, stop a thread) — the
        test hook; ``check()`` performs the restart."""
        index = int(worker_id)
        with self._lock:
            self._endpoints[index].alive = False
            self._workers[index].kill()

    def drain(self) -> None:
        """Stop every worker gracefully (each finishes its in-flight
        work, then exits); kill any still running after
        :data:`DRAIN_TIMEOUT_S`."""
        with self._lock:
            self._draining = True
            workers = [w for w in self._workers if w is not None]
            for worker in workers:
                worker.stop()
            deadline = time.monotonic() + DRAIN_TIMEOUT_S
            for worker in workers:
                if not worker.join(max(0.1, deadline - time.monotonic())):
                    worker.kill()

    def stop(self) -> None:
        """Hard stop of whatever still runs — the finally-path."""
        with self._lock:
            self._draining = True
            for worker in self._workers:
                if worker is not None:
                    worker.kill()
