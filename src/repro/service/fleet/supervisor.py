"""Worker lifecycle: spawn, readiness, restart-on-crash, graceful drain.

Two interchangeable worker pools sit behind the router:

* :class:`FleetSupervisor` — the production pool: each worker is a
  ``python -m repro serve`` *subprocess* on an ephemeral port (parsed
  from its startup banner), health-checked over ``GET /v1/ready`` and
  respawned if it crashes.  SIGTERM semantics mirror the fault
  vocabulary's :class:`~repro.faults.plans.CrashSchedule`: a worker can
  fail-stop at any time and later restart, and the shared disk cache
  (plus the router's stable sha256 sharding) is what makes the restart
  cheap — the revived worker refills its memory tier from disk on first
  touch.  :meth:`FleetSupervisor.inject_crash` is the testing hook: a
  SIGKILL'd worker exercises exactly the restart path a real crash
  would.
* :class:`ThreadedFleet` — the in-process pool used by the unit tests
  and available for single-machine development: the same
  :class:`~repro.service.server.SolverServer` stack, one event loop per
  worker thread.  No fork cost, same HTTP surface, same endpoints
  interface.

Both expose the small interface the router consumes: ``endpoints()``
(stable shard order), ``check()`` (detect + restart crashed workers),
``begin_drain()``/``drain()`` and ``describe()``.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.service.http import fetch

__all__ = ["FleetSupervisor", "ThreadedFleet", "WorkerEndpoint"]

_BANNER = re.compile(r"listening on http://([0-9.]+):(\d+)")


@dataclass
class WorkerEndpoint:
    """Where one worker listens, plus its liveness as last observed."""

    worker_id: str
    host: str
    port: int
    alive: bool = True
    restarts: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)


def wait_ready(host: str, port: int, timeout_s: float = 30.0) -> None:
    """Block until ``GET /v1/ready`` answers 200 (or raise)."""
    deadline = time.monotonic() + timeout_s
    last: Any = None
    while time.monotonic() < deadline:
        try:
            status, doc = fetch(host, port, "GET", "/v1/ready", timeout_s=5.0)
            if status == 200:
                return
            last = (status, doc)
        except (OSError, ValueError) as exc:
            last = exc
        time.sleep(0.05)
    raise TimeoutError(
        f"worker {host}:{port} not ready after {timeout_s}s (last: {last})"
    )


class FleetSupervisor:
    """Spawn and babysit N ``repro serve`` worker subprocesses."""

    def __init__(
        self,
        *,
        workers: int,
        cache_dir: Optional[str] = None,
        memory_cache: int = 256,
        max_queue: int = 64,
        max_batch: int = 8,
        backend: str = "per-node",
        scratch_dir: str = ".",
        graph_store: Optional[str] = None,
        restart_on_crash: bool = True,
        start_timeout_s: float = 60.0,
        host: str = "127.0.0.1",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache_dir = cache_dir
        self.memory_cache = memory_cache
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.backend = backend
        self.scratch_dir = scratch_dir
        # All workers attach the same content-addressed graph store so a
        # graph registered through any one of them resolves on all.
        self.graph_store = (graph_store if graph_store is not None
                            else os.path.join(scratch_dir, "graphs"))
        self.restart_on_crash = restart_on_crash
        self.start_timeout_s = start_timeout_s
        self.host = host
        self._procs: List[Optional[subprocess.Popen]] = [None] * workers
        self._logs: List[Optional[Any]] = [None] * workers
        self._endpoints: List[WorkerEndpoint] = [
            WorkerEndpoint(worker_id=str(i), host=host, port=0, alive=False)
            for i in range(workers)
        ]
        self._draining = False

    # ----------------------------------------------------------------- #
    # lifecycle
    # ----------------------------------------------------------------- #

    def start(self) -> List[WorkerEndpoint]:
        os.makedirs(self.scratch_dir, exist_ok=True)
        for i in range(self.workers):
            self._spawn(i)
        for endpoint in self._endpoints:
            wait_ready(endpoint.host, endpoint.port, self.start_timeout_s)
        return self.endpoints()

    def _spawn(self, index: int) -> None:
        log_path = os.path.join(self.scratch_dir, f"worker-{index}.log")
        log = open(log_path, "a", encoding="utf-8")
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host, "--port", "0",
            "--worker-id", str(index),
            "--memory-cache", str(self.memory_cache),
            "--max-queue", str(self.max_queue),
            "--max-batch", str(self.max_batch),
            "--backend", self.backend,
            "--graph-store", self.graph_store,
        ]
        if self.cache_dir is not None:
            argv += ["--cache", self.cache_dir]
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src_root)
        mark = os.path.getsize(log_path) if os.path.exists(log_path) else 0
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        self._procs[index] = proc
        self._logs[index] = log
        port = self._parse_port(log_path, proc, mark)
        endpoint = self._endpoints[index]
        endpoint.port = port
        endpoint.alive = True

    def _parse_port(self, log_path: str, proc: subprocess.Popen,
                    offset: int) -> int:
        deadline = time.monotonic() + self.start_timeout_s
        while time.monotonic() < deadline:
            with open(log_path, encoding="utf-8") as fh:
                fh.seek(offset)
                match = _BANNER.search(fh.read())
            if match:
                return int(match.group(2))
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        with open(log_path, encoding="utf-8") as fh:
            raise RuntimeError(f"worker did not start:\n{fh.read()}")

    def check(self) -> List[str]:
        """Detect crashed workers; respawn them unless draining.

        Returns the worker ids that were restarted (empty most calls).
        """
        restarted: List[str] = []
        if self._draining:
            return restarted
        for i, proc in enumerate(self._procs):
            if proc is not None and proc.poll() is not None:
                endpoint = self._endpoints[i]
                endpoint.alive = False
                if self.restart_on_crash:
                    self._spawn(i)
                    wait_ready(endpoint.host, endpoint.port,
                               self.start_timeout_s)
                    endpoint.restarts += 1
                    restarted.append(endpoint.worker_id)
        return restarted

    def inject_crash(self, worker_id: str) -> None:
        """Fail-stop one worker (SIGKILL) — the testing hook that plays
        the role of :class:`~repro.faults.plans.CrashSchedule` at the
        process level; ``check()`` performs the restart."""
        index = int(worker_id)
        proc = self._procs[index]
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
        self._endpoints[index].alive = False

    def begin_drain(self) -> None:
        """SIGTERM every worker: stop admission, finish in-flight."""
        self._draining = True
        for proc in self._procs:
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGTERM)

    def drain(self, timeout_s: float = 60.0) -> None:
        """Wait for every SIGTERM'd worker to finish draining and exit."""
        if not self._draining:
            self.begin_drain()
        deadline = time.monotonic() + timeout_s
        for proc in self._procs:
            if proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        self._close_logs()

    def stop(self) -> None:
        """Hard stop (kill anything still running) — the finally-path."""
        self._draining = True
        for proc in self._procs:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
        self._close_logs()

    def _close_logs(self) -> None:
        for log in self._logs:
            if log is not None and not log.closed:
                log.close()

    # ----------------------------------------------------------------- #
    # the router-facing interface
    # ----------------------------------------------------------------- #

    def endpoints(self) -> List[WorkerEndpoint]:
        return list(self._endpoints)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "subprocess",
            "workers": self.workers,
            "memory_cache": self.memory_cache,
            "backend": self.backend,
            "cache_dir": self.cache_dir,
            "graph_store": self.graph_store,
            "restart_on_crash": self.restart_on_crash,
            "restarts": {e.worker_id: e.restarts for e in self._endpoints
                         if e.restarts},
        }


class ThreadedFleet:
    """In-process worker pool: one SolverServer per thread.

    The unit-test / single-machine twin of :class:`FleetSupervisor` —
    identical HTTP surface and endpoints interface, no subprocess spawn
    cost.  ``stop_worker`` plays the crash; ``check()`` restarts it.
    """

    def __init__(self, *, workers: int, cache_dir: Optional[str] = None,
                 memory_cache: int = 256, max_queue: int = 64,
                 max_batch: int = 8, backend: str = "per-node",
                 graph_store: Optional[str] = None,
                 restart_on_crash: bool = True,
                 registry: Optional[Dict[str, Any]] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache_dir = cache_dir
        self.memory_cache = memory_cache
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.backend = backend
        self.graph_store = graph_store
        self.restart_on_crash = restart_on_crash
        self.registry = registry
        self._threads: List[Optional[threading.Thread]] = [None] * workers
        self._loops: List[Optional[asyncio.AbstractEventLoop]] = [None] * workers
        self._stops: List[Optional[asyncio.Event]] = [None] * workers
        self._endpoints = [
            WorkerEndpoint(worker_id=str(i), host="127.0.0.1", port=0,
                           alive=False)
            for i in range(workers)
        ]
        self._draining = False

    def start(self) -> List[WorkerEndpoint]:
        for i in range(self.workers):
            self._spawn(i)
        return self.endpoints()

    def _spawn(self, index: int) -> None:
        from repro.service.engine import SolverEngine
        from repro.service.server import SolverServer

        ready = threading.Event()
        failure: List[BaseException] = []

        def run() -> None:
            async def main() -> None:
                engine = SolverEngine(
                    cache_dir=self.cache_dir,
                    memory_cache=self.memory_cache,
                    max_queue=self.max_queue, max_batch=self.max_batch,
                    worker_id=str(index), backend=self.backend,
                    registry=self.registry,
                    graph_store=self.graph_store,
                )
                server = SolverServer(engine, host="127.0.0.1", port=0)
                self._loops[index] = asyncio.get_running_loop()
                self._stops[index] = asyncio.Event()
                try:
                    self._endpoints[index].port = await server.start()
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    failure.append(exc)
                    ready.set()
                    return
                self._endpoints[index].alive = True
                ready.set()
                await self._stops[index].wait()
                await server.shutdown()
                self._endpoints[index].alive = False

            asyncio.run(main())

        thread = threading.Thread(target=run, daemon=True,
                                  name=f"fleet-worker-{index}")
        self._threads[index] = thread
        thread.start()
        if not ready.wait(timeout=30.0) or failure:
            raise RuntimeError(f"threaded worker {index} failed to start: "
                               f"{failure[0] if failure else 'timeout'}")

    def stop_worker(self, worker_id: str) -> None:
        """Simulated fail-stop of one worker (for router failover tests)."""
        index = int(worker_id)
        loop, stop = self._loops[index], self._stops[index]
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)
        thread = self._threads[index]
        if thread is not None:
            thread.join(timeout=30.0)
        self._endpoints[index].alive = False

    def check(self) -> List[str]:
        restarted: List[str] = []
        if self._draining:
            return restarted
        for i, endpoint in enumerate(self._endpoints):
            thread = self._threads[i]
            if not endpoint.alive and (thread is None or not thread.is_alive()):
                if self.restart_on_crash:
                    self._spawn(i)
                    endpoint.restarts += 1
                    restarted.append(endpoint.worker_id)
        return restarted

    def begin_drain(self) -> None:
        self._draining = True

    def drain(self, timeout_s: float = 60.0) -> None:
        self._draining = True
        for i in range(self.workers):
            loop, stop = self._loops[i], self._stops[i]
            if loop is not None and stop is not None and not stop.is_set():
                loop.call_soon_threadsafe(stop.set)
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            if thread is not None and thread.is_alive():
                thread.join(timeout=max(0.1, deadline - time.monotonic()))

    def stop(self) -> None:
        self.drain(timeout_s=10.0)

    def endpoints(self) -> List[WorkerEndpoint]:
        return list(self._endpoints)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": "threaded",
            "workers": self.workers,
            "memory_cache": self.memory_cache,
            "backend": self.backend,
            "cache_dir": self.cache_dir,
            "graph_store": self.graph_store,
            "restart_on_crash": self.restart_on_crash,
            "restarts": {e.worker_id: e.restarts for e in self._endpoints
                         if e.restarts},
        }
