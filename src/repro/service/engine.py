"""The solver engine: coalescing, admission control, micro-batching.

The asyncio core of ``repro serve``, independent of HTTP so it can be
driven (and tested) directly:

* **Coalescing.**  Requests are identified by
  ``(graph fingerprint, algorithm, seed, params)`` —
  :meth:`repro.api.SolveRequest.key`.  While a computation for a key is
  in flight, further submissions of the same key *attach* to it instead
  of enqueueing: N concurrent identical requests execute the solver
  exactly once.
* **Admission control.**  Undispatched work lives in a bounded queue;
  when it is full, new keys are rejected immediately
  (:class:`RequestRejected`, HTTP 429) rather than buffered unboundedly.
  Attaching to an in-flight key consumes no queue slot.
* **Micro-batching.**  A single dispatcher drains whatever is queued (up
  to ``max_batch``) and hands it to the existing batch engine —
  :func:`repro.simulator.batch.batch_run` with a long-lived worker pool
  and the JSON disk cache — so the serving path and ``repro sweep`` share
  one execution path, one cache, and bit-identical results.
* **Deadlines.**  A request's ``timeout_s`` bounds its wait (queue +
  compute).  On expiry the waiter gets :class:`DeadlineExceeded` (HTTP
  504); the computation itself is not abandoned, so coalesced followers
  and the disk cache still profit from it.
* **Drain.**  :meth:`SolverEngine.begin_drain` stops admission;
  :meth:`SolverEngine.drain` waits until every in-flight computation has
  resolved — the SIGTERM path of ``repro serve``.

All engine state is touched only from the event-loop thread; workers
only ever see immutable job payloads.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.api import SolveReport, SolveRequest
from repro.exceptions import ReproError
from repro.graphs.store import GraphRef
from repro.obs.telemetry import new_trace_id
from repro.registry import algorithm_registry
from repro.service.cache import LruCache
from repro.service.stats import ServiceStats

__all__ = [
    "DeadlineExceeded",
    "RequestRejected",
    "ServedReport",
    "SolverEngine",
    "UnknownAlgorithmError",
]


class RequestRejected(ReproError):
    """Admission control refused the request (queue full, or draining)."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason  # "queue_full" | "draining"


class DeadlineExceeded(ReproError):
    """The request's ``timeout_s`` elapsed before its report was ready."""


class UnknownAlgorithmError(ReproError, ValueError):
    """The requested algorithm is not in the registry."""


@dataclass(frozen=True)
class ServedReport:
    """A canonical report plus its serving provenance.

    ``seconds`` is the leader's queue-to-completion time; ``cached`` and
    ``coalesced`` say whether the disk cache or an in-flight twin served
    the request.  ``trace_id`` identifies this request; ``stages`` is its
    per-stage latency breakdown in seconds (``queue_wait``,
    ``cache_lookup``, ``solve``, ... — coalesced followers instead get
    ``coalesce_wait`` plus ``primary_trace_id``, the leader trace whose
    computation produced the report).  ``telemetry`` is the run-telemetry
    doc the execution reported (backend runs, kernel wall time, fleet
    fallbacks with reasons).  None of this is part of the canonical
    report — the report stays byte-identical however it was served.
    """

    report: SolveReport
    cached: bool = False
    coalesced: bool = False
    seconds: float = 0.0
    trace_id: str = ""
    primary_trace_id: str = ""
    stages: Dict[str, float] = field(default_factory=dict)
    telemetry: Dict[str, Any] = field(default_factory=dict)
    # Which cache tier satisfied the request: "memory" (per-worker LRU),
    # "disk" (shared JSON cache), or "" (computed / coalesced).
    cache_tier: str = ""
    # Delta-form requests only: how the solve was performed —
    # "incremental" (report derived from the parent's cached report) or
    # "full" (the solver actually ran on the child).  Empty for
    # non-delta requests and for straight cache hits of the child's own
    # key.  ``dirty_frontier`` is the size of the outermost BFS shell of
    # the dirty region around the delta's touched nodes (-1 when not
    # computed).
    solve_mode: str = ""
    dirty_frontier: int = -1


@dataclass
class _Entry:
    request: SolveRequest
    key: str
    future: "asyncio.Future[ServedReport]"
    enqueued: float
    trace_id: str = ""


class SolverEngine:
    """Coalescing, admission-controlled front of the batch engine."""

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        policy: Optional[Any] = None,
        max_queue: int = 64,
        max_batch: int = 8,
        registry: Optional[Dict[str, Callable[..., Any]]] = None,
        memory_cache: int = 0,
        worker_id: str = "",
        graph_store: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if memory_cache < 0:
            raise ValueError(f"memory_cache must be >= 0, got {memory_cache}")
        self.workers = workers
        self.cache_dir = cache_dir
        self.policy = policy
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.worker_id = worker_id
        # The graph plane: a content-addressed store backing POST
        # /v1/graphs registration and graph_ref solves.  Accepts a
        # GraphStore instance (caller-owned, e.g. shared across a
        # threaded fleet), a directory path, or None — which defaults to
        # <cache_dir>/graphs next to the result cache, or an ephemeral
        # temp store without one.  Stores the engine constructs are
        # closed (and, if ephemeral, removed) in aclose().  Opened first
        # over its root, the store is the one in-process jobs resolve
        # their refs through (repro.graphs.store.get_store), so a job
        # reads this memo and an eviction here reaches it.
        from repro.graphs.store import GraphStore, ephemeral_store

        if graph_store is None or isinstance(graph_store, (str, Path)):
            self._owns_graph_store = True
            if graph_store is not None:
                self._graph_store = GraphStore(graph_store)
            elif cache_dir is not None:
                self._graph_store = GraphStore(Path(cache_dir) / "graphs")
            else:
                self._graph_store = ephemeral_store()
        else:
            self._owns_graph_store = False
            self._graph_store = graph_store
        # Tier 1 of the two-tier cache: ok reports keyed by request key,
        # populated on completion (computed *and* disk-cache hits) and
        # served from the event-loop thread with no dispatch handoff.
        # Size 0 disables the tier (the single-process default).
        self._memory_cache: Optional[LruCache] = (
            LruCache(memory_cache) if memory_cache > 0 else None
        )
        # An explicit registry (tests inject counting wrappers) switches
        # jobs from name-strings to callables, which forces in-process
        # execution — callables made of closures do not cross the process
        # boundary, and tests want them observed anyway.
        self._registry = registry
        self._names = frozenset(registry if registry is not None
                                else algorithm_registry())
        self._stats = ServiceStats()
        self._inflight: Dict[str, _Entry] = {}
        # Eviction-vs-in-flight-solve safety: refs named by admitted
        # requests are pinned until their computation resolves; DELETE
        # on a pinned ref evicts *logically* (new lookups 404) and the
        # physical removal is deferred to the last unpin.
        self._ref_pins: Dict[str, int] = {}
        self._deferred_evictions: set = set()
        self._draining = False
        self._started = False
        self._pool_warm = False
        self._warmup_task: Optional[asyncio.Task] = None
        self._queue: "asyncio.Queue[_Entry]" = None  # type: ignore[assignment]
        self._dispatch_task: Optional[asyncio.Task] = None
        self._dispatch_pool: Optional[ThreadPoolExecutor] = None
        self._worker_pool: Optional[ProcessPoolExecutor] = None

    # ----------------------------------------------------------------- #
    # lifecycle
    # ----------------------------------------------------------------- #

    async def start(self) -> "SolverEngine":
        """Create the queue, worker pool, and dispatcher task."""
        if self._started:
            return self
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )
        if self.workers > 1 and self._registry is None:
            self._worker_pool = self._new_worker_pool()
        loop = asyncio.get_running_loop()
        self._dispatch_task = loop.create_task(self._dispatch_loop())
        if self._worker_pool is not None:
            # Readiness gate: /v1/ready answers 503 until every pool
            # process has imported and executed once, so a router never
            # sends traffic into a cold fork.
            self._warmup_task = loop.create_task(self._warm_pool())
        else:
            self._pool_warm = True
        self._started = True
        return self

    async def _warm_pool(self) -> None:
        loop = asyncio.get_running_loop()

        def spin_up() -> None:
            assert self._worker_pool is not None
            futures = [self._worker_pool.submit(_pool_warmup)
                       for _ in range(self.workers)]
            for fut in futures:
                fut.result()

        try:
            await loop.run_in_executor(self._dispatch_pool, spin_up)
        except Exception:  # noqa: BLE001 — a failed warmup must not wedge
            pass           # readiness forever; real jobs will surface it.
        self._pool_warm = True

    def begin_drain(self) -> None:
        """Stop admitting new work (health reports ``draining``)."""
        self._draining = True

    async def drain(self) -> None:
        """Block until every admitted request has a resolved future."""
        self.begin_drain()
        while self._inflight:
            waits = [asyncio.shield(e.future)
                     for e in list(self._inflight.values())]
            await asyncio.gather(*waits, return_exceptions=True)

    async def aclose(self) -> None:
        """Drain, then tear the dispatcher, pools, and graph store down."""
        if not self._started:
            if self._owns_graph_store:
                self._graph_store.close()
            return
        await self.drain()
        if self._warmup_task is not None and not self._warmup_task.done():
            self._warmup_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._warmup_task
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatch_task
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=False)
        if self._worker_pool is not None:
            self._worker_pool.shutdown(wait=False, cancel_futures=True)
        if self._owns_graph_store:
            self._graph_store.close()
        self._started = False

    # ----------------------------------------------------------------- #
    # introspection
    # ----------------------------------------------------------------- #

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """Readiness (vs liveness): started, not draining, pool warm.

        ``GET /v1/ready`` maps ``False`` to 503 — the router's signal to
        keep traffic away while this worker is warming up or draining.
        """
        return self._started and not self._draining and self._pool_warm

    @property
    def memory_cache(self) -> Optional[LruCache]:
        return self._memory_cache

    @property
    def graph_store(self):
        """The engine's content-addressed graph store (always present)."""
        return self._graph_store

    # ----------------------------------------------------------------- #
    # graph lifecycle (the eviction-vs-in-flight race lives here)
    # ----------------------------------------------------------------- #

    def ref_alive(self, fingerprint: str) -> bool:
        """Whether new requests may name this ref: stored and not
        (logically) evicted."""
        return (fingerprint not in self._deferred_evictions
                and fingerprint in self._graph_store)

    def evict_graph(self, fingerprint: str) -> Dict[str, Any]:
        """``DELETE /v1/graphs/<ref>`` semantics.

        Logical eviction is immediate — :meth:`ref_alive` turns false
        and new solves/describes 404.  Physical removal (blob file,
        mapping, memo) is deferred while any admitted solve holds a pin
        on the ref, so a queued job that has not attached its graph yet
        still finds it, and its report stays certified.  Returns
        ``{"evicted": bool, "deferred": bool}``.
        """
        if self._ref_pins.get(fingerprint):
            self._deferred_evictions.add(fingerprint)
            return {"evicted": True, "deferred": True}
        evicted = self._graph_store.evict(fingerprint)
        self._deferred_evictions.discard(fingerprint)
        return {"evicted": evicted, "deferred": False}

    def _pin_ref(self, fingerprint: str) -> None:
        self._ref_pins[fingerprint] = self._ref_pins.get(fingerprint, 0) + 1

    def _unpin_ref(self, fingerprint: str) -> None:
        count = self._ref_pins.get(fingerprint, 0) - 1
        if count > 0:
            self._ref_pins[fingerprint] = count
            return
        self._ref_pins.pop(fingerprint, None)
        if fingerprint in self._deferred_evictions:
            self._deferred_evictions.discard(fingerprint)
            self._graph_store.evict(fingerprint)

    @property
    def stats(self) -> ServiceStats:
        return self._stats

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def algorithm_names(self) -> List[str]:
        return sorted(self._names)

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self._stats.snapshot(
            in_flight=self.in_flight,
            queue_depth=self.queue_depth,
            draining=self._draining,
            worker_id=self.worker_id,
            memory_cache=(self._memory_cache.snapshot()
                          if self._memory_cache is not None else None),
        )

    def render_prometheus(self) -> str:
        """The same metrics as Prometheus text exposition 0.0.4."""
        return self._stats.render_prometheus(
            in_flight=self.in_flight,
            queue_depth=self.queue_depth,
            draining=self._draining,
        )

    # ----------------------------------------------------------------- #
    # submission
    # ----------------------------------------------------------------- #

    async def submit(self, request: SolveRequest) -> ServedReport:
        """Admit, coalesce, and await one solve request.

        Raises:
            RequestRejected: draining, or the admission queue is full.
            UnknownAlgorithmError: the algorithm name is not registered.
            DeadlineExceeded: ``request.timeout_s`` elapsed first.
        """
        if not self._started:
            raise RuntimeError("engine not started; call await engine.start()")
        if self._draining:
            raise RequestRejected("draining", "service is draining")
        if request.algorithm not in self._names:
            raise UnknownAlgorithmError(
                f"unknown algorithm {request.algorithm!r}; "
                f"known: {self.algorithm_names()}"
            )
        key = request.key()
        trace_id = new_trace_id()
        if self._memory_cache is not None:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            report = self._memory_cache.get(key)
            if report is not None:
                lookup = loop.time() - t0
                self._stats.inc("requests")
                served = ServedReport(report=report, cached=True,
                                      seconds=lookup, trace_id=trace_id,
                                      stages={"cache_lookup": lookup},
                                      cache_tier="memory")
                self._stats.finish(served)
                return served
        twin = self._inflight.get(key)
        if twin is not None:
            self._stats.inc("coalesced")
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            served = await self._await_entry(twin, request.timeout_s)
            wait = loop.time() - t0
            # The follower keeps its own identity and wait; the leader's
            # trace (which did the computing) is recorded alongside.
            served = replace(served, coalesced=True, trace_id=trace_id,
                             primary_trace_id=served.trace_id,
                             stages={"coalesce_wait": wait})
            self._stats.finish(served)
            return served
        if request.delta is not None:
            served = self._serve_incremental(request, key, trace_id)
            if served is not None:
                return served
        if self._queue.full():
            self._stats.inc("rejected")
            raise RequestRejected(
                "queue_full",
                f"admission queue full ({self.max_queue} pending)",
            )
        loop = asyncio.get_running_loop()
        entry = _Entry(request=request, key=key,
                       future=loop.create_future(), enqueued=loop.time(),
                       trace_id=trace_id)
        if isinstance(request.graph, GraphRef):
            # Pinned until the dispatch loop resolves this entry: a
            # DELETE racing the solve defers physical eviction, so the
            # job still finds the blob when it attaches.
            self._pin_ref(request.graph.ref)
        self._inflight[key] = entry
        # Cannot raise: fullness was checked above and only this
        # event-loop thread enqueues.
        self._queue.put_nowait(entry)
        self._stats.inc("requests")
        return await self._await_entry(entry, request.timeout_s)

    async def _await_entry(self, entry: _Entry,
                           timeout_s: Optional[float]) -> ServedReport:
        # shield(): wait_for cancels the awaited future on timeout, and
        # this future is shared by every coalesced waiter — one waiter's
        # deadline must not kill the computation for the others.
        try:
            return await asyncio.wait_for(asyncio.shield(entry.future),
                                          timeout_s)
        except asyncio.TimeoutError:
            self._stats.inc("timeouts")
            raise DeadlineExceeded(
                f"deadline of {timeout_s}s exceeded for "
                f"{entry.request.algorithm} (key {entry.key[:12]}…)"
            ) from None

    # ----------------------------------------------------------------- #
    # incremental re-solve (delta-form requests)
    # ----------------------------------------------------------------- #

    def _serve_incremental(self, request: SolveRequest, key: str,
                           trace_id: str) -> Optional[ServedReport]:
        """Try to derive this delta-form request's report from the
        parent's cached one (see :mod:`repro.service.incremental`).

        Returns the served derivation, or ``None`` — counted as
        ``incremental_fallback`` — when the request is ineligible
        (topology edits, weight-sensitive algorithm), no parent report
        is cached, or the cached set fails dirty-region certification.
        """
        from repro.service import incremental as inc

        loop = asyncio.get_running_loop()
        t0 = loop.time()
        if not inc.eligible(request):
            self._stats.inc("incremental_fallback")
            return None
        assert request.delta is not None
        parent_key = request.key_for_fingerprint(request.delta.parent)
        parent_report: Optional[SolveReport] = None
        tier = ""
        if self._memory_cache is not None:
            parent_report = self._memory_cache.get(parent_key)
            tier = "memory"
        if parent_report is None and self.cache_dir:
            parent_report = inc.parent_report_from_disk(
                self.cache_dir, request, policy=self.policy)
            tier = "disk"
        if parent_report is None or not parent_report.ok:
            self._stats.inc("incremental_fallback")
            return None
        cert = inc.certify(request.graph, parent_report.independent_set,
                           request.delta.touched)
        if cert is None:
            self._stats.inc("incremental_fallback")
            return None
        _region, frontier = cert
        report = inc.derive_report(parent_report, request)
        if self._memory_cache is not None:
            # The derived report is the child's canonical report; cache
            # it under the child's own key so later solves (delta-form
            # or not) hit the memory tier directly.
            self._memory_cache.put(key, report)
        seconds = loop.time() - t0
        self._stats.inc("requests")
        served = ServedReport(report=report, cached=True, seconds=seconds,
                              trace_id=trace_id,
                              stages={"incremental": seconds},
                              cache_tier=tier, solve_mode="incremental",
                              dirty_frontier=len(frontier))
        self._stats.finish(served)
        return served

    @staticmethod
    def _frontier_size(request: SolveRequest) -> int:
        """Dirty-frontier size of a delta-form request's child graph."""
        from repro.graphs.delta import dirty_region

        assert request.delta is not None
        _region, frontier = dirty_region(request.graph,
                                         request.delta.touched)
        return len(frontier)

    # ----------------------------------------------------------------- #
    # dispatch
    # ----------------------------------------------------------------- #

    def _make_job(self, request: SolveRequest):
        from repro.simulator.batch import BatchJob

        algorithm: Any = request.algorithm
        if self._registry is not None:
            algorithm = self._registry[request.algorithm]
        # A request that names no backend runs on the default one; the
        # backend chooses how the job runs, and no cache key depends on
        # it.  The disk key names the registry entry, whether the job
        # carries the name or an injected callable.
        return BatchJob(request.graph, algorithm, seed=request.seed,
                        params=dict(request.params), label=request.label,
                        backend=request.backend or None,
                        name=request.algorithm)

    def _new_worker_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers,
                                   initializer=_pool_worker_init)

    def _run_batch(self, jobs: List[Any]):
        """Blocking micro-batch execution; runs on the dispatch thread.

        A pool worker that died (killed, out of memory) breaks the whole
        pool: the pool is replaced and the batch run once more.  Jobs
        are deterministic, so the re-run yields the same reports.
        """
        from repro.simulator.batch import batch_run

        options = dict(
            n_jobs=1 if self._registry is not None else self.workers,
            cache_dir=self.cache_dir,
            policy=self.policy,
        )
        try:
            return batch_run(jobs, executor=self._worker_pool, **options)
        except BrokenProcessPool:
            self._worker_pool.shutdown(wait=False, cancel_futures=True)
            self._worker_pool = self._new_worker_pool()
            return batch_run(jobs, executor=self._worker_pool, **options)

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            entry = await self._queue.get()
            batch = [entry]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            jobs = [self._make_job(e.request) for e in batch]
            dispatched = loop.time()
            try:
                result = await loop.run_in_executor(
                    self._dispatch_pool, self._run_batch, jobs
                )
                outcomes = list(result.outcomes)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — infra failure:
                # resolve every waiter with a failed report instead of
                # wedging the service.
                outcomes = [None] * len(batch)
                infra_error = f"batch dispatch failed: {type(exc).__name__}: {exc}"
            else:
                infra_error = ""
            now = loop.time()
            self._stats.inc("batches")
            for e, outcome in zip(batch, outcomes):
                self._inflight.pop(e.key, None)
                if isinstance(e.request.graph, GraphRef):
                    self._unpin_ref(e.request.graph.ref)
                # Delta-form entries reaching the dispatcher took the
                # full path (ineligible, or incremental fell back).
                delta_marks: Dict[str, Any] = {}
                if e.request.delta is not None:
                    delta_marks = {
                        "solve_mode": "full",
                        "dirty_frontier": self._frontier_size(e.request),
                    }
                # Stage attribution: queue_wait is admission → dispatch;
                # cache_lookup and any run-recorded stages come from the
                # outcome's telemetry; solve is compute performed *for
                # this request* (zero on a cache hit — the stored
                # outcome.seconds timed the original run).
                stages = {"queue_wait": dispatched - e.enqueued}
                if outcome is None:
                    report = _failed_report(e.request, infra_error)
                    served = ServedReport(report=report,
                                          seconds=now - e.enqueued,
                                          trace_id=e.trace_id,
                                          stages=stages,
                                          **delta_marks)
                else:
                    stages.update(outcome.telemetry.get("stages", {}))
                    stages["solve"] = 0.0 if outcome.cached else outcome.seconds
                    report = SolveReport.from_outcome(
                        outcome,
                        graph=e.request.graph,
                        algorithm=e.request.algorithm,
                        params=e.request.params,
                    )
                    served = ServedReport(report=report,
                                          cached=outcome.cached,
                                          seconds=now - e.enqueued,
                                          trace_id=e.trace_id,
                                          stages=stages,
                                          telemetry=outcome.telemetry,
                                          cache_tier=("disk" if outcome.cached
                                                      else ""),
                                          **delta_marks)
                    if report.ok and self._memory_cache is not None:
                        # Both computed results and disk-cache hits fall
                        # through into the memory tier.
                        self._memory_cache.put(e.key, report)
                # An actual solver execution (not served from any cache
                # tier) is what the fleet's exactly-once coalescing test
                # counts across workers.
                self._stats.finish(served, executed=(
                    outcome is not None and not outcome.cached))
                if not e.future.done():
                    e.future.set_result(served)


def _pool_warmup() -> bool:
    """No-op executed in each pool process to force its cold start."""
    return True


def _pool_worker_init() -> None:
    """Keep signals sent to a pool worker in that worker.

    Workers fork from a server whose event loop owns SIGTERM and SIGINT
    through a wakeup fd; inherited as is, a signal to a worker would be
    written into the server's self-pipe and handled as the server's
    own, and the worker itself would ignore it.  SIGTERM gets its
    default action back.  SIGINT is ignored: a terminal Ctrl-C reaches
    the whole process group, and the server drains and shuts the pool
    down itself.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _failed_report(request: SolveRequest, error: str) -> SolveReport:
    return SolveReport(
        algorithm=request.algorithm,
        seed=request.seed,
        graph_fingerprint=request.graph.fingerprint(),
        ok=False,
        independent_set=(),
        weight=0.0,
        rounds=0,
        messages=0,
        total_bits=0,
        metrics=None,
        params=dict(request.params),
        error=error,
        label=request.label,
    )
