"""Layer spans for the traced server, and their folding into metrics.

:func:`install` wraps layer functions of an unmodified ``repro`` tree
before the server starts (see ``launcher.py``).  Each function is
wrapped where it is looked up at call time: a class attribute, or the
module global the caller reads.  Every wrapped call records a span
(name, start, end, parent); spans of one server operation hang off the
operation's root span through a context variable, which follows asyncio
tasks and stays separate per thread.  Counts that ratios need are
recorded as events at the same boundaries.  Nothing is written until
the server drains, when :meth:`Recorder.dump` saves it all.

:func:`fold` turns a dump into per-layer metrics: a layer's self time is
its spans' time minus the time of their child spans, summed over the
timed phase and divided by the operations the client completed.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import defaultdict
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "agg")

    def __init__(self, sid: int, parent: Optional["Span"], name: str,
                 t0: float) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = 0.0
        # Time of calls too frequent for a span each (first-use RNG
        # construction), folded into the span that made them.
        self.agg = 0.0


class Recorder:
    """In-memory spans and events of one traced server process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[Tuple[str, float, float]] = []
        self.current: ContextVar[Optional[Span]] = ContextVar(
            "servebench_span", default=None)
        self._ids = itertools.count(1)

    def open(self, name: str, t0: Optional[float] = None):
        span = Span(next(self._ids), self.current.get(), name,
                    perf_counter() if t0 is None else t0)
        return span, self.current.set(span)

    def close(self, span: Span, token) -> None:
        span.t1 = perf_counter()
        self.current.reset(token)
        self.spans.append(span)

    def event(self, name: str, value: float = 1.0,
              t: Optional[float] = None) -> None:
        self.events.append((name, perf_counter() if t is None else t, value))

    def sync(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span, token)
        return wrapper

    def coro(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span, token = self.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.close(span, token)
        return wrapper

    def dump(self, path: str) -> None:
        spans = [[s.sid, s.parent.sid if s.parent else 0, s.name, s.t0, s.t1,
                  s.agg] for s in self.spans if s.t1]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "events": self.events}, fh)


class _ArrivalClock:
    """Stands in for the server's stream reader to note when the first
    line of a request arrived: the time before it is idle keep-alive
    waiting, not work."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.arrived: Optional[float] = None

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if self.arrived is None:
            self.arrived = perf_counter()
        return line

    async def readexactly(self, n: int) -> bytes:
        return await self._reader.readexactly(n)


def install(rec: Recorder) -> None:
    """Wrap the layer functions of the ``repro`` package in ``rec``."""
    import repro.api as api
    import repro.fleet.base as fleet_base
    import repro.graphs.delta as delta
    import repro.graphs.store as store
    import repro.service.engine as engine
    import repro.service.incremental as incremental
    import repro.service.server as server
    import repro.simulator.batch as batch
    import repro.simulator.columnar as columnar
    import repro.simulator.runner as runner
    from repro.graphs.weighted_graph import WeightedGraph

    # -- server: one root span per HTTP request, from the arrival of its
    # first line until its reply is written.
    srv = server.SolverServer
    read_request, route, write_response = (
        srv._read_request, srv._route, srv._write_response)

    async def traced_read(self, reader):
        clock = _ArrivalClock(reader)
        parsed = await read_request(self, clock)
        if parsed is not None and clock.arrived is not None:
            op = Span(next(rec._ids), None, "op", clock.arrived)
            rec.current.set(op)  # cleared when the reply is written
            read = Span(next(rec._ids), op, "server.read", clock.arrived)
            read.t1 = perf_counter()
            rec.spans.append(read)
        return parsed

    traced_route = rec.coro("server.route", route)

    async def route_counted(self, method, path, body):
        if path.partition("?")[0] == "/v1/solve":
            rec.event("server.solve")
        return await traced_route(self, method, path, body)

    traced_write = rec.coro("server.write", write_response)

    async def write_closing_op(self, *args, **kwargs):
        try:
            return await traced_write(self, *args, **kwargs)
        finally:
            op = rec.current.get()
            if op is not None and op.name == "op":
                op.t1 = perf_counter()
                rec.spans.append(op)
                rec.current.set(None)

    srv._read_request = traced_read
    srv._route = route_counted
    srv._write_response = write_closing_op

    # -- api
    req, rep = api.SolveRequest, api.SolveReport
    req.from_doc = classmethod(rec.sync("api.decode", req.from_doc.__func__))
    req.key = rec.sync("api.key", req.key)
    rep.from_outcome = classmethod(
        rec.sync("api.report_build", rep.from_outcome.__func__))
    rep.to_doc = rec.sync("api.report_doc", rep.to_doc)

    # -- graphs
    api._graph_from_inline_doc = rec.sync("graphs.io.decode",
                                          api._graph_from_inline_doc)
    api.apply_delta_info = rec.sync("graphs.delta.apply",
                                    api.apply_delta_info)
    delta.apply_delta_info = rec.sync("graphs.delta.apply",
                                      delta.apply_delta_info)
    first_fingerprint = rec.sync("graphs.fingerprint",
                                 WeightedGraph.fingerprint)

    def fingerprint(self):
        # Memoized after the first call; only that one does the hashing.
        return self._fingerprint or first_fingerprint(self)

    WeightedGraph.fingerprint = fingerprint
    store.GraphStore.attach = rec.sync("graphs.store.attach",
                                       store.GraphStore.attach)
    store.GraphRef.resolve = rec.sync("graphs.store.attach",
                                      store.GraphRef.resolve)
    for method in ("put", "put_bytes", "put_delta"):
        setattr(store.GraphStore, method, rec.sync(
            "graphs.store.put", getattr(store.GraphStore, method)))

    # -- engine: admission and memory tier; queue wait is measured from
    # submit() entry to the start of the batch that carries the request.
    eng = engine.SolverEngine
    submitted: Dict[int, float] = {}
    job_submitted: Dict[int, float] = {}
    submit, make_job, run_batch = eng.submit, eng._make_job, eng._run_batch
    traced_submit = rec.coro("engine.submit", submit)

    async def submit_counted(self, request):
        t0 = perf_counter()
        submitted.setdefault(id(request), t0)
        try:
            served = await traced_submit(self, request)
        finally:
            submitted.pop(id(request), None)
        rec.event("engine.submit", 1, t0)
        rec.event("engine.memory_hit", float(served.cache_tier == "memory"),
                  t0)
        rec.event("engine.coalesced", float(served.coalesced), t0)
        if request.delta is not None:
            rec.event("incremental.served",
                      float(served.solve_mode == "incremental"), t0)
        return served

    def make_job_noted(self, request):
        job = make_job(self, request)
        if id(request) in submitted:
            job_submitted[id(job)] = submitted[id(request)]
        return job

    traced_batch = rec.sync("batch.run", run_batch)

    def run_batch_noted(self, jobs):
        t0 = perf_counter()
        rec.event("engine.batch", len(jobs), t0)
        for job in jobs:
            entered = job_submitted.pop(id(job), None)
            if entered is not None:
                rec.event("engine.queue_wait", t0 - entered, t0)
        return traced_batch(self, jobs)

    eng.submit = submit_counted
    eng._await_entry = rec.coro("engine.wait", eng._await_entry)
    eng._make_job = make_job_noted
    eng._run_batch = run_batch_noted
    incremental.certify = rec.sync("incremental.certify", incremental.certify)
    incremental.derive_report = rec.sync("incremental.derive",
                                         incremental.derive_report)

    # -- batch: both disk tiers, and the registry callables.
    cache_load = rec.sync("batch.disk_lookup", batch._cache_load)

    def cache_load_counted(*args, **kwargs):
        hit = cache_load(*args, **kwargs)
        rec.event("batch.disk_load", float(hit is not None))
        return hit

    batch._cache_load = cache_load_counted
    batch._cache_store = rec.sync("batch.disk_store", batch._cache_store)
    registry = batch._algorithm_registry

    def traced_registry():
        return {name: rec.sync("core.solve", fn)
                for name, fn in registry().items()}

    batch._algorithm_registry = traced_registry

    # -- execution backends
    runner._execute_per_node = rec.sync("runner.execute",
                                        runner._execute_per_node)
    columnar.ColumnarBackend.execute = rec.sync(
        "columnar.execute", columnar.ColumnarBackend.execute)
    gen = fleet_base.FleetRun.gen

    def first_gen(self, slot):
        # A node's first draw builds its PCG64 stream (the very first one
        # also spawns every node's seed via spawn_node_seeds).
        if self._gens[slot] is not None:
            return gen(self, slot)
        t0 = perf_counter()
        try:
            return gen(self, slot)
        finally:
            span = rec.current.get()
            if span is not None:
                span.agg += perf_counter() - t0

    fleet_base.FleetRun.gen = first_gen


# --------------------------------------------------------------------- #
# folding
# --------------------------------------------------------------------- #

# Span names whose self time is a layer metric, by metric name.
TIMED_LAYERS = {
    "api.decode_ms": ("api.decode",),
    "api.key_ms": ("api.key",),
    "api.report_build_ms": ("api.report_build",),
    "api.report_doc_ms": ("api.report_doc",),
    "graphs.io.decode_ms": ("graphs.io.decode",),
    "graphs.fingerprint_ms": ("graphs.fingerprint",),
    "graphs.store.attach_ms": ("graphs.store.attach",),
    "graphs.store.put_ms": ("graphs.store.put",),
    "graphs.delta.apply_ms": ("graphs.delta.apply",),
    "engine.submit_ms": ("engine.submit",),
    "incremental.certify_ms": ("incremental.certify",),
    "incremental.derive_ms": ("incremental.derive",),
    "batch.disk_lookup_ms": ("batch.disk_lookup",),
    "batch.disk_store_ms": ("batch.disk_store",),
    "core.solve_ms": ("core.solve",),
    "runner.execute_ms": ("runner.execute",),
    "columnar.execute_ms": ("columnar.execute",),
    "server.self_ms": ("server.read", "server.route", "server.write"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def fold(doc: Dict[str, Any], start: float, end: float,
         ops: int) -> Dict[str, float]:
    """Per-layer metrics of the spans and events in ``[start, end]``.

    ``ms`` metrics are mean self time per client operation.  The root
    span of each HTTP request counts toward ``server.unattributed_ms``
    for the part of it that no server span covers.
    """
    spans = doc["spans"]
    child_time: Dict[int, float] = defaultdict(float)
    by_id: Dict[int, Tuple[int, str]] = {}
    for sid, parent, name, t0, t1, _agg in spans:
        by_id[sid] = (parent, name)
        if parent:
            child_time[parent] += t1 - t0
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    fell_back = set()
    for sid, parent, name, t0, t1, agg in spans:
        if not start <= t0 <= end:
            continue
        self_s[name] += (t1 - t0) - child_time[sid] - agg
        self_s["columnar.rng"] += agg
        calls[name] += 1
        if name == "runner.execute":
            # A per-node run under a columnar one is a columnar fallback.
            node = parent
            while node:
                up, pname = by_id.get(node, (0, ""))
                if pname == "columnar.execute":
                    fell_back.add(node)
                    break
                node = up
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for name, t, value in doc["events"]:
        if start <= t <= end:
            totals[name] += value
            counts[name] += 1

    def per_op_ms(seconds: float) -> float:
        return seconds * 1000.0 / ops

    out = {metric: per_op_ms(sum(self_s[n] for n in names))
           for metric, names in TIMED_LAYERS.items()}
    out.update({
        "server.unattributed_ms": per_op_ms(self_s["op"]),
        "server.parse_hit_ratio": (
            1.0 - _ratio(calls["api.decode"], counts["server.solve"])
            if counts["server.solve"] else 0.0),
        "graphs.delta.apply_calls": calls["graphs.delta.apply"] / ops,
        "engine.queue_wait_ms": per_op_ms(totals["engine.queue_wait"]),
        "engine.memory_hit_ratio": _ratio(totals["engine.memory_hit"],
                                          counts["engine.submit"]),
        "engine.coalesced_ratio": _ratio(totals["engine.coalesced"],
                                         counts["engine.submit"]),
        "engine.batch_jobs": _ratio(totals["engine.batch"],
                                    counts["engine.batch"]),
        "incremental.served_ratio": _ratio(totals["incremental.served"],
                                           counts["incremental.served"]),
        "batch.disk_hit_ratio": _ratio(totals["batch.disk_load"],
                                       counts["batch.disk_load"]),
        "runner.calls": calls["runner.execute"] / ops,
        "columnar.rng_ms": per_op_ms(self_s["columnar.rng"]),
        "columnar.fallback_ratio": _ratio(len(fell_back),
                                          calls["columnar.execute"]),
    })
    return out
