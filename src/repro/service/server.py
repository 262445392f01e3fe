"""Stdlib-only asyncio HTTP front end for the solver engine.

``repro serve`` binds this server to a host/port.  The API is small and
versioned:

* ``POST /v1/solve`` — body is a :class:`repro.api.SolveRequest` JSON
  document (schema **v2**: the graph is a tagged union
  ``{"inline": ...} | {"ref": fp} | {"delta": {"parent": fp, "ops":
  [...]}}``; a body with no ``schema`` or ``"schema": "v1"`` is a 400).
  The response envelope is ``{"schema": "v2", "report": ...,
  "served": {...}}`` where ``report`` is the *canonical* solve report
  (byte-identical to ``repro.api.solve``) and ``served`` carries cache /
  coalescing / latency provenance — plus, for delta-form requests,
  ``solve_mode`` (``"incremental"``/``"full"``) and the
  ``dirty_frontier`` size.  Unknown refs → 404; deltas contradicting
  the parent's state → 409.
* ``POST /v1/graphs`` — register a graph (binary CSR blob or JSON graph
  document) in the content-addressed graph store; returns its
  ``graph_ref`` (the graph fingerprint).  ``GET /v1/graphs/<ref>``
  describes a stored graph; ``DELETE /v1/graphs/<ref>`` evicts it
  (deferred past in-flight solves that pin it — the response says
  ``"deferred": true``).  ``POST /v1/graphs/<ref>/deltas`` applies an
  edit script to a stored graph and registers the child under its own
  fingerprint, byte-identical to registering the edited graph from
  scratch.
* ``GET /v1/health`` — liveness plus drain state and the worker id.
* ``GET /v1/ready`` — readiness: 503 while draining or before the
  engine's worker pool is warm, 200 otherwise.  Liveness and readiness
  are deliberately split so a router can keep a live-but-draining
  worker out of rotation without treating it as crashed.
* ``GET /v1/metrics`` — serving aggregates (in-flight, queue depth,
  cache-hit rate, p50/p95/p99 latency, per-stage histograms, fleet
  fallbacks) as JSON; ``?format=prometheus`` serves the same registry as
  Prometheus text exposition format 0.0.4.
* ``GET /v1/algorithms`` — the registry with parameter signatures.

Every 200 solve response carries serving telemetry: ``served.trace_id``
(the request's identity), ``served.stages`` (per-stage latency
breakdown including response serialization), and for coalesced
followers ``served.primary_trace_id`` — see docs/observability.md.

Every non-200 response speaks the unified error taxonomy of
:mod:`repro.service.errors` — ``{"error": {"code": "<stable-string>",
"message": ..., "detail": ...}}`` — shared verbatim with the fleet
router.  Status mapping: schema/graph/algorithm errors → 400
(``bad_request``), unknown route/ref → 404 (``not_found``), wrong
method → 405 (``method_not_allowed``, with ``Allow``), delta conflicts
→ 409 (``conflict``), admission-queue full → 429 (``queue_full``),
draining → 503 (``unavailable``), deadline exceeded → 504
(``deadline_exceeded``), oversized body or a graph declaring more than
``MAX_GRAPH_NODES`` nodes → 413 (``payload_too_large``).

The wire format lives in :mod:`repro.service.http`, shared verbatim
with the fleet router: this module is a route table plus handlers.
Malformed framing (bad request line or ``Content-Length``, header
floods, over-long lines, a body cut short) is a taxonomy 400 — 413 for
a body over 32 MiB — followed by a close; ``HEAD`` works on every
``GET`` route and sends headers only.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from time import perf_counter
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro._version import __version__
from repro.api import (
    SCHEMA_VERSION,
    SchemaError,
    SolveRequest,
    describe_algorithms,
)
from repro.exceptions import GraphFormatError
from repro.graphs.delta import DeltaConflictError, GraphDelta
from repro.graphs.specs import declared_nodes
from repro.graphs.store import GraphRef, UnknownGraphRef
from repro.service.cache import LruCache
from repro.service.engine import (
    DeadlineExceeded,
    RequestRejected,
    SolverEngine,
    UnknownAlgorithmError,
)
from repro.service.errors import error_doc
from repro.service.http import Call, HttpServer, RouteTable

__all__ = ["SolverServer", "serve"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
# Largest graph a request may declare (inline node list or generator
# spec) before it is rejected with 413 — checked *before* the graph is
# materialized, so a gnp:10**9 spec never reaches the generator.
MAX_GRAPH_NODES = 1_000_000


def v1_routes(door: Any) -> RouteTable:
    """The ``/v1`` route table over ``door``'s handlers.  The worker
    server and the fleet router both serve it, so their 404s, 405s and
    ``Allow`` headers agree by construction."""
    return RouteTable({
        "/v1/solve": {"POST": door._solve},
        "/v1/graphs": {"POST": door._register_graph},
        "/v1/graphs/{}": {"GET": door._describe_graph,
                          "DELETE": door._evict_graph},
        "/v1/graphs/{}/deltas": {"POST": door._register_delta},
        "/v1/health": {"GET": door._health},
        "/v1/ready": {"GET": door._ready},
        "/v1/metrics": {"GET": door._metrics},
        "/v1/algorithms": {"GET": door._algorithms},
    })


class SolverServer(HttpServer):
    """One listening socket in front of one :class:`SolverEngine`."""

    def __init__(self, engine: SolverEngine, *, host: str = "127.0.0.1",
                 port: int = 0, parse_cache: int = 512) -> None:
        super().__init__(host, port)
        self.engine = engine
        # Body-bytes → parsed SolveRequest memo: repeated identical
        # bodies (the cache-heavy serving regime) skip JSON decoding and
        # graph materialization entirely.  Parsing is deterministic and
        # SolveRequest is frozen, so reuse is safe.
        self._parse_cache: Optional[LruCache] = (
            LruCache(parse_cache) if parse_cache > 0 else None
        )
        self.routes = v1_routes(self)

    async def start(self) -> int:
        """Bind and listen; returns the actual port (resolves port 0)."""
        await self.engine.start()
        return await super().start()

    async def shutdown(self) -> None:
        """Graceful drain: stop admitting, finish in-flight, close."""
        self.engine.begin_drain()
        self._stop_listening()
        await self.engine.drain()
        # In-flight responses are written by connection tasks; give them
        # a beat to flush, then drop idle keep-alive connections.
        await self._close_connections()
        await self.engine.aclose()

    # ----------------------------------------------------------------- #
    # service endpoints
    # ----------------------------------------------------------------- #

    async def _health(self, _call: Call) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "schema": SCHEMA_VERSION,
            "status": "draining" if self.engine.draining else "ok",
            "version": __version__,
            "worker_id": self.engine.worker_id,
        }

    async def _ready(self, _call: Call) -> Tuple[int, Dict[str, Any]]:
        if self.engine.ready:
            status, state = 200, "ready"
        else:
            status = 503
            state = "draining" if self.engine.draining else "warming"
        return status, {
            "schema": SCHEMA_VERSION,
            "status": state,
            "worker_id": self.engine.worker_id,
        }

    async def _metrics(self, call: Call) -> Tuple[Any, ...]:
        """JSON by default; ``?format=prometheus`` is the only non-JSON
        payload the server produces."""
        fmt = (parse_qs(call.query).get("format") or ["json"])[-1]
        if fmt == "prometheus":
            return (200, self.engine.render_prometheus(),
                    PROMETHEUS_CONTENT_TYPE)
        if fmt != "json":
            return error_doc(400, f"unknown metrics format {fmt!r}; "
                                  f"use 'json' or 'prometheus'")
        return 200, self.engine.metrics_snapshot()

    async def _algorithms(self, _call: Call) -> Tuple[int, Dict[str, Any]]:
        return 200, {"schema": SCHEMA_VERSION,
                     "algorithms": describe_algorithms()}

    # ----------------------------------------------------------------- #
    # the graph plane: register once, solve by reference
    # ----------------------------------------------------------------- #

    async def _register_graph(self,
                              call: Call) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/graphs`` — ingest a graph into the engine's
        content-addressed store and return its ``graph_ref``.

        Two body encodings, distinguished by content sniffing (the binary
        blob format is magic-prefixed, so no header plumbing is needed):

        * the binary CSR blob of :func:`repro.graphs.io.to_bytes`;
        * a JSON graph document (inline ``nodes``/``edges`` or a
          generator ``spec``, exactly the forms ``/v1/solve`` accepts
          inline).
        """
        from repro import blob

        body = call.body
        store = self.engine.graph_store
        if body[:8] == blob.MAGIC:
            # Size admission without materializing: the blob header
            # carries the node count.
            try:
                from repro.graphs.store import _blob_meta

                declared = int(_blob_meta(body).get("n", 0))
            except (GraphFormatError, TypeError, ValueError) as exc:
                return error_doc(400, f"bad graph blob: {exc}")
            if declared > MAX_GRAPH_NODES:
                return error_doc(
                    413, f"graph declares {declared} nodes; this server "
                         f"accepts at most {MAX_GRAPH_NODES}")
            try:
                ref = store.put_bytes(body)
            except GraphFormatError as exc:
                return error_doc(400, str(exc))
        else:
            try:
                doc = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError, RecursionError) as exc:
                return error_doc(
                    400, f"graph body is neither a repro blob nor valid "
                         f"JSON: {exc}")
            oversized = self._graph_too_large({"graph": doc})
            if oversized is not None:
                return error_doc(413, oversized)
            from repro.api import graph_from_doc

            try:
                graph = graph_from_doc(doc)
            except SchemaError as exc:
                return error_doc(400, str(exc))
            if graph.n > MAX_GRAPH_NODES:
                return error_doc(
                    413, f"graph has {graph.n} nodes; this server accepts "
                         f"at most {MAX_GRAPH_NODES}")
            ref = store.put(graph)
        return 200, {
            "schema": SCHEMA_VERSION,
            "graph_ref": ref.ref,
            "n": ref.n,
            "m": ref.m,
        }

    async def _register_delta(self, call: Call,
                              ref: str) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/graphs/<ref>/deltas`` — apply an edit script to a
        stored graph and register the child under its own fingerprint.

        The body is ``{"ops": [...]}`` (or a bare ops list) in the
        :class:`~repro.graphs.delta.GraphDelta` vocabulary.  Responds
        with the child's ``graph_ref`` — byte-identical to registering
        the from-scratch edited graph — plus the lineage.  Malformed
        ops → 400, unknown/evicted parent → 404, edits contradicting
        the parent's state → 409.
        """
        try:
            if not self.engine.ref_alive(ref):
                return error_doc(404, f"unknown graph_ref {ref!r}",
                                 detail=ref)
        except GraphFormatError as exc:
            return error_doc(400, str(exc))
        try:
            doc = json.loads(call.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            return error_doc(400, f"delta body is not valid JSON: {exc}")
        try:
            delta = GraphDelta.from_doc(doc)
        except DeltaConflictError as exc:
            # Op-shape problems are a bad request; only edits that
            # contradict the parent's actual state are conflicts.
            return error_doc(400, str(exc))
        try:
            child = self.engine.graph_store.put_delta(ref, delta)
        except UnknownGraphRef as exc:
            return error_doc(404, str(exc), detail=ref)
        except DeltaConflictError as exc:
            return error_doc(409, str(exc), detail=delta.fingerprint())
        except GraphFormatError as exc:
            return error_doc(400, str(exc))
        return 200, {
            "schema": SCHEMA_VERSION,
            "graph_ref": child.ref,
            "parent": ref,
            "n": child.n,
            "m": child.m,
            "ops": len(delta),
            "weight_only": delta.weight_only,
            "delta_fingerprint": delta.fingerprint(),
        }

    async def _describe_graph(self, _call: Call,
                              ref: str) -> Tuple[int, Dict[str, Any]]:
        try:
            if not self.engine.ref_alive(ref):
                return error_doc(404, f"unknown graph_ref {ref!r}",
                                 detail=ref)
            info = self.engine.graph_store.describe(ref)
        except UnknownGraphRef as exc:
            return error_doc(404, str(exc), detail=ref)
        except GraphFormatError as exc:
            return error_doc(400, str(exc))
        return 200, {"schema": SCHEMA_VERSION, "graph_ref": ref,
                     "n": info["n"], "m": info["m"],
                     "nbytes": info["nbytes"]}

    async def _evict_graph(self, _call: Call,
                           ref: str) -> Tuple[int, Dict[str, Any]]:
        try:
            result = self.engine.evict_graph(ref)
        except GraphFormatError as exc:
            return error_doc(400, str(exc))
        doc = {"schema": SCHEMA_VERSION, "graph_ref": ref,
               "evicted": result["evicted"]}
        if result.get("deferred"):
            # An admitted solve still pins the ref; it is logically
            # gone (new lookups 404) and physically removed when the
            # last pinned solve resolves.
            doc["deferred"] = True
        return 200, doc

    async def _solve(self, call: Call) -> Tuple[int, Dict[str, Any]]:
        body = call.body
        request: Optional[SolveRequest] = None
        body_key = ""
        if self._parse_cache is not None:
            body_key = hashlib.sha256(body).hexdigest()
            request = self._parse_cache.get(body_key)
        if request is None:
            try:
                doc = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError, RecursionError) as exc:
                return error_doc(400, f"request is not valid JSON: {exc}")
            # Admission control before the graph materializes: a request
            # may declare its size either inline (nodes list) or via a
            # generator spec; both are checked up front so an oversized
            # graph is a clean 413, not a memory blow-up deep in the
            # engine.
            oversized = self._graph_too_large(doc)
            if oversized is not None:
                return error_doc(413, oversized)
            parent = self._delta_parent(doc)
            if parent is not None and not self._ref_is_alive(parent):
                # A delta names its parent by ref; a logically evicted
                # parent must 404 even while a pinned in-flight solve
                # keeps the bytes mapped.
                return error_doc(404, f"unknown graph_ref {parent!r}",
                                 detail=parent)
            try:
                request = SolveRequest.from_doc(
                    doc, store=self.engine.graph_store)
            except UnknownGraphRef as exc:
                return error_doc(404, str(exc))
            except DeltaConflictError as exc:
                # The edit script contradicts the parent's actual state
                # (duplicate node, missing edge, ...): the request is
                # well-formed but unappliable — a conflict, not a
                # schema error.
                return error_doc(409, str(exc))
            except SchemaError as exc:
                return error_doc(400, str(exc))
            if self._parse_cache is not None:
                self._parse_cache.put(body_key, request)
        if isinstance(request.graph, GraphRef):
            # Re-check liveness on parse-cache hits: the ref may have
            # been evicted since the request was first parsed.
            if not self.engine.ref_alive(request.graph.ref):
                return error_doc(
                    404, f"unknown graph_ref {request.graph.ref!r}")
            if request.graph.n > MAX_GRAPH_NODES:
                return error_doc(
                    413, f"graph {request.graph.ref[:12]}… has "
                         f"{request.graph.n} nodes; this server accepts "
                         f"at most {MAX_GRAPH_NODES}")
        try:
            served = await self.engine.submit(request)
        except UnknownAlgorithmError as exc:
            return error_doc(400, str(exc))
        except RequestRejected as exc:
            status = 503 if exc.reason == "draining" else 429
            return error_doc(status, str(exc))
        except DeadlineExceeded as exc:
            return error_doc(504, str(exc))
        # Serialization is the last serving stage a request pays; timed
        # here (the engine never sees the wire form) and folded into the
        # same stage histogram as the engine-side stages.
        t0 = perf_counter()
        report_doc = served.report.to_doc()
        serialize_s = perf_counter() - t0
        stages = dict(served.stages)
        stages["serialize"] = serialize_s
        self.engine.stats.observe_stages({"serialize": serialize_s})
        served_doc: Dict[str, Any] = {
            "cached": served.cached,
            "coalesced": served.coalesced,
            "seconds": served.seconds,
            "trace_id": served.trace_id,
            "stages": stages,
        }
        if served.primary_trace_id:
            served_doc["primary_trace_id"] = served.primary_trace_id
        if served.cache_tier:
            served_doc["cache_tier"] = served.cache_tier
        if served.solve_mode:
            served_doc["solve_mode"] = served.solve_mode
            if served.dirty_frontier >= 0:
                served_doc["dirty_frontier"] = served.dirty_frontier
        if self.engine.worker_id:
            served_doc["worker_id"] = self.engine.worker_id
        return 200, {
            "schema": SCHEMA_VERSION,
            "report": report_doc,
            "served": served_doc,
        }

    def _ref_is_alive(self, ref: str) -> bool:
        try:
            return self.engine.ref_alive(ref)
        except GraphFormatError:
            # Malformed ref strings fail schema validation downstream
            # with a better message.
            return True

    @staticmethod
    def _delta_parent(doc: Any) -> Optional[str]:
        """The parent ref named by a schema-v2 delta-form request doc,
        or ``None`` for every other shape."""
        if not isinstance(doc, dict):
            return None
        graph = doc.get("graph")
        if not isinstance(graph, dict):
            return None
        delta = graph.get("delta")
        if isinstance(delta, dict) and isinstance(delta.get("parent"), str):
            return delta["parent"]
        return None

    @staticmethod
    def _graph_too_large(doc: Any) -> Optional[str]:
        """A 413 message if the request's graph declares more than
        ``MAX_GRAPH_NODES`` nodes, else ``None`` (including documents too
        malformed to judge — schema validation owns those)."""
        if not isinstance(doc, dict):
            return None
        graph = doc.get("graph")
        if not isinstance(graph, dict):
            return None
        # Schema-v2 tagged union: the size-bearing shapes live one level
        # down under "inline"; "ref" sizes are checked post-parse and
        # "delta" sizes are bounded by the parent (already admitted).
        if isinstance(graph.get("inline"), dict):
            graph = graph["inline"]
        declared: Optional[int] = None
        if "spec" in graph:
            declared = declared_nodes(str(graph["spec"]))
        elif isinstance(graph.get("nodes"), list):
            declared = len(graph["nodes"])
        if declared is not None and declared > MAX_GRAPH_NODES:
            return (f"graph declares {declared} nodes; this server accepts "
                    f"at most {MAX_GRAPH_NODES}")
        return None


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8008,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    max_queue: int = 64,
    max_batch: int = 8,
    banner: bool = True,
    memory_cache: int = 0,
    worker_id: str = "",
    graph_store: Optional[str] = None,
) -> int:
    """Blocking entry point of ``repro serve``.

    Runs until SIGTERM/SIGINT, then drains in-flight requests before
    returning.  ``port=0`` binds an ephemeral port (printed in the
    startup banner — how the CI smoke finds it).  ``memory_cache`` sizes
    the in-memory LRU report cache (0 disables it); ``worker_id`` tags
    this process in health payloads and served envelopes when it runs as
    a fleet worker; ``graph_store`` points the content-addressed graph
    store at a directory (shared across a fleet so a graph registered on
    any worker resolves on all of them).
    """
    engine = SolverEngine(workers=workers, cache_dir=cache_dir,
                          max_queue=max_queue, max_batch=max_batch,
                          memory_cache=memory_cache, worker_id=worker_id,
                          graph_store=graph_store)
    server = SolverServer(engine, host=host, port=port)
    asyncio.run(server.run_until_signal(
        name="repro-serve", detail=f"schema {SCHEMA_VERSION}",
        draining="draining in-flight requests", banner=banner))
    return 0
