"""The fleet router: one HTTP front door, N sharded solver workers.

``repro fleet`` binds this router.  ``POST /v1/solve`` is forwarded to
the worker that owns the request's shard —
``sha256(SolveRequest.key())`` modulo the worker count
(:func:`repro.service.fleet.routing.shard_for_key`) — so every
identical request lands on the same worker regardless of which client
sent it or when.  That placement is the whole point: the per-worker
coalescer still collapses concurrent twins and the per-worker memory
LRU still sees its repeats, i.e. coalescing and cache locality survive
sharding.

Routing is cheap on the hot path: the router keeps a body-bytes →
shard-key LRU, so a repeated request body costs one sha256 of the raw
bytes, not a JSON parse.  ``graph_ref`` requests are cheaper still —
the ref *is* the graph fingerprint, so the shard key falls out of the
tiny JSON body without materializing a graph (and co-locates with
body-based twins of the same graph, because the fingerprints agree).
Unparseable or schema-invalid bodies are sharded by their body hash
instead and forwarded anyway — the worker owns the canonical 400, the
router never duplicates that logic.  Oversized graph declarations are
the one exception (413 at the router, before any bytes cross to a
worker).

The graph registry (``/v1/graphs``) is proxied too: workers share one
content-addressed store directory, so registration and lookup forward
to any alive worker, while ``DELETE`` broadcasts so every worker drops
its in-process attach state.

Failover: if the owning worker is down, the request walks to the next
alive worker (placement degrades for exactly the keys owned by the dead
shard, correctness never does — any worker can solve any request).  A
worker the router cannot reach is marked dead; a background reaper asks
the supervisor to replace every dead or marked worker once a second.

``GET /v1/metrics`` scrapes every worker and serves the merged fleet
document (:mod:`repro.service.fleet.aggregate`); ``?format=prometheus``
is the same state as one text exposition.  ``/v1/health`` and
``/v1/ready`` aggregate worker health; the router itself drains on
SIGTERM by refusing new work, draining the workers, then exiting.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro._version import __version__
from repro.api import (
    SCHEMA_VERSION,
    SchemaError,
    SolveRequest,
    delta_route_key_from_doc,
    request_key_from_doc,
)
from repro.service.cache import LruCache
from repro.service.errors import error_doc
from repro.service.fleet.aggregate import (
    aggregate_snapshots,
    render_fleet_prometheus,
)
from repro.service.fleet.routing import shard_for_key
from repro.service.fleet.supervisor import FleetSupervisor
from repro.service.http import (
    JSON_CONTENT_TYPE,
    BackgroundServer,
    Call,
    HttpClient,
    HttpServer,
    Reply,
)
from repro.service.server import (
    PROMETHEUS_CONTENT_TYPE,
    SolverServer,
    v1_routes,
)

__all__ = ["FleetRouter", "run_fleet", "start_fleet"]

# Worker-side request timeout the router enforces on proxied calls
# (workers enforce per-request deadlines themselves; this is the
# backstop against a hung worker socket).
PROXY_TIMEOUT_S = 300.0
HEALTH_TIMEOUT_S = 5.0
REAP_INTERVAL_S = 1.0


class FleetRouter(HttpServer):
    """Shard-routing HTTP proxy over a supervisor's worker pool."""

    def __init__(self, supervisor: Any, *, host: str = "127.0.0.1",
                 port: int = 0, routing_cache: int = 4096) -> None:
        super().__init__(host, port)
        self.supervisor = supervisor
        self._endpoints = supervisor.endpoints()
        self._clients = [HttpClient(e.host, e.port) for e in self._endpoints]
        self._reaper: Optional[asyncio.Task] = None
        self._draining = False
        # body sha256 → shard key: repeats skip the JSON parse.
        self._routing_cache: Optional[LruCache] = (
            LruCache(routing_cache) if routing_cache > 0 else None
        )
        self.stats: Dict[str, int] = {
            "routed": 0, "failovers": 0, "routing_cache_hits": 0,
            "parse_routed": 0, "ref_routed": 0, "delta_routed": 0,
            "body_routed": 0, "upstream_errors": 0, "restarts": 0,
        }
        self.routes = v1_routes(self)

    @property
    def shards(self) -> int:
        return len(self._endpoints)

    # ----------------------------------------------------------------- #
    # lifecycle
    # ----------------------------------------------------------------- #

    async def start(self) -> int:
        port = await super().start()
        self._reaper = asyncio.get_running_loop().create_task(
            self._reap_loop())
        return port

    async def shutdown(self) -> None:
        """Stop admitting, drain the workers, close every connection."""
        self._draining = True
        loop = asyncio.get_running_loop()
        try:
            if self._reaper is not None:
                self._reaper.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._reaper
            self._stop_listening()
            # Parked keep-alive connections are closed before the
            # workers drain, so a draining worker has no idle router
            # connection to wait out; the second pass closes the ones
            # requests finishing during the drain handed back.
            await self._close_clients()
            await loop.run_in_executor(None, self.supervisor.drain)
        finally:
            # A no-op after a clean drain; otherwise no worker outlives
            # the router.
            await loop.run_in_executor(None, self.supervisor.stop)
        await self._close_connections()
        await self._close_clients()

    async def _close_clients(self) -> None:
        for client in self._clients:
            await client.close()

    async def _reap_loop(self) -> None:
        """Replace crashed and marked-dead workers in the background
        (supervisor.check is blocking — kill, respawn, readiness poll —
        so it runs in the default executor, never on the event loop)."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(REAP_INTERVAL_S)
            try:
                restarted = await loop.run_in_executor(
                    None, self.supervisor.check)
            except Exception:  # noqa: BLE001 — reaping must not die
                continue
            if restarted:
                self.stats["restarts"] += len(restarted)

    async def _request(self, index: int, method: str, path: str,
                       body: bytes = b"", *,
                       timeout_s: float = PROXY_TIMEOUT_S,
                       probe: bool = False) -> Optional[Tuple[int, bytes]]:
        """One call to worker ``index``; ``None`` when it cannot be
        reached.  That marks the worker dead for the reaper, unless the
        call was a ``probe`` (a health or metrics poll)."""
        endpoint = self._endpoints[index]
        client = self._clients[index]
        if client.port != endpoint.port:  # respawned on a new port
            await client.close()
            client = self._clients[index] = HttpClient(endpoint.host,
                                                       endpoint.port)
        try:
            return await client.request(method, path, body,
                                        timeout_s=timeout_s)
        except (ConnectionError, asyncio.TimeoutError):
            if not probe:
                endpoint.alive = False
                self.stats["upstream_errors"] += 1
            return None

    # ----------------------------------------------------------------- #
    # routing
    # ----------------------------------------------------------------- #

    def _shard_key(self, body: bytes) -> str:
        """The string whose sha256 places this request on a shard.

        Well-formed bodies shard by the canonical request fingerprint
        (``SolveRequest.key()``) so all encodings of the same logical
        request co-locate; malformed bodies shard by their body hash —
        the owning worker produces the canonical 400.
        """
        body_hash = hashlib.sha256(body).hexdigest()
        if self._routing_cache is not None:
            cached = self._routing_cache.get(body_hash)
            if cached is not None:
                self.stats["routing_cache_hits"] += 1
                return cached
        try:
            doc = json.loads(body.decode("utf-8"))
            ref_key = request_key_from_doc(doc)
            delta_key = (delta_route_key_from_doc(doc)
                         if ref_key is None else None)
            if ref_key is not None:
                # graph_ref request: the ref IS the canonical fingerprint,
                # so the shard key is computable without touching a graph
                # store or materializing anything.  Body-based twins of
                # the same graph land on the same shard because
                # GraphRef.fingerprint() == WeightedGraph.fingerprint().
                key = ref_key
                self.stats["ref_routed"] += 1
            elif delta_key is not None:
                # Delta-form request: the canonical key needs the *child*
                # fingerprint (only computable by applying the delta), but
                # the parent-keyed stand-in colocates the solve with the
                # worker whose memory LRU holds the parent's report — the
                # incremental path's cache locality.  Identical delta
                # bodies still coalesce at that worker.
                key = delta_key
                self.stats["delta_routed"] += 1
            else:
                oversized = SolverServer._graph_too_large(doc)
                if oversized is not None:
                    raise _OversizedGraph(oversized)
                key = SolveRequest.from_doc(doc).key()
                self.stats["parse_routed"] += 1
        except _OversizedGraph:
            raise
        except (ValueError, UnicodeDecodeError, RecursionError, SchemaError,
                TypeError, KeyError):
            key = body_hash
            self.stats["body_routed"] += 1
        if self._routing_cache is not None:
            self._routing_cache.put(body_hash, key)
        return key

    async def _solve(self, call: Call) -> Reply:
        if self._draining:
            return error_doc(503, "fleet is draining")
        loop = asyncio.get_running_loop()
        try:
            # Parsing a previously unseen body materializes the graph —
            # off the event loop, so one giant request cannot stall
            # routing for everyone else.
            key = await loop.run_in_executor(None, self._shard_key,
                                             call.body)
        except _OversizedGraph as exc:
            return error_doc(413, str(exc))
        return await self._forward_sharded(shard_for_key(key, self.shards),
                                           call)

    async def _forward_sharded(self, shard: int, call: Call) -> Reply:
        """Send to the owning worker; walk forward on failure.

        Every worker is tried at most once.  A worker that fails is
        marked dead (the reaper restarts it); the request itself keeps
        going — failover costs placement (coalescing for that key until
        the owner returns), never availability.
        """
        for offset in range(self.shards):
            index = (shard + offset) % self.shards
            if not self._endpoints[index].alive:
                continue
            reply = await self._request(index, "POST", call.path, call.body)
            if reply is None:
                continue
            self.stats["routed"] += 1
            if offset:
                self.stats["failovers"] += 1
            return (*reply, JSON_CONTENT_TYPE)
        return error_doc(503, "no worker available")

    async def _forward_any(self, method: str, call: Call) -> Reply:
        for index, endpoint in enumerate(self._endpoints):
            if endpoint.alive:
                reply = await self._request(index, method, call.path,
                                            call.body)
                if reply is not None:
                    return (*reply, JSON_CONTENT_TYPE)
        return error_doc(503, "no worker available")

    async def _fan_out(self, method: str, path: str, *, probe: bool = False,
                       ) -> List[Optional[Dict[str, Any]]]:
        """One request to every worker at once, in shard order: each
        answer as its JSON doc plus ``_status``, ``None`` where there is
        none.  A ``probe`` also asks workers marked dead."""
        async def one(index: int) -> Optional[Dict[str, Any]]:
            if not (probe or self._endpoints[index].alive):
                return None
            reply = await self._request(index, method, path,
                                        timeout_s=HEALTH_TIMEOUT_S,
                                        probe=probe)
            if reply is None:
                return None
            try:
                doc = json.loads(reply[1])
            except ValueError:
                return None
            doc["_status"] = reply[0]
            return doc

        return list(await asyncio.gather(
            *(one(i) for i in range(self.shards))))

    async def _algorithms(self, call: Call) -> Reply:
        # Identical on every worker; any alive one may answer.
        return await self._forward_any("GET", call)

    # ----------------------------------------------------------------- #
    # graph plane
    # ----------------------------------------------------------------- #
    #
    # Workers share one content-addressed store directory, so a graph
    # registered through *any* worker is immediately resolvable by all
    # of them — ``POST /v1/graphs`` and ``GET``/``HEAD`` forward to any
    # alive worker.  Two exceptions: ``DELETE`` must also drop each
    # worker's in-process attach memo and blob mapping, so it
    # broadcasts to every alive worker and merges the answers; and
    # ``POST .../deltas`` shards by the parent ref, so one mutating
    # client's delta chain grows on one worker (whose attach memo
    # already holds the parent) instead of faulting every store onto
    # every worker.

    async def _register_graph(self, call: Call) -> Reply:
        if self._draining:
            return error_doc(503, "fleet is draining")
        return await self._forward_any("POST", call)

    async def _describe_graph(self, call: Call, _ref: str) -> Reply:
        # A HEAD arrives here too and is forwarded as GET: the worker's
        # reply carries the body whose length the HEAD reply advertises.
        return await self._forward_any("GET", call)

    async def _register_delta(self, call: Call, parent: str) -> Reply:
        if self._draining:
            return error_doc(503, "fleet is draining")
        return await self._forward_sharded(
            shard_for_key(parent, self.shards), call)

    async def _evict_graph(self, call: Call, ref: str) -> Reply:
        """Broadcast a graph eviction to every alive worker.

        The first worker to delete the backing file answers
        ``evicted: true``; the rest drop their local attach state and
        report the ref as already gone.  The merged response says
        whether *any* worker actually evicted, which is the fleet-level
        truth the client cares about.
        """
        polled = [doc for doc in await self._fan_out("DELETE", call.path)
                  if doc is not None]
        if not polled:
            return error_doc(503, "no worker available")
        bad = next((doc for doc in polled
                    if doc.get("_status") not in (200, 404)), None)
        if bad is not None:
            status = int(bad.get("_status", 500))
            return status, {k: v for k, v in bad.items()
                            if not k.startswith("_")}
        evicted = any(doc.get("evicted") for doc in polled)
        return 200, {
            "schema": SCHEMA_VERSION,
            "graph_ref": next((doc.get("graph_ref") for doc in polled
                               if doc.get("graph_ref")), ref),
            "evicted": evicted,
            "workers_polled": len(polled),
        }

    # ----------------------------------------------------------------- #
    # fleet health + metrics
    # ----------------------------------------------------------------- #

    async def _health(self, _call: Call) -> Reply:
        polled = await self._fan_out("GET", "/v1/health", probe=True)
        workers = {}
        for endpoint, doc in zip(self._endpoints, polled):
            workers[endpoint.worker_id] = {
                "alive": doc is not None,
                "restarts": endpoint.restarts,
                **({k: v for k, v in doc.items() if not k.startswith("_")}
                   if doc else {}),
            }
        alive = sum(1 for doc in polled if doc is not None)
        status = ("draining" if self._draining
                  else "ok" if alive == self.shards
                  else "degraded" if alive else "down")
        return 200, {
            "schema": SCHEMA_VERSION,
            "status": status,
            "version": __version__,
            "role": "fleet-router",
            "shards": self.shards,
            "workers_alive": alive,
            "workers": workers,
        }

    async def _ready(self, _call: Call) -> Reply:
        polled = await self._fan_out("GET", "/v1/ready", probe=True)
        ready = sum(1 for doc in polled
                    if doc is not None and doc.get("_status") == 200)
        ok = not self._draining and ready == self.shards
        return (200 if ok else 503), {
            "schema": SCHEMA_VERSION,
            "status": ("ready" if ok
                       else "draining" if self._draining else "warming"),
            "shards": self.shards,
            "workers_ready": ready,
        }

    async def _metrics(self, call: Call) -> Reply:
        fmt = (parse_qs(call.query).get("format") or ["json"])[-1]
        if fmt not in ("json", "prometheus"):
            return error_doc(400, f"unknown metrics format {fmt!r}; "
                                  f"use 'json' or 'prometheus'")
        polled = await self._fan_out("GET", "/v1/metrics", probe=True)
        snapshots = [
            {k: v for k, v in doc.items() if k != "_status"}
            for doc in polled if doc is not None
        ]
        router = dict(self.stats, shards=self.shards)
        if fmt == "prometheus":
            return (200, render_fleet_prometheus(snapshots, router=router),
                    PROMETHEUS_CONTENT_TYPE)
        return 200, aggregate_snapshots(snapshots, router=router)


class _OversizedGraph(Exception):
    """Raised inside shard-key computation for a 413 at the router."""


def run_fleet(*, port: int = 8009, banner: bool = True,
              **pool: Any) -> int:
    """Blocking entry point of ``repro fleet``.

    Starts a :class:`~repro.service.fleet.supervisor.FleetSupervisor`
    built from the ``pool`` keywords (``workers`` ``repro serve``
    subprocesses sharing ``cache_dir`` as tier 2 and one
    content-addressed graph store, each with a ``memory_cache``-sized
    LRU as tier 1), then routes ``/v1/*`` traffic across them on
    ``host:port`` until SIGTERM/SIGINT, then drains.
    """
    supervisor = FleetSupervisor(**pool)
    supervisor.start()
    try:
        router = FleetRouter(supervisor, host=supervisor.host, port=port)
        asyncio.run(router.run_until_signal(
            name="repro-fleet",
            detail=f"{router.shards} workers, schema {SCHEMA_VERSION}",
            draining="draining workers", banner=banner))
    finally:
        supervisor.stop()
    return 0


def start_fleet(**pool: Any) -> BackgroundServer:
    """Start a pool and its router in this process, for blocking callers
    (the tests) that drive the fleet over real sockets.

    ``pool`` holds the keywords of
    :class:`~repro.service.fleet.supervisor.FleetSupervisor`
    (``threaded`` and ``registry`` pick its launcher).  The router runs
    on :class:`~repro.service.http.BackgroundServer` (``fleet.server``
    is the :class:`FleetRouter`, ``fleet.port`` its port);
    ``fleet.close()`` shuts it down, which drains the workers.
    """
    supervisor = FleetSupervisor(**pool)
    supervisor.start()
    try:
        return BackgroundServer(
            FleetRouter(supervisor, host=supervisor.host, port=0),
            name="fleet-router")
    except BaseException:
        supervisor.stop()
        raise
