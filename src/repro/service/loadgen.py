"""Closed-loop load generator for ``repro serve`` — ``repro loadgen``.

Spawns a fleet of concurrent HTTP clients that draw solve requests from
a finite pool (generator-zoo instances × certifiable algorithms × a few
seeds) and hammer a running service for a fixed duration.  Because the
pool is finite and clients loop over it, the run is guaranteed to
re-submit keys the service has already seen — exercising both the
request coalescer (concurrent twins) and the disk cache (sequential
repeats).

After the run every *unique* returned report is re-verified offline:
the independent set is checked structurally and, since the default pool
only uses guarantee-carrying algorithms (Theorems 1/2/3) on instances
small enough for the exact solver, :func:`repro.core.verify.certify_result`
confirms the approximation bound against true OPT.

Results (throughput, p50/p95/p99 latency, per-stage server-side latency
breakdown, trace coverage, status mix, coalesce/cache provenance,
verification tally) go to ``BENCH_service.json``.  With an
:class:`~repro.service.slo.SLOSpec` the document also carries
``certify_result``-style SLO verdicts under ``"slo"`` — what
``make slo-check`` gates CI on.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api import SolveReport, SolveRequest
from repro.graphs.specs import graph_from_spec, weights_from_spec
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs.aggregate import percentile
from repro.service.http import HttpClient, fetch

__all__ = [
    "DEFAULT_ALGORITHMS",
    "DEFAULT_SPECS",
    "build_request_pool",
    "generate_arrivals",
    "generate_churn",
    "register_pool_graphs",
    "run_churn",
    "run_loadgen",
    "run_open_loop",
]

# Instances stay under the exact solver's node limit so every unique
# report can be certified against true OPT after the run.
DEFAULT_SPECS: Tuple[Tuple[str, str], ...] = (
    ("gnp:24,0.15", "uniform:1,20"),
    ("gnp:40,0.08", "integers:50"),
    ("regular:30,3", "uniform:1,10"),
    ("tree:40", "integers:100"),
    ("cycle:36", "uniform:1,5"),
    ("grid:6,6", "unit"),
    ("caterpillar:18,1", "uniform:1,8"),
)

# Only pipelines that stamp guarantee_factor metadata, so certify_result
# has a bound to check.
DEFAULT_ALGORITHMS: Tuple[str, ...] = ("thm1", "thm2", "thm3")


@dataclass
class PoolEntry:
    """One request in the pool plus the graph needed to re-verify it."""

    request: SolveRequest
    graph: WeightedGraph
    body: bytes


@dataclass
class _Tally:
    sent: int = 0
    completed: int = 0
    ok: int = 0
    cached: int = 0
    coalesced: int = 0
    status_counts: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    transport_errors: int = 0
    reports: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    report_bytes: Dict[str, set] = field(default_factory=dict)
    # Server-reported telemetry: per-stage latency samples and how many
    # 200s carried a trace id (should be all of them).
    stage_latencies: Dict[str, List[float]] = field(default_factory=dict)
    with_trace_id: int = 0

    def record(self, entry: PoolEntry, status: int, payload: bytes,
               seconds: float) -> None:
        """Account one answered request; a 200's envelope in full."""
        self.sent += 1
        self.status_counts[str(status)] = (
            self.status_counts.get(str(status), 0) + 1)
        if status != 200:
            return
        self.completed += 1
        self.latencies.append(seconds)
        envelope = json.loads(payload)
        served = envelope.get("served", {})
        self.cached += bool(served.get("cached"))
        self.coalesced += bool(served.get("coalesced"))
        self.with_trace_id += bool(served.get("trace_id"))
        for stage, stage_s in (served.get("stages") or {}).items():
            self.stage_latencies.setdefault(stage, []).append(stage_s)
        report_doc = envelope.get("report", {})
        self.ok += bool(report_doc.get("ok"))
        key = entry.request.key()
        self.reports.setdefault(key, report_doc)
        self.report_bytes.setdefault(key, set()).add(
            json.dumps(report_doc, sort_keys=True, separators=(",", ":")))


def build_request_pool(
    *,
    specs: Tuple[Tuple[str, str], ...] = DEFAULT_SPECS,
    algorithms: Tuple[str, ...] = DEFAULT_ALGORITHMS,
    seeds: Tuple[int, ...] = (1, 2),
    eps: float = 0.5,
    timeout_s: float = 60.0,
) -> List[PoolEntry]:
    """Materialize the finite request pool the client fleet cycles over."""
    pool: List[PoolEntry] = []
    for i, (gspec, wspec) in enumerate(specs):
        graph = weights_from_spec(wspec, graph_from_spec(gspec, seed=i),
                                  seed=1000 + i)
        for algorithm in algorithms:
            for seed in seeds:
                request = SolveRequest(
                    graph=graph,
                    algorithm=algorithm,
                    seed=seed,
                    params={"eps": eps},
                    timeout_s=timeout_s,
                    label=f"loadgen:{gspec}",
                )
                pool.append(PoolEntry(
                    request=request,
                    graph=graph,
                    body=request.to_json().encode(),
                ))
    return pool


def _written(doc: Dict[str, Any], out_path: Optional[str]) -> Dict[str, Any]:
    """``doc``, also saved as indented JSON at ``out_path`` if given."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return doc


# --------------------------------------------------------------------- #
# graph_ref mode
# --------------------------------------------------------------------- #

def _ref_body(request: SolveRequest, fingerprint: str) -> bytes:
    """The request body with the graph replaced by its schema-v2 ref.

    ``SolveRequest.key()`` hashes the graph *fingerprint*, which is
    exactly the ref — so the ref-carrying request is the same logical
    request (same cache key, same coalescing, byte-identical report) in
    a body a few hundred bytes long instead of the full node/edge dump.
    """
    doc = request.to_doc()
    doc["graph"] = {"ref": fingerprint}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


async def _register(client: HttpClient, graph: WeightedGraph) -> str:
    """``POST /v1/graphs`` one graph as a binary blob; returns its ref."""
    from repro.graphs import io as graph_io

    status, payload = await client.request("POST", "/v1/graphs",
                                           graph_io.to_bytes(graph))
    if status != 200:
        raise ConnectionError(f"graph registration failed: HTTP {status}: "
                              f"{payload[:200]!r}")
    return json.loads(payload)["graph_ref"]


async def _register_async(host: str, port: int,
                          pool: List[PoolEntry]) -> Dict[str, str]:
    client = HttpClient(host, port)
    refs: Dict[str, str] = {}
    try:
        for entry in pool:
            fp = entry.graph.fingerprint()
            if fp not in refs:
                refs[fp] = await _register(client, entry.graph)
    finally:
        await client.close()
    return refs


def register_pool_graphs(host: str, port: int,
                         pool: List[PoolEntry]) -> List[PoolEntry]:
    """Ingest-once-solve-many: register every unique pool graph via
    ``POST /v1/graphs`` (binary blob upload) and return a pool whose
    request bodies reference the stored graphs by ``graph_ref``.

    Request keys are unchanged (the ref *is* the fingerprint), so
    report verification and divergence tracking work identically on the
    rewritten pool.
    """
    refs = asyncio.run(_register_async(host, port, pool))
    return [
        PoolEntry(
            request=entry.request,
            graph=entry.graph,
            body=_ref_body(entry.request, refs[entry.graph.fingerprint()]),
        )
        for entry in pool
    ]


# --------------------------------------------------------------------- #
# churn: load against a mutating graph
# --------------------------------------------------------------------- #

# Spawn-key of the churn stream, mirroring the idiom of
# repro.faults.plans.fault_generator: mutation randomness is drawn from
# its own stream keyed disjointly from the arrival schedule (seed) and
# the pool picks (seed+1), so the same seed reproduces the same
# mutation history without perturbing either.
_CHURN_SPAWN_KEY = 0x6368726E  # "chrn"


def churn_rng(seed: int) -> random.Random:
    """The dedicated churn RNG for a run seeded with ``seed``."""
    return random.Random((seed << 32) ^ _CHURN_SPAWN_KEY)


def generate_churn(
    graph: WeightedGraph,
    *,
    epochs: int,
    edits_per_epoch: int = 4,
    crash_fraction: float = 0.25,
    weight_range: Tuple[int, int] = (1, 20),
    seed: int = 0,
) -> List[List[List[Any]]]:
    """Deterministic per-epoch edit scripts for a mutating-graph run.

    Composes the fault vocabulary of :mod:`repro.faults.plans` into
    graph mutations.  Each epoch is one :class:`~repro.graphs.delta.
    GraphDelta`-shaped op list, drawn from the churn stream:

    * **reweighting churn** (probability ``1 - crash_fraction``) —
      ``edits_per_epoch`` ``set_weight`` ops on live nodes, the
      weight-only shape the incremental re-solve path serves;
    * **crash** — a live node fail-stops: one ``remove_node`` op
      (neighbours keep running, exactly like a
      :class:`~repro.faults.plans.CrashSchedule` fail-stop);
    * **restart** — a previously crashed node comes back:
      ``add_node`` with its original weight plus ``add_edge`` to each
      of its original neighbours that is still alive.

    The schedule is a pure function of ``(graph, epochs,
    edits_per_epoch, crash_fraction, weight_range, seed)`` — replayable
    bit for bit, like every other seeded schedule in this module.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not 0.0 <= crash_fraction <= 1.0:
        raise ValueError(
            f"crash_fraction must be in [0, 1], got {crash_fraction}")
    rng = churn_rng(seed)
    lo, hi = weight_range
    alive = sorted(graph.nodes)
    weights = {v: graph.weight(v) for v in alive}
    adjacency = {v: set(graph.neighbors(v)) for v in alive}
    down: List[Tuple[int, float, Tuple[int, ...]]] = []
    schedule: List[List[List[Any]]] = []
    for _ in range(epochs):
        roll = rng.random()
        if roll < crash_fraction / 2 and down:
            # restart: re-add the node, then re-wire the surviving edges
            v, w, edges = down.pop(rng.randrange(len(down)))
            ops: List[List[Any]] = [["add_node", v, w]]
            restored = [u for u in edges if u in weights]
            for u in sorted(restored):
                ops.append(["add_edge", v, u])
                adjacency.setdefault(u, set()).add(v)
            alive.append(v)
            alive.sort()
            weights[v] = w
            adjacency[v] = set(restored)
        elif roll < crash_fraction and len(alive) > 2:
            # crash: fail-stop one live node; remember it for restart
            v = alive.pop(rng.randrange(len(alive)))
            down.append((v, weights.pop(v),
                         tuple(sorted(adjacency.pop(v)))))
            for nbrs in adjacency.values():
                nbrs.discard(v)
            ops = [["remove_node", v]]
        else:
            # steady-state reweighting (weight-only — the incremental
            # path's case)
            ops = []
            for _ in range(max(1, edits_per_epoch)):
                v = alive[rng.randrange(len(alive))]
                w = float(rng.randint(lo, hi))
                weights[v] = w
                ops.append(["set_weight", v, w])
        schedule.append(ops)
    return schedule


async def _churn_async(host: str, port: int, graph: WeightedGraph,
                       schedule: List[List[List[Any]]], *,
                       algorithm: str, solve_seed: int,
                       params: Dict[str, Any]) -> Dict[str, Any]:
    client = HttpClient(host, port)
    counts = {"epochs": 0, "incremental": 0, "full": 0, "failed": 0}
    frontiers: List[int] = []
    latencies: List[float] = []
    try:
        parent = await _register(client, graph)
        for ops in schedule:
            solve_doc = {
                "schema": "v2",
                "graph": {"delta": {"parent": parent, "ops": ops}},
                "algorithm": algorithm,
                "seed": solve_seed,
                "params": params,
            }
            t0 = time.monotonic()
            status, payload = await client.request(
                "POST", "/v1/solve",
                json.dumps(solve_doc, sort_keys=True,
                           separators=(",", ":")).encode())
            latencies.append(time.monotonic() - t0)
            counts["epochs"] += 1
            if status != 200:
                counts["failed"] += 1
                continue
            envelope = json.loads(payload)
            served = envelope.get("served", {})
            mode = served.get("solve_mode", "full")
            counts[mode if mode in counts else "full"] += 1
            if "dirty_frontier" in served:
                frontiers.append(served["dirty_frontier"])
            # advance the chain: register this epoch's delta so the next
            # epoch's parent is the mutated graph
            status, payload = await client.request(
                "POST", f"/v1/graphs/{parent}/deltas",
                json.dumps({"ops": ops}).encode())
            if status == 200:
                parent = json.loads(payload)["graph_ref"]
            else:
                counts["failed"] += 1
    finally:
        await client.close()
    return {
        "counts": counts,
        "frontiers": frontiers,
        "latencies": latencies,
        "final_ref": parent,
    }


def run_churn(
    *,
    host: str = "127.0.0.1",
    port: int = 8008,
    graph: Optional[WeightedGraph] = None,
    epochs: int = 20,
    edits_per_epoch: int = 4,
    crash_fraction: float = 0.25,
    algorithm: str = "mis-luby",
    seed: int = 0,
    solve_seed: int = 1,
    params: Optional[Dict[str, Any]] = None,
    out_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Churn benchmark: a mutating graph under a deterministic edit
    schedule.

    Registers ``graph`` once, then walks :func:`generate_churn`'s
    schedule: each epoch submits a delta-form solve (``{"delta":
    {"parent": ..., "ops": ...}}``) and registers the epoch's delta via
    ``POST /v1/graphs/<ref>/deltas`` so the next epoch mutates the
    child.  The document reports how many epochs the service served
    incrementally versus with a full re-solve, plus dirty-frontier
    sizes — the serving-side view of the delta plane under sustained
    mutation.
    """
    if graph is None:
        graph = weights_from_spec(
            "uniform:1,20", graph_from_spec("gnp:64,0.08", seed=seed),
            seed=seed + 1)
    schedule = generate_churn(
        graph, epochs=epochs, edits_per_epoch=edits_per_epoch,
        crash_fraction=crash_fraction, seed=seed)
    result = asyncio.run(_churn_async(
        host, port, graph, schedule, algorithm=algorithm,
        solve_seed=solve_seed, params=dict(params or {})))
    counts = result["counts"]
    doc: Dict[str, Any] = {
        "schema": "v1",
        "kind": "service_churn",
        "config": {
            "host": host, "port": port, "epochs": epochs,
            "edits_per_epoch": edits_per_epoch,
            "crash_fraction": crash_fraction, "algorithm": algorithm,
            "seed": seed, "solve_seed": solve_seed,
            "graph_fingerprint": graph.fingerprint(),
            "n": graph.n, "m": graph.m,
        },
        "epochs": counts["epochs"],
        "incremental": counts["incremental"],
        "full": counts["full"],
        "failed": counts["failed"],
        "incremental_rate": (counts["incremental"] / counts["epochs"]
                             if counts["epochs"] else 0.0),
        "dirty_frontier": {
            "observed": len(result["frontiers"]),
            "max": max(result["frontiers"], default=0),
            "mean": (sum(result["frontiers"]) / len(result["frontiers"])
                     if result["frontiers"] else 0.0),
        },
        "latency": {
            "p50_s": percentile(result["latencies"], 50),
            "p95_s": percentile(result["latencies"], 95),
            "observed": len(result["latencies"]),
        },
        "final_ref": result["final_ref"],
    }
    return _written(doc, out_path)


# --------------------------------------------------------------------- #
# the closed loop
# --------------------------------------------------------------------- #

async def _client_loop(client_id: int, host: str, port: int,
                       pool: List[PoolEntry], deadline: float,
                       tally: _Tally, gate: asyncio.Event) -> None:
    client = HttpClient(host, port)
    # Clients start at staggered offsets but walk the same cyclic order,
    # so distinct clients regularly collide on the same key while it is
    # in flight — that collision is what the coalescer serves.  The
    # first request is the exception: every client fires it at the same
    # key the instant the gate opens, a deliberate coalesce burst.
    index = (client_id * 3) % max(len(pool), 1)
    first = True
    await gate.wait()
    try:
        while time.monotonic() < deadline:
            if first:
                entry, first = pool[0], False
            else:
                entry = pool[index % len(pool)]
                index += 1
            t0 = time.monotonic()
            try:
                status, payload = await client.request(
                    "POST", "/v1/solve", entry.body
                )
            except (ConnectionError, asyncio.TimeoutError):
                tally.transport_errors += 1
                continue
            tally.record(entry, status, payload, time.monotonic() - t0)
    finally:
        await client.close()


def _verify_reports(pool: List[PoolEntry],
                    tally: _Tally) -> Tuple[int, int, List[str]]:
    """Re-certify every unique report offline against its instance."""
    from repro.core.verify import certify_result

    by_key = {entry.request.key(): entry for entry in pool}
    verified = 0
    failures: List[str] = []
    for key, doc in tally.reports.items():
        entry = by_key.get(key)
        if entry is None:
            failures.append(f"{key[:12]}…: report for unknown pool key")
            continue
        report = SolveReport.from_doc(doc)
        if not report.ok:
            failures.append(f"{report.label}/{report.algorithm}: ok=False "
                            f"({report.error})")
            continue
        try:
            cert = certify_result(entry.graph, report)
        except Exception as exc:  # noqa: BLE001 — recorded, not fatal
            failures.append(f"{report.label}/{report.algorithm}: {exc}")
            continue
        if not cert.holds:
            failures.append(
                f"{report.label}/{report.algorithm}: bound violated "
                f"({cert.achieved:g} < {cert.required:g} vs {cert.reference})"
            )
            continue
        verified += 1
    return verified, len(tally.reports), failures


async def _run_async(host: str, port: int, *, clients: int,
                     duration_s: float, pool: List[PoolEntry]) -> _Tally:
    tally = _Tally()
    gate = asyncio.Event()
    deadline = time.monotonic() + duration_s
    tasks = [
        asyncio.ensure_future(
            _client_loop(i, host, port, pool, deadline, tally, gate)
        )
        for i in range(clients)
    ]
    gate.set()
    await asyncio.gather(*tasks)
    return tally


def _fetch_metrics(host: str, port: int) -> Optional[Dict[str, Any]]:
    try:
        status, doc = fetch(host, port, "GET", "/v1/metrics")
    except (OSError, ValueError):
        return None
    return doc if status == 200 else None


# --------------------------------------------------------------------- #
# open-loop arrivals
# --------------------------------------------------------------------- #

def generate_arrivals(
    *,
    process: str = "poisson",
    rate: float,
    duration_s: float,
    seed: int = 0,
    burst_size: int = 8,
) -> List[float]:
    """Deterministic arrival offsets (seconds from t=0) for one run.

    Open-loop load is defined by *when requests arrive*, independent of
    when earlier requests complete — a closed loop throttles itself to
    the service's pace and therefore cannot see overload.  Three
    processes:

    * ``poisson`` — exponential inter-arrival gaps at ``rate`` req/s,
      the memoryless baseline.
    * ``bursty`` — bursts of ``burst_size`` simultaneous arrivals at
      Poisson-spaced epochs, mean rate still ``rate`` (what coalescers
      and admission queues actually face).
    * ``uniform`` — fixed ``1/rate`` spacing, the smoothest possible
      offered load (the lower bound on queueing).

    The schedule is a pure function of ``(process, rate, duration_s,
    seed, burst_size)`` — a private :class:`random.Random` keyed by
    ``seed``, never global state — so a sweep cell can be replayed
    bit-for-bit.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if burst_size < 1:
        raise ValueError(f"burst_size must be >= 1, got {burst_size}")
    rng = random.Random(seed)
    arrivals: List[float] = []
    t = 0.0
    if process == "poisson":
        while True:
            t += rng.expovariate(rate)
            if t >= duration_s:
                break
            arrivals.append(t)
    elif process == "uniform":
        step = 1.0 / rate
        i = 1
        while i * step < duration_s:
            arrivals.append(i * step)
            i += 1
    elif process == "bursty":
        epoch_rate = rate / burst_size
        while True:
            t += rng.expovariate(epoch_rate)
            if t >= duration_s:
                break
            arrivals.extend([t] * burst_size)
    else:
        raise ValueError(
            f"unknown arrival process {process!r}; "
            f"use 'poisson', 'bursty', or 'uniform'")
    return arrivals


@dataclass
class _OpenTally(_Tally):
    """Closed-loop tally plus the open-loop bookkeeping."""

    rejected: int = 0          # HTTP 429/503 — the overload signal
    late_starts: List[float] = field(default_factory=list)
    gave_up: int = 0           # still unfinished at the wall-clock cap


async def _fire_one(client: HttpClient, entry: PoolEntry, scheduled: float,
                    tally: _OpenTally, timeout_s: float) -> None:
    """One open-loop request: latency counts from the *scheduled*
    arrival, so client-side send delay (coordinated omission) is part of
    the measurement, not hidden by it."""
    started = time.monotonic()
    tally.late_starts.append(max(0.0, started - scheduled))
    try:
        status, payload = await client.request(
            "POST", "/v1/solve", entry.body, timeout_s=timeout_s)
    except asyncio.TimeoutError:
        tally.gave_up += 1
        return
    except ConnectionError:
        tally.transport_errors += 1
        return
    tally.record(entry, status, payload, time.monotonic() - scheduled)
    if status in (429, 503):
        tally.rejected += 1


async def _run_open_loop_async(
    host: str, port: int, pool: List[PoolEntry], arrivals: List[float],
    picks: List[int], *, duration_s: float, timeout_s: float,
) -> Tuple[_OpenTally, float]:
    tally = _OpenTally()
    client = HttpClient(host, port)
    tasks: List[asyncio.Task] = []
    t0 = time.monotonic()
    # The hard wall-clock cap: schedule for duration_s, then allow a
    # bounded grace for stragglers before they are counted as gave_up.
    cap = t0 + duration_s + min(timeout_s, 2.0 * duration_s)
    for offset, pick in zip(arrivals, picks):
        now = time.monotonic()
        if now - t0 >= duration_s:
            break
        delay = (t0 + offset) - now
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(_fire_one(
            client, pool[pick], t0 + offset, tally, timeout_s)))
    if tasks:
        done, pending = await asyncio.wait(
            tasks, timeout=max(0.1, cap - time.monotonic()))
        for task in pending:
            task.cancel()
            tally.gave_up += 1
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    elapsed = time.monotonic() - t0
    await client.close()
    return tally, elapsed


def run_open_loop(
    *,
    host: str = "127.0.0.1",
    port: int = 8008,
    rate: float = 50.0,
    duration_s: float = 5.0,
    arrival: str = "poisson",
    arrival_seed: int = 0,
    burst_size: int = 8,
    timeout_s: float = 30.0,
    pool: Optional[List[PoolEntry]] = None,
    out_path: Optional[str] = None,
    graph_ref: bool = False,
) -> Dict[str, Any]:
    """Open-loop benchmark: offer ``rate`` req/s for ``duration_s``.

    Unlike :func:`run_loadgen`'s closed loop, arrivals here are
    generated up front (:func:`generate_arrivals`, deterministic under
    ``arrival_seed``) and fired on schedule whether or not earlier
    requests came back — achieved throughput below offered load, growing
    latency from *scheduled* arrival time, and 429s are all visible.
    ``duration_s`` is also a wall-clock cap: no new request starts after
    it, and stragglers get at most a bounded grace before being counted
    in ``gave_up``.
    """
    if pool is None:
        pool = build_request_pool()
    if not pool:
        raise ValueError("request pool is empty")
    if graph_ref:
        pool = register_pool_graphs(host, port, pool)
    arrivals = generate_arrivals(process=arrival, rate=rate,
                                 duration_s=duration_s, seed=arrival_seed,
                                 burst_size=burst_size)
    # Pool picks come from their own stream (seed+1) so the request mix
    # is deterministic too but independent of the gap sequence.
    pick_rng = random.Random(arrival_seed + 1)
    picks = [pick_rng.randrange(len(pool)) for _ in arrivals]
    tally, elapsed = asyncio.run(_run_open_loop_async(
        host, port, pool, arrivals, picks,
        duration_s=duration_s, timeout_s=timeout_s))
    offered = len(arrivals) / duration_s
    doc: Dict[str, Any] = {
        "schema": "v1",
        "kind": "service_open_loop",
        "config": {
            "host": host, "port": port, "arrival": arrival, "rate": rate,
            "duration_s": duration_s, "arrival_seed": arrival_seed,
            "burst_size": burst_size if arrival == "bursty" else None,
            "timeout_s": timeout_s, "pool_size": len(pool),
            "graph_ref": graph_ref,
        },
        "elapsed_s": elapsed,
        "offered": len(arrivals),
        "offered_rps": offered,
        "sent": tally.sent,
        "completed": tally.completed,
        "ok": tally.ok,
        "rejected": tally.rejected,
        "gave_up": tally.gave_up,
        "transport_errors": tally.transport_errors,
        "status_counts": tally.status_counts,
        "achieved_rps": (tally.completed / elapsed) if elapsed > 0 else 0.0,
        "goodput_ratio": (tally.completed / len(arrivals)) if arrivals else 0.0,
        "latency": {
            "p50_s": percentile(tally.latencies, 50),
            "p95_s": percentile(tally.latencies, 95),
            "p99_s": percentile(tally.latencies, 99),
            "max_s": max(tally.latencies, default=0.0),
            "observed": len(tally.latencies),
        },
        "send_delay": {
            "p99_s": percentile(tally.late_starts, 99),
            "max_s": max(tally.late_starts, default=0.0),
        },
        "served": {
            "cached": tally.cached,
            "coalesced": tally.coalesced,
            "with_trace_id": tally.with_trace_id,
        },
        "unique_reports": len(tally.reports),
        "divergent_reports": sum(1 for blobs in tally.report_bytes.values()
                                 if len(blobs) > 1),
    }
    return _written(doc, out_path)


def run_loadgen(
    *,
    host: str = "127.0.0.1",
    port: int = 8008,
    clients: int = 8,
    duration_s: float = 5.0,
    out_path: Optional[str] = "BENCH_service.json",
    pool: Optional[List[PoolEntry]] = None,
    verify: bool = True,
    slo: Optional[Any] = None,
    graph_ref: bool = False,
) -> Dict[str, Any]:
    """Drive a running service and write the benchmark document.

    ``slo`` is an :class:`~repro.service.slo.SLOSpec` (or a path to a
    spec JSON file) evaluated against the client-observed measurements;
    the verdicts land in the document under ``"slo"``.

    Returns the document (also written to ``out_path`` unless ``None``).
    """
    from repro.service.slo import SLOSpec, load_slo_spec

    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if isinstance(slo, str):
        slo = load_slo_spec(slo)
    if slo is not None and not isinstance(slo, SLOSpec):
        raise TypeError(f"slo must be an SLOSpec or a path, "
                        f"got {type(slo).__name__}")
    if pool is None:
        pool = build_request_pool()
    if not pool:
        raise ValueError("request pool is empty")
    if graph_ref:
        # Ingest-once-solve-many: every unique graph goes over the wire
        # exactly once; the loop then solves by reference.
        pool = register_pool_graphs(host, port, pool)

    t0 = time.monotonic()
    tally = asyncio.run(
        _run_async(host, port, clients=clients, duration_s=duration_s,
                   pool=pool)
    )
    elapsed = time.monotonic() - t0
    server_metrics = _fetch_metrics(host, port)

    if verify:
        verified, unique, failures = _verify_reports(pool, tally)
    else:
        verified, unique, failures = 0, len(tally.reports), []
    divergent = sum(1 for blobs in tally.report_bytes.values()
                    if len(blobs) > 1)

    doc: Dict[str, Any] = {
        "schema": "v1",
        "kind": "service_loadgen",
        "config": {
            "host": host,
            "port": port,
            "clients": clients,
            "duration_s": duration_s,
            "pool_size": len(pool),
            "graph_ref": graph_ref,
        },
        "elapsed_s": elapsed,
        "sent": tally.sent,
        "completed": tally.completed,
        "ok": tally.ok,
        "transport_errors": tally.transport_errors,
        "status_counts": tally.status_counts,
        "throughput_rps": (tally.completed / elapsed) if elapsed > 0 else 0.0,
        "latency": {
            "p50_s": percentile(tally.latencies, 50),
            "p95_s": percentile(tally.latencies, 95),
            "p99_s": percentile(tally.latencies, 99),
            "max_s": max(tally.latencies, default=0.0),
            "observed": len(tally.latencies),
            "stages": {
                stage: {
                    "p50_s": percentile(samples, 50),
                    "p95_s": percentile(samples, 95),
                    "max_s": max(samples, default=0.0),
                    "observed": len(samples),
                }
                for stage, samples in sorted(tally.stage_latencies.items())
            },
        },
        "served": {
            "cached": tally.cached,
            "coalesced": tally.coalesced,
            "with_trace_id": tally.with_trace_id,
        },
        "unique_reports": unique,
        "divergent_reports": divergent,
        "verification": {
            "enabled": verify,
            "verified": verified,
            "failures": failures,
        },
        "server_metrics": server_metrics,
    }
    if slo is not None:
        report = slo.evaluate(
            latencies_s=tally.latencies,
            sent=tally.sent,
            completed=tally.completed,
            throughput_rps=doc["throughput_rps"],
        )
        doc["slo"] = report.to_doc()
    return _written(doc, out_path)
