"""Open-loop load client for a running solver service — ``repro loadgen``.

Draws solve requests from a finite pool (generator-zoo instances ×
certifiable algorithms × seeds) and fires them on a seeded arrival
schedule whether or not earlier requests came back.  Overload therefore
shows: achieved rate below offered, latency growing from the *scheduled*
arrival (client-side send delay included, so no coordinated omission),
429s and give-ups.  Because the pool is finite, keys repeat, which
exercises the coalescer (concurrent twins) and the cache tiers
(sequential repeats).

After the run every *unique* returned report is re-certified against its
instance: the independent set is checked structurally and, since the
default pool only uses guarantee-carrying algorithms (Theorems 1/2/3) on
instances small enough for the exact solver,
:func:`repro.core.verify.certify_result` confirms the approximation bound
against true OPT.  A key that came back as two different byte strings
counts as divergent.

The run document carries offered and achieved rate, goodput, give-ups
and send delay; latency percentiles; per-stage server-side latency and
trace coverage; cached and coalesced counts; and the unique, divergent
and verified reports.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api import SolveReport, SolveRequest
from repro.graphs.specs import DEFAULT_SPECS, graph_from_spec, weights_from_spec
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs.aggregate import percentile
from repro.service.http import HttpClient

__all__ = [
    "DEFAULT_ALGORITHMS",
    "DEFAULT_SPECS",
    "build_request_pool",
    "generate_arrivals",
    "register_pool_graphs",
    "run_open_loop",
]

# Only pipelines that stamp guarantee_factor metadata, so certify_result
# has a bound to check.
DEFAULT_ALGORITHMS: Tuple[str, ...] = ("thm1", "thm2", "thm3")


@dataclass
class PoolEntry:
    """One request in the pool plus the graph needed to re-verify it."""

    request: SolveRequest
    graph: WeightedGraph
    body: bytes


def build_request_pool(
    *,
    specs: Tuple[Tuple[str, str], ...] = DEFAULT_SPECS,
    algorithms: Tuple[str, ...] = DEFAULT_ALGORITHMS,
    seeds: Tuple[int, ...] = (1, 2),
    eps: float = 0.5,
    timeout_s: float = 60.0,
) -> List[PoolEntry]:
    """Materialize the finite request pool the arrivals draw from."""
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


async def _register_async(host: str, port: int,
                          pool: List[PoolEntry]) -> Dict[str, str]:
    from repro.graphs import io as graph_io

    client = HttpClient(host, port)
    refs: Dict[str, str] = {}
    try:
        for entry in pool:
            fp = entry.graph.fingerprint()
            if fp in refs:
                continue
            status, payload = await client.request(
                "POST", "/v1/graphs", graph_io.to_bytes(entry.graph))
            if status != 200:
                raise ConnectionError(
                    f"graph registration failed: HTTP {status}: "
                    f"{payload[:200]!r}")
            refs[fp] = json.loads(payload)["graph_ref"]
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
# arrivals
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
    ``seed``, never global state — so a run can be replayed
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


# --------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------- #

@dataclass
class _Tally:
    sent: int = 0
    completed: int = 0
    ok: int = 0
    cached: int = 0
    coalesced: int = 0
    rejected: int = 0          # HTTP 429/503 — the overload signal
    gave_up: int = 0           # still unfinished at the wall-clock cap
    transport_errors: int = 0
    status_counts: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    late_starts: List[float] = field(default_factory=list)
    # Server-reported telemetry: per-stage latency samples and how many
    # 200s carried a trace id (should be all of them).
    stage_latencies: Dict[str, List[float]] = field(default_factory=dict)
    with_trace_id: int = 0
    reports: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    report_bytes: Dict[str, set] = field(default_factory=dict)

    def record(self, entry: PoolEntry, status: int, payload: bytes,
               seconds: float) -> None:
        """Account one answered request; a 200's envelope in full."""
        self.sent += 1
        self.status_counts[str(status)] = (
            self.status_counts.get(str(status), 0) + 1)
        if status in (429, 503):
            self.rejected += 1
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


async def _fire_one(client: HttpClient, entry: PoolEntry, scheduled: float,
                    tally: _Tally, timeout_s: float) -> None:
    """One request: latency counts from the *scheduled* arrival, so
    client-side send delay (coordinated omission) is part of the
    measurement, not hidden by it."""
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


async def _run_async(
    host: str, port: int, pool: List[PoolEntry], arrivals: List[float],
    picks: List[int], *, duration_s: float, timeout_s: float,
) -> Tuple[_Tally, float]:
    tally = _Tally()
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


def _verify_reports(pool: List[PoolEntry],
                    tally: _Tally) -> Tuple[int, List[str]]:
    """Re-certify every unique report against its instance."""
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
    return verified, failures


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
    """Offer ``rate`` req/s for ``duration_s``, then certify every
    unique report; returns the run document (also written to
    ``out_path`` if given).

    Arrivals are generated up front (:func:`generate_arrivals`,
    deterministic under ``arrival_seed``) and fired on schedule.
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
    tally, elapsed = asyncio.run(_run_async(
        host, port, pool, arrivals, picks,
        duration_s=duration_s, timeout_s=timeout_s))
    verified, failures = _verify_reports(pool, tally)
    doc: Dict[str, Any] = {
        "schema": "v1",
        "kind": "service_loadgen",
        "config": {
            "host": host, "port": port, "arrival": arrival, "rate": rate,
            "duration_s": duration_s, "arrival_seed": arrival_seed,
            "burst_size": burst_size if arrival == "bursty" else None,
            "timeout_s": timeout_s, "pool_size": len(pool),
            "graph_ref": graph_ref,
        },
        "elapsed_s": elapsed,
        "offered": len(arrivals),
        "offered_rps": len(arrivals) / duration_s,
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
        "verification": {"verified": verified, "failures": failures},
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return doc
