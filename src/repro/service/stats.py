"""Serving-side metrics of one solver service: one registry, read two ways.

Every count lives in one :class:`repro.obs.telemetry.MetricRegistry`
under the ``repro_service`` namespace; :class:`ServiceStats` keeps no
other counter.  Both views of ``GET /v1/metrics`` are read off that
registry's snapshot document: :func:`summarize` turns it into the flat
JSON keys (``requests``, ``executed``, ...) plus the ``stages`` and
``backend`` blocks, and :func:`repro.obs.telemetry.prometheus_text`
renders it for ``?format=prometheus``.  The gauges ``in_flight``,
``queue_depth``, ``draining`` and ``uptime_seconds`` are set from the
engine's live state before every read.  The fleet router merges its
workers' registry sections and runs the same :func:`summarize` on the
merge (:mod:`repro.service.fleet.aggregate`).

A served request is recorded by one call, :meth:`ServiceStats.finish`,
whichever path served it (memory hit, coalesced follower, incremental
derivation, or a dispatched batch).

Percentiles are computed over a :class:`~repro.obs.telemetry.ReservoirSample`
(Vitter's Algorithm R), not a bounded deque: under sustained load a
``deque(maxlen=N)`` only ever holds the *newest* N observations, so its
"p95" silently becomes a recent-window statistic; the reservoir keeps a
uniform sample of the whole run, which is what an SLO verdict needs.
The sampling scheme, capacity, current size, and lifetime observation
count are all reported in the snapshot (``latency_reservoir``).

All mutation happens on the event-loop thread (the engine updates stats
when futures resolve, never from worker threads); registry primitives
carry their own locks anyway so render-time reads from other threads are
safe.  Percentiles reuse the observability layer's interpolating
:func:`repro.obs.aggregate.percentile` so service p50/p95/p99 are
computed exactly like sweep-cell p50/p95.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs.aggregate import percentile
from repro.obs.telemetry import MetricRegistry, ReservoirSample, prometheus_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.engine import ServedReport

__all__ = ["COUNTERS", "NAMESPACE", "STAGES", "ServiceStats", "summarize"]

_RESERVOIR = 4096

NAMESPACE = "repro_service"

# The serving stages every request is attributed to (the server adds
# ``serialize`` after the engine resolves; followers only see
# ``coalesce_wait``).  Kept here so docs/tests have one source of truth.
STAGES = ("queue_wait", "coalesce_wait", "cache_lookup", "solve",
          "incremental", "serialize")

# Flat JSON key -> help text of its family ``repro_service_<key>_total``.
COUNTERS = {
    "requests": "Accepted POST /v1/solve submissions.",
    "completed": "Reports delivered (ok or failed).",
    "failed": "Reports with ok=False.",
    "rejected": "Admission-control rejections (HTTP 429).",
    "coalesced": "Requests served by an in-flight twin.",
    "executed": "Solver executions (requests served by no cache tier).",
    "timeouts": "Per-request deadlines exceeded (HTTP 504).",
    "batches": "Micro-batches dispatched.",
    "incremental_served": ("Delta-form solves served by deriving the "
                           "parent's cached report."),
    "incremental_fallback": ("Delta-form solves that fell back to a full "
                             "solve."),
}

# Flat JSON key -> the ``tier`` label it reads off cache_tier_hits_total.
_TIER_KEYS = {"cache_hits": "disk", "memory_cache_hits": "memory"}

_GAUGES = {
    "in_flight": "Requests admitted but not yet resolved.",
    "queue_depth": "Undispatched entries in the admission queue.",
    "draining": "1 while the service refuses new work.",
    "uptime_seconds": "Seconds since the stats were created.",
}


class ServiceStats:
    """The metric registry of one solver service, plus its latency
    reservoir and the last fallback detail string per reason."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        self.latency_sample = ReservoirSample(_RESERVOIR)
        self.fallback_details: Dict[str, str] = {}
        registry = self.registry = MetricRegistry(namespace=NAMESPACE)
        self._counters = {key: registry.counter(f"{key}_total", help_text)
                          for key, help_text in COUNTERS.items()}
        self._gauges = {name: registry.gauge(name, help_text)
                        for name, help_text in _GAUGES.items()}
        self._latency_hist = registry.histogram(
            "request_latency_seconds",
            "End-to-end queue-to-completion latency of served requests.",
        )
        self._stage_hist = registry.histogram(
            "stage_latency_seconds",
            "Per-stage request latency breakdown "
            "(queue_wait/coalesce_wait/cache_lookup/solve/serialize).",
            labelnames=("stage",),
        )
        self._cache_tier_hits = registry.counter(
            "cache_tier_hits_total",
            "Requests served from a result-cache tier "
            "(memory = per-worker LRU, disk = shared JSON cache).",
            labelnames=("tier",),
        )
        self._fallbacks = registry.counter(
            "fleet_fallback_total",
            "Columnar-backend fallbacks to the per-node scheduler, "
            "by reason.",
            labelnames=("algorithm", "reason"),
        )
        self._kernel_seconds = registry.counter(
            "fleet_kernel_seconds_total",
            "Cumulative fleet-kernel wall-clock seconds, per kernel.",
            labelnames=("kernel",),
        )
        self._kernel_runs = registry.counter(
            "fleet_kernel_runs_total",
            "Fleet-kernel executions, per kernel.",
            labelnames=("kernel",),
        )
        self._backend_runs = registry.counter(
            "backend_runs_total",
            "runner.run executions, per execution backend.",
            labelnames=("backend",),
        )

    # ----------------------------------------------------------------- #
    # observation
    # ----------------------------------------------------------------- #

    def inc(self, key: str) -> None:
        """Count one event of the flat counter ``key`` (see COUNTERS)."""
        self._counters[key].inc()

    def finish(self, served: "ServedReport", *,
               executed: bool = False) -> None:
        """Record one served request: its stages and, unless it is a
        coalesced follower (whose leader was recorded already), its
        completion and latency, what served it, failure, and run
        telemetry.  ``executed`` marks a report the solver computed for
        this request; a cache tier or an incremental derivation is read
        off ``served`` itself."""
        self.observe_stages(served.stages)
        if served.coalesced:
            return
        self._counters["completed"].inc()
        self.observe_latency(served.seconds)
        if served.solve_mode == "incremental":
            self._counters["incremental_served"].inc()
        elif served.cache_tier:
            self._cache_tier_hits.inc(tier=served.cache_tier)
        elif executed:
            self._counters["executed"].inc()
        if not served.report.ok:
            self._counters["failed"].inc()
        self.absorb_run_telemetry(served.telemetry)

    def observe_latency(self, seconds: float) -> None:
        self.latency_sample.observe(seconds)
        self._latency_hist.observe(seconds)

    def observe_stages(self, stages: Dict[str, float]) -> None:
        for name, seconds in stages.items():
            if name == "total":
                continue
            self._stage_hist.observe(seconds, stage=name)

    def absorb_run_telemetry(self, telemetry: Dict[str, Any]) -> None:
        """Fold one job outcome's run-telemetry doc (see
        :class:`repro.obs.telemetry.RunTelemetry`) into the service-wide
        aggregates — this is how kernel timings and fallbacks recorded in
        worker processes reach ``/v1/metrics``."""
        if not telemetry:
            return
        for backend, count in telemetry.get("runs", {}).items():
            self._backend_runs.inc(int(count), backend=backend)
        for kernel, entry in telemetry.get("kernels", {}).items():
            self._kernel_runs.inc(int(entry.get("runs", 0)), kernel=kernel)
            self._kernel_seconds.inc(float(entry.get("seconds", 0.0)),
                                     kernel=kernel)
        for fb in telemetry.get("fallbacks", []):
            reason = str(fb.get("reason", "unknown"))
            if fb.get("detail"):
                self.fallback_details[reason] = str(fb["detail"])
            self._fallbacks.inc(int(fb.get("count", 1)),
                                algorithm=str(fb.get("algorithm", "?")),
                                reason=reason)

    # ----------------------------------------------------------------- #
    # read side
    # ----------------------------------------------------------------- #

    def _families(self, in_flight: int, queue_depth: int,
                  draining: bool) -> Dict[str, Any]:
        """The registry's snapshot document, live gauges set first."""
        live = {"in_flight": in_flight, "queue_depth": queue_depth,
                "draining": 1.0 if draining else 0.0,
                "uptime_seconds": time.monotonic() - self.started}
        for name, value in live.items():
            self._gauges[name].set(value)
        return self.registry.snapshot()

    def snapshot(self, *, in_flight: int, queue_depth: int,
                 draining: bool, worker_id: str = "",
                 memory_cache: Optional[Dict[str, Any]] = None,
                 ) -> Dict[str, Any]:
        """The ``/v1/metrics`` JSON document."""
        families = self._families(in_flight, queue_depth, draining)
        lat = self.latency_sample.values()
        doc: Dict[str, Any] = {
            "schema": "v1",
            "worker_id": worker_id,
            **summarize(families),
            "memory_cache": memory_cache,
            "p50_latency_s": percentile(lat, 50),
            "p95_latency_s": percentile(lat, 95),
            "p99_latency_s": percentile(lat, 99),
            "observed_latencies": len(lat),
            "latency_reservoir": {
                "scheme": "reservoir-sampling (Vitter Algorithm R)",
                "capacity": self.latency_sample.capacity,
                "size": len(self.latency_sample),
                "observed_total": self.latency_sample.observed_total,
            },
            "histograms": families,
        }
        doc["backend"]["fallback_details"] = dict(
            sorted(self.fallback_details.items()))
        return doc

    def render_prometheus(self, *, in_flight: int, queue_depth: int,
                          draining: bool) -> str:
        """Prometheus text exposition format 0.0.4 of the same state."""
        return prometheus_text(
            self._families(in_flight, queue_depth, draining))


def summarize(families: Dict[str, Any]) -> Dict[str, Any]:
    """The flat ``/v1/metrics`` keys plus the ``stages`` and ``backend``
    blocks, read off a registry snapshot document: one worker's, or the
    fleet's merge of several."""

    def series(name: str) -> List[Dict[str, Any]]:
        return (families.get(f"{NAMESPACE}_{name}") or {}).get("series", [])

    def total(name: str) -> float:
        return sum(entry["value"] for entry in series(name))

    def by_label(name: str, label: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for entry in series(name):
            key = entry["labels"][label]
            out[key] = out.get(key, 0.0) + entry["value"]
        return dict(sorted(out.items()))

    doc: Dict[str, Any] = {key: int(total(f"{key}_total"))
                           for key in COUNTERS}
    tiers = by_label("cache_tier_hits_total", "tier")
    for key, tier in _TIER_KEYS.items():
        doc[key] = int(tiers.get(tier, 0))
    doc["in_flight"] = int(total("in_flight"))
    doc["queue_depth"] = int(total("queue_depth"))
    doc["draining"] = bool(total("draining"))
    doc["uptime_s"] = total("uptime_seconds")

    served = doc["requests"] + doc["coalesced"]
    from_cache = doc["cache_hits"] + doc["memory_cache_hits"]
    doc["cache_hit_rate"] = doc["cache_hits"] / served if served else 0.0
    doc["served_from_cache_rate"] = from_cache / served if served else 0.0
    doc["coalesce_rate"] = doc["coalesced"] / served if served else 0.0

    stages: Dict[str, Dict[str, float]] = {}
    for entry in series("stage_latency_seconds"):
        count = entry["count"]
        stages[entry["labels"]["stage"]] = {
            "count": count,
            "total_s": entry["sum"],
            "mean_s": entry["sum"] / count if count else 0.0,
        }
    doc["stages"] = dict(sorted(stages.items()))

    reasons = by_label("fleet_fallback_total", "reason")
    kernel_seconds = by_label("fleet_kernel_seconds_total", "kernel")
    doc["backend"] = {
        "fallbacks": int(sum(reasons.values())),
        "fallback_reasons": {k: int(v) for k, v in reasons.items()},
        "runs": {k: int(v) for k, v in
                 by_label("backend_runs_total", "backend").items()},
        "kernels": {
            k: {"runs": int(runs), "seconds": kernel_seconds.get(k, 0.0)}
            for k, runs in by_label("fleet_kernel_runs_total",
                                    "kernel").items()
        },
    }
    return doc
