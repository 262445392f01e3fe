"""Merging per-worker ``/v1/metrics`` snapshots into one fleet view.

Every worker serves the JSON document built by
:meth:`repro.service.stats.ServiceStats.snapshot`, whose ``histograms``
section is that worker's whole metric registry: every counter, gauge
and histogram family.  The router fetches all of them and merges those
registry sections family by family:

* counter series and the additive gauges (``in_flight``,
  ``queue_depth``) are summed; the gauges that do not add up across
  workers (``draining``, ``uptime_seconds``) take the largest worker
  value;
* histograms are merged bucket-wise (all workers share the bucket
  bounds they were registered with), which is what makes fleet-wide
  approximate percentiles possible — per-worker p99s cannot be
  averaged, but cumulative bucket counts can be added and the quantile
  re-read off the merged distribution.

The flat fleet keys and the ``stages``/``backend`` blocks come from
:func:`repro.service.stats.summarize` run on the merge, the same
function each worker runs on its own registry.  Per-worker documents
are kept verbatim under ``workers`` so nothing is lost by aggregation.

The Prometheus view renders every merged family under ``repro_fleet_``
through the one encoder, :func:`repro.obs.telemetry.prometheus_text`.
Counters also carry one series per worker, labelled ``worker``, and the
router's own counters render as ``repro_fleet_router_*``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.telemetry import prometheus_text
from repro.service.stats import NAMESPACE, summarize

__all__ = ["aggregate_snapshots", "render_fleet_prometheus"]

# Gauges that do not add up across workers: merged by taking the max.
_NOT_SUMMED = (f"{NAMESPACE}_draining", f"{NAMESPACE}_uptime_seconds")

_LATENCY_HIST = f"{NAMESPACE}_request_latency_seconds"


def _merge_bucket_lists(
    into: List[List[Any]], add: Sequence[Tuple[str, int]],
) -> List[List[Any]]:
    """Sum two cumulative ``[(le, count), ...]`` lists bound-by-bound.

    Bounds come from the shared registry defaults so they line up; if a
    worker ever reports a different ladder the union is taken and the
    missing bounds contribute their nearest lower cumulative count.
    """
    if not into:
        return [[le, int(n)] for le, n in add]
    merged: Dict[str, int] = {le: int(n) for le, n in into}
    for le, n in add:
        merged[le] = merged.get(le, _floor_count(into, le)) + int(n)
    def sort_key(le: str) -> float:
        return float("inf") if le == "+Inf" else float(le)
    return [[le, merged[le]] for le in sorted(merged, key=sort_key)]


def _floor_count(buckets: Sequence[Sequence[Any]], le: str) -> int:
    """Cumulative count a new bound inherits when one side lacks it."""
    bound = float("inf") if le == "+Inf" else float(le)
    best = 0
    for other_le, n in buckets:
        other = float("inf") if other_le == "+Inf" else float(other_le)
        if other <= bound:
            best = int(n)
    return best


def _merge_families(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge the ``histograms`` registry sections of worker snapshots."""
    merged: Dict[str, Any] = {}
    for snap in snapshots:
        for name, family in (snap.get("histograms") or {}).items():
            slot = merged.setdefault(name, {
                "kind": family.get("kind"),
                "help": family.get("help"),
                "series": [],
            })
            for entry in family.get("series", []):
                labels = entry.get("labels") or {}
                target = next(
                    (s for s in slot["series"] if s["labels"] == labels), None)
                if target is None:
                    target = {"labels": dict(labels)}
                    if "buckets" in entry:
                        target["buckets"] = []
                        target["sum"] = 0.0
                        target["count"] = 0
                    else:
                        target["value"] = 0.0
                    slot["series"].append(target)
                if "buckets" in entry:
                    target["buckets"] = _merge_bucket_lists(
                        target["buckets"], entry["buckets"])
                    target["sum"] += float(entry.get("sum", 0.0))
                    target["count"] += int(entry.get("count", 0))
                elif name in _NOT_SUMMED:
                    target["value"] = max(target["value"],
                                          float(entry.get("value", 0.0)))
                else:
                    target["value"] += float(entry.get("value", 0.0))
    return merged


def _quantile_from_buckets(buckets: Sequence[Sequence[Any]],
                           count: int, q: float) -> float:
    """Approximate quantile read off cumulative histogram buckets.

    Linear interpolation inside the containing bucket (Prometheus
    ``histogram_quantile`` semantics); the +Inf bucket clamps to the
    highest finite bound.
    """
    if count <= 0 or not buckets:
        return 0.0
    rank = q / 100.0 * count
    prev_bound, prev_cum = 0.0, 0
    last_finite = 0.0
    for le, cum in buckets:
        if le == "+Inf":
            return last_finite
        bound = float(le)
        last_finite = bound
        if cum >= rank and cum > prev_cum:
            frac = (rank - prev_cum) / (cum - prev_cum)
            return prev_bound + frac * (bound - prev_bound)
        prev_bound, prev_cum = bound, cum
    return last_finite


def _merge_memory(snapshots: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Sum the workers' memory-tier LRU blocks (``None`` if none has one)."""
    blocks = [snap["memory_cache"] for snap in snapshots
              if snap.get("memory_cache")]
    if not blocks:
        return None
    memory = {key: sum(int(mc.get(key, 0)) for mc in blocks)
              for key in ("maxsize", "size", "hits", "misses", "evictions")}
    lookups = memory["hits"] + memory["misses"]
    memory["hit_rate"] = memory["hits"] / lookups if lookups else 0.0
    return memory


def _latency_approx(families: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Fleet p50/p95/p99 read off the merged request-latency histogram."""
    latency = (families.get(_LATENCY_HIST) or {}).get("series") or []
    unlabelled = next((s for s in latency if not s["labels"]), None)
    if unlabelled is None:
        return None
    buckets, count = unlabelled["buckets"], unlabelled["count"]
    return {
        "method": "merged-histogram interpolation",
        "count": count,
        "p50_s": _quantile_from_buckets(buckets, count, 50),
        "p95_s": _quantile_from_buckets(buckets, count, 95),
        "p99_s": _quantile_from_buckets(buckets, count, 99),
    }


def aggregate_snapshots(
    snapshots: List[Dict[str, Any]],
    *,
    router: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One fleet-wide metrics document from per-worker snapshots.

    ``router`` is the router's own counters (routed/failovers/...),
    included verbatim when given.  Workers that could not be scraped
    should simply be absent from ``snapshots`` — ``workers_reporting``
    records how many answered.
    """
    families = _merge_families(snapshots)
    doc: Dict[str, Any] = {
        "schema": "v1",
        "scope": "fleet",
        "workers_reporting": len(snapshots),
        **summarize(families),
        "memory_cache": _merge_memory(snapshots),
        "histograms": families,
        "latency_approx": _latency_approx(families),
        "workers": {str(snap.get("worker_id", i)): snap
                    for i, snap in enumerate(snapshots)},
    }
    if router is not None:
        doc["router"] = router
    return doc


def _family(kind: str, help_text: str, value: float) -> Dict[str, Any]:
    return {"kind": kind, "help": help_text,
            "series": [{"labels": {}, "value": value}]}


def render_fleet_prometheus(
    snapshots: List[Dict[str, Any]],
    *,
    router: Optional[Dict[str, Any]] = None,
) -> str:
    """Prometheus text exposition 0.0.4 of the merged fleet state.

    Every merged family renders as ``repro_fleet_<name>``; counters add
    a per-worker breakdown via a ``worker`` label.  Histograms keep
    standard ``_bucket``/``_sum``/``_count`` series so
    ``histogram_quantile`` works on one router scrape.
    """
    merged = aggregate_snapshots(snapshots, router=router)
    families: Dict[str, Any] = {}
    for name, family in merged["histograms"].items():
        series = list(family["series"])
        if family["kind"] == "counter":
            for worker_id, snap in sorted(merged["workers"].items()):
                own = (snap.get("histograms") or {}).get(name) or {}
                series += [
                    dict(entry, labels=dict(entry["labels"], worker=worker_id))
                    for entry in own.get("series", [])
                ]
        fleet_name = name.replace(f"{NAMESPACE}_", "repro_fleet_", 1)
        families[fleet_name] = dict(family, series=series)
    families["repro_fleet_workers_reporting"] = _family(
        "gauge", "Workers whose metrics were scraped.", len(snapshots))
    for key, value in sorted((router or {}).items()):
        if isinstance(value, (int, float)):
            families[f"repro_fleet_router_{key}"] = _family(
                "counter", "Router-side counter.", value)
    return prometheus_text(families)
