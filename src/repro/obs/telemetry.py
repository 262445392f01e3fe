"""Request/run telemetry: metric registry, traces, and run collectors.

Three cooperating pieces, all stdlib + the conventions the rest of the
observability layer already uses:

* **Metric registry** — :class:`Counter`, :class:`Gauge`, and
  fixed-bucket :class:`Histogram` primitives behind one
  :class:`MetricRegistry`, read as one JSON ``snapshot()`` document
  (what ``GET /v1/metrics`` embeds).  :func:`prometheus_text` is the one
  encoder of such documents to Prometheus text exposition format 0.0.4
  (``GET /v1/metrics?format=prometheus``), for one registry or for a
  merge of several.  Mutation is lock-guarded so the engine's event-loop
  thread, the dispatch thread, and test threads can share one registry.
* **Traces** — :func:`new_trace_id` plus :class:`TraceContext`, the
  request-scoped identity the service threads from the HTTP edge through
  coalescing and batching down to the runner.  A context accumulates a
  per-stage latency breakdown (``queue_wait``, ``cache_lookup``,
  ``solve``, ``serialize``, ...) and, for coalesced followers, records
  the primary trace that actually computed the report.
* **Run collectors** — an ambient, thread-local stack of
  :class:`RunTelemetry` objects (:func:`collect_run_telemetry`).  The
  columnar backend and the runner report fleet-kernel wall time,
  ``FleetFallback`` occurrences *with reasons*, and backend run counts
  to the innermost collector; the batch engine attaches the collected
  document to the job outcome as non-canonical provenance.  Like the
  sink/fault registries in :mod:`repro.simulator.instrument`, the stack
  is per-process (and here per-thread): batch workers start empty and
  ship their collection back inside the pickled outcome.

None of this ever touches canonical results: reports, metrics dicts, and
cache entries stay byte-identical with telemetry enabled — telemetry is
wall-clock provenance, stripped exactly like ``wall_seconds`` in
:mod:`repro.api`.

Percentile estimation for the service uses :class:`ReservoirSample` —
Vitter's Algorithm R: after ``t`` observations, each of the ``t`` seen
values is in the reservoir with equal probability ``k/t``, so p50/p95/p99
estimates stay unbiased under sustained load (a bounded deque, by
contrast, only ever sees the newest window).
"""

from __future__ import annotations

import random
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "ReservoirSample",
    "TraceContext",
    "RunTelemetry",
    "collect_run_telemetry",
    "current_collector",
    "new_trace_id",
    "prometheus_text",
    "record_backend_run",
    "record_fallback",
    "record_kernel_time",
    "record_stage",
]

# Log-spaced 1 ms .. 60 s: the service's latency regime spans cache hits
# (~1 ms) to cold multi-phase solves (seconds); the tail buckets catch
# queueing collapse under overload.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


def _fmt_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _fmt_le(bound: float) -> str:
    return "+Inf" if bound == float("inf") else _fmt_value(bound)


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _label_str(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{n}="{_escape_label(v)}"' for n, v in labels.items())
    return "{" + inner + "}"


def prometheus_text(families: Dict[str, Dict[str, Any]]) -> str:
    """Text exposition format 0.0.4 of a registry snapshot document.

    ``families`` maps a full metric name to ``{kind, help, series}`` —
    the shape :meth:`MetricRegistry.snapshot` returns, and the shape a
    merge of several snapshots keeps.  Families render in the given
    order, series in list order.
    """
    lines: List[str] = []
    for name, family in families.items():
        kind = family["kind"]
        lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in family["series"]:
            labels = entry["labels"]
            if kind != "histogram":
                lines.append(f"{name}{_label_str(labels)} "
                             f"{_fmt_value(entry['value'])}")
                continue
            for le, cum in entry["buckets"]:
                lines.append(f"{name}_bucket"
                             f"{_label_str(dict(labels, le=le))} {int(cum)}")
            base = _label_str(labels)
            lines.append(f"{name}_sum{base} {_fmt_value(entry['sum'])}")
            lines.append(f"{name}_count{base} {int(entry['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")


class _Metric:
    """Shared label bookkeeping of one named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)


class _Scalar(_Metric):
    """One float per label set.  An unlabelled family starts at 0, so it
    has its one series from registration on."""

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: Dict[Tuple[str, ...], float] = (
            {} if self.labelnames else {(): 0.0})

    def value(self, **labels: str) -> float:
        return self._values.get(self._key(labels), 0.0)

    def series(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                {"labels": dict(zip(self.labelnames, key)), "value": value}
                for key, value in sorted(self._values.items())
            ]


class Counter(_Scalar):
    """Monotonically increasing count, optionally per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Scalar):
    """A value that goes up and down (queue depth, in-flight)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus cumulative semantics.

    Buckets are upper bounds; internally counts are stored per bucket
    and cumulated at read time, so ``observe`` is O(log buckets)
    (binary search) and ``series`` is O(buckets).
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if any(b != b or b == float("inf") for b in bounds):
            raise ValueError("finite bucket bounds only (+Inf is implicit)")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # per label-key: [per-bucket counts ... , +Inf count], sum, count
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = self._key(labels)
        # binary search for the first bound >= value
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.bounds) + 1)
                self._sums[key] = 0.0
            counts[lo] += 1
            self._sums[key] += float(value)

    def series(self) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        with self._lock:
            for key in sorted(self._counts):
                counts = self._counts[key]
                cumulative: List[Tuple[str, int]] = []
                running = 0
                for bound, n in zip(self.bounds, counts):
                    running += n
                    cumulative.append((_fmt_le(bound), running))
                cumulative.append(("+Inf", running + counts[-1]))
                out.append({
                    "labels": dict(zip(self.labelnames, key)),
                    "buckets": cumulative,
                    "sum": self._sums[key],
                    "count": running + counts[-1],
                })
        return out


class MetricRegistry:
    """A named collection of metrics with one JSON and one Prometheus view.

    Registration is idempotent by name (asking again returns the existing
    metric); re-registering under a different kind or label set raises —
    that is always a naming bug, never a legitimate override.
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _full_name(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _register(self, metric_cls, name: str, help_text: str,
                  labelnames: Sequence[str], **kwargs: Any) -> Any:
        full = self._full_name(name)
        with self._lock:
            existing = self._metrics.get(full)
            if existing is not None:
                if (type(existing) is not metric_cls
                        or existing.labelnames != tuple(labelnames)):
                    raise ValueError(
                        f"metric {full!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = metric_cls(full, help_text, labelnames=labelnames,
                                **kwargs)
            self._metrics[full] = metric
            return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  labelnames: Sequence[str] = ()) -> Histogram:
        return self._register(Histogram, name, help_text, labelnames,
                              buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(self._full_name(name))

    def snapshot(self) -> Dict[str, Any]:
        """JSON document: ``{full_name: {kind, help, series}}``."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {
            name: {"kind": m.kind, "help": m.help, "series": m.series()}
            for name, m in metrics
        }

    def render_prometheus(self) -> str:
        """Text exposition format 0.0.4; one family per registered metric."""
        return prometheus_text(self.snapshot())


# --------------------------------------------------------------------- #
# reservoir sampling
# --------------------------------------------------------------------- #

class ReservoirSample:
    """Uniform sample of an unbounded stream (Vitter's Algorithm R).

    The first ``capacity`` observations fill the reservoir; observation
    ``t > capacity`` replaces a uniformly random slot with probability
    ``capacity/t``.  Every value ever observed therefore has the same
    ``capacity/t`` chance of being in the sample — percentiles computed
    over it estimate the *whole run*, not just the newest window.  The
    RNG is private and fixed-seed by default so service snapshots are
    reproducible under a replayed request sequence.
    """

    def __init__(self, capacity: int = 4096, rng_seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.observed_total = 0
        self._values: List[float] = []
        self._rng = random.Random(rng_seed)

    def observe(self, value: float) -> None:
        self.observed_total += 1
        if len(self._values) < self.capacity:
            self._values.append(float(value))
            return
        slot = self._rng.randrange(self.observed_total)
        if slot < self.capacity:
            self._values[slot] = float(value)

    def values(self) -> List[float]:
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)


# --------------------------------------------------------------------- #
# traces
# --------------------------------------------------------------------- #

def new_trace_id() -> str:
    """A fresh 128-bit request identity, hex-encoded."""
    return uuid.uuid4().hex


@dataclass
class TraceContext:
    """One request's identity and per-stage latency breakdown.

    ``primary_trace_id`` is set on coalesced followers: the trace of the
    leader whose computation actually produced the report.  Stage values
    are seconds and accumulate (re-entering a stage adds to it).
    """

    trace_id: str = field(default_factory=new_trace_id)
    primary_trace_id: str = ""
    stages: Dict[str, float] = field(default_factory=dict)

    def add_stage(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + float(seconds)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add_stage(name, perf_counter() - t0)

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"trace_id": self.trace_id,
                               "stages": dict(self.stages)}
        if self.primary_trace_id:
            doc["primary_trace_id"] = self.primary_trace_id
        return doc


# --------------------------------------------------------------------- #
# ambient run collectors
# --------------------------------------------------------------------- #

class RunTelemetry:
    """What one job's execution reported: backend runs, kernel wall
    time, and fallbacks with reasons.  ``to_doc()`` is the JSON form that
    rides on ``JobOutcome.telemetry`` (non-canonical — never part of
    signatures, reports, or cache entries)."""

    def __init__(self) -> None:
        self.backend_runs: Dict[str, int] = {}
        self.kernels: Dict[str, Dict[str, float]] = {}
        self.fallbacks: Dict[Tuple[str, str], int] = {}
        self.fallback_details: Dict[Tuple[str, str], str] = {}
        self.stages: Dict[str, float] = {}

    def record_backend_run(self, backend: str) -> None:
        self.backend_runs[backend] = self.backend_runs.get(backend, 0) + 1

    def record_kernel_time(self, kernel: str, seconds: float) -> None:
        entry = self.kernels.setdefault(kernel, {"runs": 0, "seconds": 0.0})
        entry["runs"] += 1
        entry["seconds"] += float(seconds)

    def record_fallback(self, algorithm: str, reason: str,
                        detail: str = "") -> None:
        key = (algorithm, reason)
        self.fallbacks[key] = self.fallbacks.get(key, 0) + 1
        if detail:
            self.fallback_details[key] = detail

    def record_stage(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + float(seconds)

    @property
    def fallback_count(self) -> int:
        return sum(self.fallbacks.values())

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {}
        if self.backend_runs:
            doc["runs"] = dict(sorted(self.backend_runs.items()))
        if self.kernels:
            doc["kernels"] = {
                k: {"runs": int(v["runs"]), "seconds": v["seconds"]}
                for k, v in sorted(self.kernels.items())
            }
        if self.fallbacks:
            doc["fallbacks"] = [
                {"algorithm": algorithm, "reason": reason, "count": count,
                 **({"detail": self.fallback_details[key]}
                    if key in self.fallback_details else {})}
                for key, count in sorted(self.fallbacks.items())
                for algorithm, reason in [key]
            ]
        if self.stages:
            doc["stages"] = dict(sorted(self.stages.items()))
        return doc


_LOCAL = threading.local()


def _stack() -> List[RunTelemetry]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


@contextmanager
def collect_run_telemetry() -> Iterator[RunTelemetry]:
    """Collect backend/kernel/fallback records from every ``run()``
    inside the block (this thread only; innermost collector wins)."""
    collector = RunTelemetry()
    stack = _stack()
    stack.append(collector)
    try:
        yield collector
    finally:
        stack.remove(collector)


def current_collector() -> Optional[RunTelemetry]:
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


def record_backend_run(backend: str) -> None:
    """Count one ``runner.run`` execution on ``backend`` in the innermost
    collector (a no-op without one)."""
    collector = current_collector()
    if collector is not None:
        collector.record_backend_run(backend)


def record_kernel_time(kernel: str, seconds: float) -> None:
    collector = current_collector()
    if collector is not None:
        collector.record_kernel_time(kernel, seconds)


def record_fallback(algorithm: str, reason: str, detail: str = "") -> None:
    """One columnar→per-node fallback, always attributed to a reason
    (``no-kernel``, ``faults``, ``sinks``, ``codec-check``,
    ``over-budget``, ``dense-state``, ...)."""
    collector = current_collector()
    if collector is not None:
        collector.record_fallback(algorithm, reason, detail)


def record_stage(name: str, seconds: float) -> None:
    collector = current_collector()
    if collector is not None:
        collector.record_stage(name, seconds)
