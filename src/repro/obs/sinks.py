"""Concrete event sinks for the simulator's instrumentation hooks.

Every sink implements the duck-typed protocol of
:mod:`repro.simulator.instrument`: a ``record(round_index, kind, node,
detail=None)`` method, optionally ``on_round_profile(profile)``.  The
legacy :class:`repro.simulator.tracing.Trace` already satisfies it; the
sinks here cover the remaining recording disciplines:

* :class:`NullSink` — swallows everything; the overhead baseline.
* :class:`RingBufferSink` — keeps only the *last* ``capacity`` events
  (``Trace`` keeps the first), for long runs where the tail matters.
* :class:`RoundSeriesSink` — per-round aggregates (messages, bits, drops,
  halts, compute/delivery seconds) instead of individual events.
* :class:`JsonlStreamSink` — streams every event to disk as one JSON
  object per line; what ``repro run --record`` writes and
  ``repro inspect`` reads back.
* :class:`TelemetrySink` — mirrors the event stream into a
  :class:`~repro.obs.telemetry.MetricRegistry` (the process-global one
  by default), so simulator traffic lands next to kernel timings and
  fallback counters in Prometheus exposition.
* :class:`MultiSink` — fans one event stream out to several sinks.
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Dict, Iterable, List, Union

from repro.simulator.instrument import RoundProfile
from repro.simulator.tracing import TraceEvent

__all__ = [
    "NullSink",
    "RingBufferSink",
    "RoundSeriesSink",
    "JsonlStreamSink",
    "TelemetrySink",
    "MultiSink",
]


class NullSink:
    """Accepts events and discards them.

    Installing it exercises the full dispatch path at (near-)zero cost —
    the benchmark suite uses it to measure instrumentation overhead.
    Deliberately does *not* implement ``on_round_profile``, so the runner
    skips wall-clock profiling entirely.
    """

    def record(self, round_index: int, kind: str, node: int,
               detail: Any = None) -> None:
        pass


class RingBufferSink:
    """Keeps the most recent ``capacity`` events, counting evictions."""

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.evicted_events = 0

    def record(self, round_index: int, kind: str, node: int,
               detail: Any = None) -> None:
        if len(self._events) == self.capacity:
            self.evicted_events += 1
        self._events.append(TraceEvent(round_index, kind, node, detail))

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class RoundSeriesSink:
    """Aggregates the event stream into one row per round.

    Rows carry message/bit/drop/halt counts; when the runner also delivers
    :class:`RoundProfile` records (it does whenever this sink is
    attached), the per-round compute and delivery wall-clock land in the
    same row.  Memory is ``O(rounds)`` regardless of traffic.
    """

    def __init__(self) -> None:
        self._rows: Dict[int, Dict[str, Any]] = {}

    def _row(self, round_index: int) -> Dict[str, Any]:
        return self._rows.setdefault(round_index, {
            "round": round_index,
            "messages": 0, "bits": 0, "drops": 0, "dropped_bits": 0,
            "halts": 0,
            "fault_drops": 0, "fault_dropped_bits": 0,
            "fault_delays": 0, "fault_dups": 0,
            "crashes": 0, "restarts": 0,
            "compute_seconds": 0.0, "delivery_seconds": 0.0,
            "active_nodes": 0,
        })

    def record(self, round_index: int, kind: str, node: int,
               detail: Any = None) -> None:
        row = self._row(round_index)
        if kind == "send":
            row["messages"] += 1
            row["bits"] += detail[1]
        elif kind == "drop":
            row["drops"] += 1
            row["dropped_bits"] += detail[1]
            row["bits"] += detail[1]  # charged on the wire, like sends
        elif kind == "halt":
            row["halts"] += 1
        elif kind == "fault_drop":
            row["fault_drops"] += 1
            row["fault_dropped_bits"] += detail[1]
            row["bits"] += detail[1]  # charged on the wire, never read
        elif kind == "fault_delay":
            row["fault_delays"] += 1
        elif kind == "fault_dup":
            row["fault_dups"] += 1
            row["messages"] += 1
            row["bits"] += detail[1]  # an injected copy is a real message
        elif kind == "crash":
            row["crashes"] += 1
        elif kind == "restart":
            row["restarts"] += 1

    def on_round_profile(self, profile: RoundProfile) -> None:
        row = self._row(profile.round_index)
        row["compute_seconds"] += profile.compute_seconds
        row["delivery_seconds"] += profile.delivery_seconds
        row["active_nodes"] = max(row["active_nodes"], profile.active_nodes)

    def rows(self) -> List[Dict[str, Any]]:
        """Rows in round order."""
        return [self._rows[r] for r in sorted(self._rows)]

    @property
    def total_compute_seconds(self) -> float:
        return sum(r["compute_seconds"] for r in self._rows.values())

    @property
    def total_delivery_seconds(self) -> float:
        return sum(r["delivery_seconds"] for r in self._rows.values())


class JsonlStreamSink:
    """Streams events (and round profiles) to a JSONL file as they happen.

    Unlike an in-memory trace this never truncates: memory stays O(1) no
    matter how many events a run produces.  Non-JSON payload details are
    stringified via ``repr`` rather than failing the run.  Also exposes
    :meth:`write` for arbitrary extra records (metadata, final metrics);
    usable as a context manager.
    """

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        if isinstance(path_or_file, str):
            self._fh: IO[str] = open(path_or_file, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = path_or_file
            self._owns = False
        self.records_written = 0

    def write(self, doc: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(doc, default=repr))
        self._fh.write("\n")
        self.records_written += 1

    def record(self, round_index: int, kind: str, node: int,
               detail: Any = None) -> None:
        self.write({"type": "event", "round": round_index, "kind": kind,
                    "node": node, "detail": detail})

    def on_round_profile(self, profile: RoundProfile) -> None:
        self.write({"type": "round_profile", **profile.to_dict()})

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlStreamSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class TelemetrySink:
    """Mirrors the event stream into a metric registry.

    Counters: ``sim_events_total{kind}`` for every instrumentation event,
    ``sim_bits_total`` for bits charged on the wire (sends, drops,
    fault-injected copies — the same charging discipline as
    :class:`RoundSeriesSink`), and cumulative compute/delivery wall-clock
    when round profiles are delivered.
    """

    # Event kinds whose detail[1] is a bit count charged on the wire.
    _BIT_KINDS = frozenset({"send", "drop", "fault_drop", "fault_dup"})

    def __init__(self, registry: Any) -> None:
        self.registry = registry
        self._events = registry.counter(
            "sim_events_total",
            "Simulator instrumentation events, by kind.",
            labelnames=("kind",),
        )
        self._bits = registry.counter(
            "sim_bits_total",
            "Bits charged on the wire by the simulator event stream.",
        )
        self._compute = registry.counter(
            "sim_compute_seconds_total",
            "Cumulative per-round node-compute wall-clock seconds.",
        )
        self._delivery = registry.counter(
            "sim_delivery_seconds_total",
            "Cumulative per-round message-delivery wall-clock seconds.",
        )

    def record(self, round_index: int, kind: str, node: int,
               detail: Any = None) -> None:
        self._events.inc(kind=kind)
        if kind in self._BIT_KINDS and detail is not None:
            self._bits.inc(int(detail[1]))

    def on_round_profile(self, profile: RoundProfile) -> None:
        self._compute.inc(profile.compute_seconds)
        self._delivery.inc(profile.delivery_seconds)


class MultiSink:
    """Fans one event stream out to several sinks."""

    def __init__(self, sinks: Iterable[Any]) -> None:
        self.sinks = tuple(sinks)
        self._profiled = tuple(
            s for s in self.sinks
            if getattr(s, "on_round_profile", None) is not None
        )

    def record(self, round_index: int, kind: str, node: int,
               detail: Any = None) -> None:
        for s in self.sinks:
            s.record(round_index, kind, node, detail)

    def on_round_profile(self, profile: RoundProfile) -> None:
        for s in self._profiled:
            s.on_round_profile(profile)
