"""Structured observability: sinks, phase spans, export, aggregation.

The simulator's theorems are claims about rounds and bits; this package
makes those quantities *inspectable* instead of flat end-of-run totals:

* **Sinks** (:mod:`repro.obs.sinks`) plug into the runner's event stream
  — ring buffer, per-round time series, streaming JSONL, null — via the
  hooks in :mod:`repro.simulator.instrument`.
* **Spans** (:mod:`repro.obs.spans`) attribute a composed algorithm's
  rounds/messages/bits to named phases, preserving sequential vs.
  parallel composition; the tree rides on ``RunMetrics.span``.
* **Export** (:mod:`repro.obs.export`) renders recordings as round
  timelines, per-phase tables, or Chrome-trace JSON (``repro inspect``).
* **Aggregation** (:mod:`repro.obs.aggregate`) folds per-job sweep
  records into p50/p95 rounds/bits/wall-clock per (graph, algorithm).
* **Telemetry** (:mod:`repro.obs.telemetry`) is the metric layer:
  counters/gauges/histograms in a :class:`MetricRegistry` with
  Prometheus text exposition, trace contexts with per-stage latency,
  reservoir sampling, and the ambient per-run collector that carries
  kernel timings and columnar fallbacks from worker processes back to
  the service's ``/v1/metrics``.

See ``docs/observability.md`` for the guided tour.
"""

from repro.obs.aggregate import (
    aggregate_jobs,
    aggregate_jsonl,
    percentile,
    read_jsonl,
    render_cells,
)
from repro.obs.export import (
    chrome_trace,
    phase_rows,
    render_phase_table,
    render_round_timeline,
    render_telemetry,
    rows_from_events,
    telemetry_summary,
)
from repro.obs.sinks import (
    JsonlStreamSink,
    MultiSink,
    NullSink,
    RingBufferSink,
    RoundSeriesSink,
    TelemetrySink,
)
from repro.obs.spans import check_span, span, unattributed_rounds
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    ReservoirSample,
    RunTelemetry,
    TraceContext,
    collect_run_telemetry,
    current_collector,
    new_trace_id,
    prometheus_text,
)
from repro.simulator.instrument import (
    RoundProfile,
    install_outcome_emitter,
    install_sink,
)
from repro.simulator.metrics import SpanNode

__all__ = [
    "aggregate_jobs",
    "aggregate_jsonl",
    "percentile",
    "read_jsonl",
    "render_cells",
    "chrome_trace",
    "phase_rows",
    "render_phase_table",
    "render_round_timeline",
    "render_telemetry",
    "rows_from_events",
    "telemetry_summary",
    "JsonlStreamSink",
    "MultiSink",
    "NullSink",
    "RingBufferSink",
    "RoundSeriesSink",
    "TelemetrySink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "ReservoirSample",
    "RunTelemetry",
    "TraceContext",
    "collect_run_telemetry",
    "current_collector",
    "new_trace_id",
    "prometheus_text",
    "check_span",
    "span",
    "unattributed_rounds",
    "RoundProfile",
    "install_outcome_emitter",
    "install_sink",
    "SpanNode",
]
