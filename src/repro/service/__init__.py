"""The solver service: an asyncio daemon serving the v1 solve contract.

Layers:

* :mod:`repro.service.engine` — coalescing, admission control,
  micro-batching over the batch engine (HTTP-free; unit-testable).
* :mod:`repro.service.http` — the one HTTP/1.1 codec: request reader,
  response writer, route table, keep-alive client and blocking
  ``fetch``; the only module that knows the wire format.
* :mod:`repro.service.server` — the solver's route table and handlers
  over that codec (``repro serve``).
* :mod:`repro.service.cache` — the bounded LRU behind the engine's
  memory tier and the server's parse cache.
* :mod:`repro.service.loadgen` — the closed-loop benchmark client
  (``repro loadgen``), open-loop arrivals, and the churn benchmark
  against a mutating graph (``repro loadgen --churn``).
* :mod:`repro.service.incremental` — eligibility, certification, and
  derivation of incremental re-solves for delta-form requests.
* :mod:`repro.service.errors` — the unified error taxonomy every
  non-200 response speaks (worker and router alike).
* :mod:`repro.service.stats` — the one metric registry and the latency
  reservoir behind ``/v1/metrics`` (JSON + Prometheus).
* :mod:`repro.service.slo` — declarative service-level objectives and
  the verdict machinery ``make slo-check`` gates CI on.
* :mod:`repro.service.fleet` — the sharded multi-worker fleet
  (``repro fleet``): router, the one worker pool and its subprocess
  launcher, two-tier cache, and metric aggregation.
"""

from repro.service.engine import (
    DeadlineExceeded,
    RequestRejected,
    ServedReport,
    SolverEngine,
    UnknownAlgorithmError,
)
from repro.service.loadgen import (
    build_request_pool,
    generate_arrivals,
    generate_churn,
    run_churn,
    run_loadgen,
    run_open_loop,
)
from repro.service.server import SolverServer, serve
from repro.service.slo import SLOCheck, SLOReport, SLOSpec, load_slo_spec
from repro.service.stats import ServiceStats

__all__ = [
    "DeadlineExceeded",
    "RequestRejected",
    "SLOCheck",
    "SLOReport",
    "SLOSpec",
    "ServedReport",
    "ServiceStats",
    "SolverEngine",
    "SolverServer",
    "UnknownAlgorithmError",
    "build_request_pool",
    "generate_arrivals",
    "generate_churn",
    "load_slo_spec",
    "run_churn",
    "run_loadgen",
    "run_open_loop",
    "serve",
]
