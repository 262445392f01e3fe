"""The solver service: an asyncio daemon serving the v2 solve contract.

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
* :mod:`repro.service.incremental` — eligibility, certification, and
  derivation of incremental re-solves for delta-form requests.
* :mod:`repro.service.errors` — the unified error taxonomy every
  non-200 response speaks (worker and router alike).
* :mod:`repro.service.stats` — the one metric registry and the latency
  reservoir behind ``/v1/metrics`` (JSON + Prometheus).
* :mod:`repro.service.fleet` — the sharded multi-worker fleet
  (``repro fleet``): router, the one worker pool and its subprocess
  launcher, two-tier cache, and metric aggregation.

The load client (``repro loadgen``) is not part of the service: it is
:mod:`repro.bench.loadgen`, and nothing here imports it.
"""

from repro.service.engine import (
    DeadlineExceeded,
    RequestRejected,
    ServedReport,
    SolverEngine,
    UnknownAlgorithmError,
)
from repro.service.server import SolverServer, serve
from repro.service.stats import ServiceStats

__all__ = [
    "DeadlineExceeded",
    "RequestRejected",
    "ServedReport",
    "ServiceStats",
    "SolverEngine",
    "SolverServer",
    "UnknownAlgorithmError",
    "serve",
]
