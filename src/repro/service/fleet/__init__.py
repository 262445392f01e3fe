"""Sharded multi-worker solver fleet.

A router process in front of N worker processes, each running the full
``repro serve`` stack (engine + HTTP server).  The router shards
``POST /v1/solve`` traffic by the sha256 request fingerprint, so every
identical request — concurrent or repeated — lands on the same worker:
request coalescing and cache locality survive sharding.

Layers:

* :mod:`repro.service.fleet.routing` — deterministic sha256 shard
  assignment (never Python ``hash()``).
* :mod:`repro.service.fleet.supervisor` — worker lifecycle: spawn,
  readiness checks, restart-on-crash, graceful drain.
* :mod:`repro.service.fleet.router` — the asyncio HTTP router
  (``repro fleet``) with fleet-wide metric aggregation: a route table
  over :mod:`repro.service.http` (the codec and keep-alive client it
  shares with the worker server).
* :mod:`repro.service.fleet.aggregate` — merging per-worker
  ``/v1/metrics`` snapshots into one fleet document (JSON + Prometheus).
* :mod:`repro.service.fleet.saturation` — the open-loop saturation
  sweep that finds the throughput/latency knee per worker count and
  writes ``BENCH_fleet.json``.

The first tier of the two-tier (memory → disk) result cache is the
engine's :mod:`repro.service.cache` LRU, which the router also uses for
its routing cache; the single-process engine imports nothing from this
package.
"""

from repro.service.fleet.aggregate import aggregate_snapshots, render_fleet_prometheus
from repro.service.fleet.router import FleetRouter, run_fleet
from repro.service.fleet.routing import routing_key, shard_for_key, shard_for_request
from repro.service.fleet.saturation import saturation_sweep
from repro.service.fleet.supervisor import FleetSupervisor, ThreadedFleet

__all__ = [
    "FleetRouter",
    "FleetSupervisor",
    "ThreadedFleet",
    "aggregate_snapshots",
    "render_fleet_prometheus",
    "routing_key",
    "run_fleet",
    "saturation_sweep",
    "shard_for_key",
    "shard_for_request",
]
