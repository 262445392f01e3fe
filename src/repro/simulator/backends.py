"""Pluggable execution backends for the round scheduler.

An :class:`ExecutionBackend` turns a ``(network, algorithm_factory)`` pair
into a :class:`~repro.simulator.runner.RunResult`.  Two implementations
ship:

* :class:`ColumnarBackend` (:mod:`repro.simulator.columnar`) — the
  default (:data:`DEFAULT_BACKEND`).  It executes a whole round as numpy
  array operations over the CSR structure, using per-algorithm *fleet
  kernels* (:mod:`repro.fleet`), and falls back to the per-node
  scheduler, counting each fallback with its reason, whenever exact
  per-event semantics are needed.
* :class:`PerNodeBackend` — the slot-indexed per-node scheduler in
  :mod:`repro.simulator.runner`.  This is the *semantics reference*:
  faults, event sinks, codec checks, and arbitrary node programs all work
  here, and the columnar backend is pinned byte-identical to it.  Tests
  that compare backends name it explicitly.

Backends are selected per call (``run(..., backend="per-node")``), or
ambiently for a whole block — including every inner ``run()`` of a
composed algorithm — with
:func:`~repro.simulator.instrument.install_backend`.  With neither,
:data:`DEFAULT_BACKEND` runs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, Union, runtime_checkable

import numpy as np

from repro.simulator.algorithm import NodeAlgorithm
from repro.simulator.models import BandwidthPolicy
from repro.simulator.network import Network
from repro.simulator.runner import AlgorithmFactory, RunResult
from repro.simulator.tracing import Trace

__all__ = [
    "ExecutionBackend",
    "PerNodeBackend",
    "get_backend",
    "normalize_backend_name",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
]

BACKEND_NAMES = ("per-node", "columnar")

# What "no backend given" means at every layer: runner.run, BatchJob,
# repro.solve/sweep, the service engine and the CLI.
DEFAULT_BACKEND = "columnar"


@runtime_checkable
class ExecutionBackend(Protocol):
    """Strategy interface for executing one simulation to completion.

    ``execute`` has the exact signature of the scheduler core: it must
    honour ``policy``/``seed``/``max_rounds`` and return a
    :class:`RunResult` byte-identical to the per-node reference for the
    same arguments (or delegate to it when it cannot guarantee that).
    """

    name: str

    def execute(
        self,
        network: Network,
        algorithm_factory: AlgorithmFactory,
        *,
        policy: Optional[BandwidthPolicy] = None,
        seed: Union[int, None, np.random.SeedSequence] = None,
        max_rounds: int = 100_000,
        trace: Optional[Trace] = None,
        sink: Optional[Any] = None,
        codec_check: bool = False,
        faults: Optional[Any] = None,
    ) -> RunResult:
        ...


class PerNodeBackend:
    """The slot-indexed per-node scheduler — the semantics reference."""

    name = "per-node"

    def execute(
        self,
        network: Network,
        algorithm_factory: AlgorithmFactory,
        *,
        policy: Optional[BandwidthPolicy] = None,
        seed: Union[int, None, np.random.SeedSequence] = None,
        max_rounds: int = 100_000,
        trace: Optional[Trace] = None,
        sink: Optional[Any] = None,
        codec_check: bool = False,
        faults: Optional[Any] = None,
    ) -> RunResult:
        from repro.simulator.runner import _execute_per_node

        return _execute_per_node(
            network,
            algorithm_factory,
            policy=policy,
            seed=seed,
            max_rounds=max_rounds,
            trace=trace,
            sink=sink,
            codec_check=codec_check,
            faults=faults,
        )


_INSTANCES: Dict[str, Any] = {}


def normalize_backend_name(spec: Optional[Any]) -> str:
    """Canonical backend name for ``spec`` (``None``/empty →
    :data:`DEFAULT_BACKEND`)."""
    if spec is None or spec == "":
        return DEFAULT_BACKEND
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name in BACKEND_NAMES:
            return name
        raise ValueError(
            f"unknown backend {spec!r}; known backends: {', '.join(BACKEND_NAMES)}"
        )
    name = getattr(spec, "name", None)
    if isinstance(name, str) and name:
        return name
    raise ValueError(f"not a backend name or instance: {spec!r}")


def get_backend(spec: Optional[Any]) -> ExecutionBackend:
    """Resolve a backend name or instance to an :class:`ExecutionBackend`.

    Accepts ``"per-node"``, ``"columnar"``, ``None``/``""``
    (:data:`DEFAULT_BACKEND`), or any object with an ``execute`` method
    (returned unchanged, so tests can install bespoke backends).
    """
    if spec is not None and not isinstance(spec, str):
        if callable(getattr(spec, "execute", None)):
            return spec
        raise ValueError(f"not an execution backend: {spec!r}")
    name = normalize_backend_name(spec)
    inst = _INSTANCES.get(name)
    if inst is None:
        if name == "per-node":
            inst = PerNodeBackend()
        else:
            from repro.simulator.columnar import ColumnarBackend

            inst = ColumnarBackend()
        _INSTANCES[name] = inst
    return inst
