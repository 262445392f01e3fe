"""Batch-execution engine: fan ``(graph, algorithm, seed)`` jobs out.

The experiments in DESIGN.md validate w.h.p. claims over seed sweeps —
hundreds of independent simulator runs that the rest of the codebase used
to execute one at a time.  This module runs such a sweep across worker
processes while keeping the three properties the test-suite depends on:

* **Determinism.** Per-job seeds are derived up front from one master
  :class:`numpy.random.SeedSequence` (``SeedSequence(master).spawn(k)``,
  one 32-bit word per child), so the result of a sweep depends only on
  the master seed and the job list — never on worker scheduling.  With
  ``n_jobs=1`` jobs run in-process through the *same* code path, so the
  parallel and serial paths are bit-for-bit identical.
* **Failure isolation.** A job that raises is captured as a failed
  :class:`JobOutcome` (error string preserved); the sweep always returns
  one outcome per job.
* **Memoization.** With ``cache_dir`` set, each completed job is written
  to disk as one ``<key>.json`` file, keyed by ``sha256(graph fingerprint
  | algorithm name | seed | bandwidth policy | params)``; re-running a
  sweep only pays for jobs it has not seen.  The execution backend is
  not part of the key: backends give byte-identical outcomes, so a
  per-node and a columnar run of the same job share one entry.  Failed
  jobs are never cached.

Algorithms are usually named (see :func:`repro.registry.algorithm_registry`)
so that workers resolve the callable on their side of the process boundary;
a job may also carry a picklable callable directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graphs.store import GraphRef, atomic_write
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs.telemetry import collect_run_telemetry
from repro.registry import AlgorithmFn
from repro.registry import algorithm_registry as _algorithm_registry
from repro.simulator.instrument import (install_backend, install_faults,
                                        outcome_emitters)
from repro.simulator.metrics import RunMetrics
from repro.simulator.models import BandwidthPolicy

__all__ = [
    "BatchJob",
    "JobOutcome",
    "BatchResult",
    "batch_run",
    "run_job",
    "derive_job_seeds",
    "cache_key_for",
    "cached_outcome_for",
    "job_cache_key",
]


# --------------------------------------------------------------------- #
# job / outcome / result types
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class BatchJob:
    """One unit of work: run ``algorithm`` on ``graph`` with one seed.

    ``algorithm`` is a registry name (resolved inside the worker) or a
    picklable callable with signature ``fn(graph, seed=..., **params)``.
    ``seed=None`` means "derive from the master seed by job position";
    an explicit int is used verbatim, which lets experiments route their
    existing per-trial seeds through the engine unchanged.

    ``graph`` may also be a :class:`~repro.graphs.store.GraphRef`: the
    job then pickles as a few hundred bytes and the executing worker
    attaches the graph zero-copy through the open store over the ref's
    root (once per graph per worker, not once per job).  Cache keys only use
    ``graph.fingerprint()``, so ref jobs and materialized jobs share
    cache entries bit for bit.
    """

    graph: Union[WeightedGraph, GraphRef]
    algorithm: Union[str, AlgorithmFn]
    seed: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    # Optional repro.faults.FaultPlan, installed ambiently around the
    # job's execution so every inner run() of a composed algorithm sees
    # it.  Duck-typed (anything with describe()/begin()) to keep this
    # module import-independent of the faults package.
    faults: Optional[Any] = None
    # Optional execution backend name ("per-node"/"columnar"), installed
    # ambiently around the job so every inner run() of a composed
    # algorithm uses it.  None means the default backend (columnar).
    backend: Optional[str] = None
    # The registry name of a callable ``algorithm`` (the service's
    # engine injects registry entries as callables): it names the job
    # in the cache key and the outcome in place of the callable's
    # qualified name, so the entry is found under the name the request
    # used.
    name: str = ""

    @property
    def backend_name(self) -> str:
        """Canonical backend name for this job (``None`` is
        :data:`~repro.simulator.backends.DEFAULT_BACKEND`, columnar).

        Unknown strings pass through verbatim so that listing/keying a
        malformed job never raises — the run itself reports the error.
        """
        from repro.simulator.backends import normalize_backend_name

        try:
            return normalize_backend_name(self.backend)
        except ValueError:
            return str(self.backend)

    @property
    def algorithm_name(self) -> str:
        """The outcome's label: :attr:`cache_name` with ``@<backend>``
        after the algorithm for a non-default backend.  Sweeps aggregate
        per (algorithm, backend) cell — a sweep comparing backends shows
        "mis-det@per-node" next to "mis-det"."""
        from repro.simulator.backends import DEFAULT_BACKEND

        backend = self.backend_name
        return self._name("" if backend == DEFAULT_BACKEND
                          else f"@{backend}")

    @property
    def cache_name(self) -> str:
        """The algorithm's name in the disk-cache key: the registry name
        (or, for a callable without :attr:`name`, its qualified name)
        plus any fault plan, never the backend — backends give
        byte-identical outcomes, so per-node and columnar runs of one
        job share one entry."""
        return self._name("")

    def _name(self, backend_tag: str) -> str:
        if isinstance(self.algorithm, str):
            name = self.algorithm
        elif self.name:
            name = self.name
        else:
            fn = self.algorithm
            name = (f"{getattr(fn, '__module__', '?')}."
                    f"{getattr(fn, '__qualname__', repr(fn))}")
        name += backend_tag
        if self.faults is not None:
            # The fault plan is part of the algorithm's identity: sweeps
            # aggregate per (algorithm, fault plan) cell, and the cache
            # must never serve a faulted run for a fault-free request.
            name = f"{name}+{self.faults.describe()}"
        return name


@dataclass(frozen=True)
class JobOutcome:
    """Result of one job: either a solution or a captured failure."""

    index: int
    algorithm: str
    seed: int
    ok: bool
    independent_set: Tuple[int, ...] = ()
    weight: float = 0.0
    metrics: Optional[RunMetrics] = None
    error: str = ""
    cached: bool = False
    seconds: float = 0.0
    label: str = ""
    # JSON-scalar subset of the AlgorithmResult metadata (guarantee_factor,
    # theorem, eps, ...) — what certify_result needs to re-check a returned
    # set against the guarantee the pipeline claimed for it.
    metadata: Dict[str, Any] = field(default_factory=dict)
    # Execution provenance from repro.obs.telemetry (backend run counts,
    # fleet-kernel wall time, fallbacks with reasons, stage timings).
    # Like `cached`/`seconds` it is wall-clock/provenance, not identity:
    # excluded from signature(), to_doc(), equality, and cache entries.
    telemetry: Dict[str, Any] = field(default_factory=dict, compare=False)

    def signature(self) -> Tuple[Any, ...]:
        """Everything deterministic about the outcome (no wall-clock, no
        cache provenance) — what the n_jobs=1 vs n_jobs=4 test compares."""
        return (
            self.index,
            self.algorithm,
            self.seed,
            self.ok,
            self.independent_set,
            self.weight,
            self.metrics.as_tuple() if self.metrics is not None else None,
            self.error,
            tuple(sorted(self.metadata.items())),
        )

    def to_doc(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "ok": self.ok,
            "independent_set": list(self.independent_set),
            "weight": self.weight,
            "metrics": None if self.metrics is None else self.metrics.to_dict(),
            "error": self.error,
            "seconds": self.seconds,
            "label": self.label,
            "metadata": dict(self.metadata),
        }

    @staticmethod
    def from_doc(doc: Dict[str, Any], *, index: int, cached: bool) -> "JobOutcome":
        metrics = doc.get("metrics")
        return JobOutcome(
            index=index,
            algorithm=doc["algorithm"],
            seed=int(doc["seed"]),
            ok=bool(doc["ok"]),
            independent_set=tuple(int(v) for v in doc.get("independent_set", [])),
            weight=float(doc.get("weight", 0.0)),
            metrics=None if metrics is None else RunMetrics.from_dict(metrics),
            error=str(doc.get("error", "")),
            cached=cached,
            seconds=float(doc.get("seconds", 0.0)),
            label=str(doc.get("label", "")),
            metadata=dict(doc.get("metadata") or {}),
        )


@dataclass(frozen=True)
class BatchResult:
    """Aggregate of a sweep: one :class:`JobOutcome` per submitted job."""

    outcomes: Tuple[JobOutcome, ...]
    master_seed: Optional[int] = None

    @property
    def jobs(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> Tuple[JobOutcome, ...]:
        return tuple(o for o in self.outcomes if o.ok)

    @property
    def failures(self) -> Tuple[JobOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def cached_jobs(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def mean_rounds(self) -> float:
        done = [o for o in self.completed if o.metrics is not None]
        if not done:
            return 0.0
        return sum(o.metrics.rounds for o in done) / len(done)

    @property
    def max_rounds(self) -> int:
        done = [o for o in self.completed if o.metrics is not None]
        return max((o.metrics.rounds for o in done), default=0)

    @property
    def total_bits(self) -> int:
        return sum(o.metrics.total_bits for o in self.completed
                   if o.metrics is not None)

    @property
    def total_messages(self) -> int:
        return sum(o.metrics.messages for o in self.completed
                   if o.metrics is not None)

    def metrics_parallel(self) -> RunMetrics:
        """All completed jobs composed as concurrent executions: the
        sweep's rounds are the slowest job's, traffic adds."""
        merged = RunMetrics()
        for o in self.completed:
            if o.metrics is not None:
                merged = merged.merge_parallel(o.metrics)
        return merged

    def signature(self) -> Tuple[Tuple[Any, ...], ...]:
        return tuple(o.signature() for o in self.outcomes)

    def cells(self) -> List[Dict[str, Any]]:
        """Per-(label, algorithm) p50/p95 summaries of the sweep.

        Labels carry the instance identity in multi-instance sweeps (the
        experiments name jobs per graph); a single-instance sweep
        collapses to one cell per algorithm.
        """
        from repro.obs.aggregate import aggregate_jobs

        docs = [{"label": o.label, **o.to_doc()} for o in self.outcomes]
        aggregated = aggregate_jobs(docs)
        return [aggregated[key] for key in sorted(aggregated)]

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly headline numbers (what the CLI prints)."""
        return {
            "jobs": self.jobs,
            "ok": len(self.completed),
            "failed": len(self.failures),
            "cached": self.cached_jobs,
            "mean_rounds": self.mean_rounds,
            "max_rounds": self.max_rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "mean_weight": (
                sum(o.weight for o in self.completed) / len(self.completed)
                if self.completed else 0.0
            ),
            "cells": self.cells(),
            "errors": [
                {"index": o.index, "seed": o.seed, "error": o.error}
                for o in self.failures
            ],
        }


# --------------------------------------------------------------------- #
# seeding and cache keys
# --------------------------------------------------------------------- #

def derive_job_seeds(master_seed: Optional[int], count: int) -> List[int]:
    """``count`` independent 32-bit seeds from one master seed.

    Children of ``SeedSequence(master_seed)`` in spawn order; job ``i``
    always gets child ``i``, so the mapping is independent of how many
    workers run the sweep.
    """
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


def _policy_key(policy: Optional[BandwidthPolicy]) -> str:
    if policy is None:
        return "default"
    model = getattr(policy.model, "name", str(policy.model))
    return f"{model}:{policy.factor}:{int(policy.strict)}"


def cache_key_for(*, fingerprint: str, algorithm_name: str, seed: int,
                  policy: Optional[BandwidthPolicy],
                  params: Dict[str, Any]) -> str:
    """The on-disk cache key from its raw coordinates.

    Exists so callers that know a fingerprint but hold no graph — the
    incremental re-solve path looking up a *parent's* outcome from a
    delta-form request — can address the cache without materializing
    anything."""
    doc = {
        "fingerprint": fingerprint,
        "algorithm": algorithm_name,
        "seed": seed,
        "policy": _policy_key(policy),
        "params": params,
    }
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def job_cache_key(job: BatchJob, seed: int,
                  policy: Optional[BandwidthPolicy]) -> str:
    """Hex digest identifying a job for the on-disk cache."""
    return cache_key_for(fingerprint=job.graph.fingerprint(),
                         algorithm_name=job.cache_name, seed=seed,
                         policy=policy, params=job.params)


def cached_outcome_for(cache_dir: str, *, fingerprint: str,
                       algorithm_name: str, seed: int,
                       params: Dict[str, Any],
                       policy: Optional[BandwidthPolicy] = None,
                       ) -> Optional[JobOutcome]:
    """Load the cached outcome for raw job coordinates, if present.

    Read-only: never executes anything and never writes cache entries.
    """
    key = cache_key_for(fingerprint=fingerprint,
                        algorithm_name=algorithm_name, seed=seed,
                        policy=policy, params=params)
    return _cache_load(cache_dir, key, 0)


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def _cache_load(cache_dir: str, key: str, index: int) -> Optional[JobOutcome]:
    path = _cache_path(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    try:
        return JobOutcome.from_doc(doc["outcome"], index=index, cached=True)
    except (KeyError, TypeError, ValueError):
        return None  # corrupt entry: recompute and overwrite


def _cache_store(cache_dir: str, key: str, outcome: JobOutcome) -> None:
    # Atomic: concurrent sweeps and threads never see partial files.
    doc = {"key": key, "outcome": outcome.to_doc()}
    atomic_write(_cache_path(cache_dir, key),
                 json.dumps(doc, indent=1).encode("utf-8"))


def _cache_hit(hit: JobOutcome, job: BatchJob, lookup_s: float) -> JobOutcome:
    """A loaded entry relabelled for the job that asked: its ``label``,
    and its ``algorithm_name`` — one entry serves every backend, so a
    per-node job reads back ``"mis-det@per-node"`` from the entry a
    columnar run wrote as ``"mis-det"``."""
    return _with_stage(replace(hit, label=job.label,
                               algorithm=job.algorithm_name),
                       "cache_lookup", lookup_s)


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #

def _scalar_metadata(metadata: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-scalar subset of an ``AlgorithmResult.metadata`` dict.

    Algorithm metadata carries arbitrary diagnostics (phase logs, sampled
    subgraphs, numpy arrays); only plain scalars survive the JSON cache
    and wire round-trips, and those are exactly the entries the
    certification path consumes (``guarantee_factor``, ``theorem``,
    ``eps``, ``delta``, ...).
    """
    out: Dict[str, Any] = {}
    for key, value in metadata.items():
        if value is None or isinstance(value, (bool, str)):
            out[key] = value
        elif isinstance(value, (int, np.integer)):
            out[key] = int(value)
        elif isinstance(value, (float, np.floating)):
            out[key] = float(value)
    return out


def _execute_job(payload: Tuple[int, BatchJob, int, Optional[BandwidthPolicy]]) -> JobOutcome:
    """Run one job; top-level so ProcessPoolExecutor can pickle it."""
    index, job, seed, policy = payload
    start = time.perf_counter()
    attach_s = 0.0
    # The collector sees every inner run() of composed algorithms on
    # this thread (workers ship the collected doc back inside the
    # pickled outcome); it never touches the result itself.
    with collect_run_telemetry() as collector:
        try:
            if isinstance(job.graph, GraphRef):
                # Zero-copy resolution: the open store over the ref's
                # root (in a server, the engine's) attaches each
                # fingerprint once per process, so repeat jobs skip
                # graph unpickling entirely.
                t0 = time.perf_counter()
                job = replace(job, graph=job.graph.resolve())
                attach_s = time.perf_counter() - t0
            if isinstance(job.algorithm, str):
                registry = _algorithm_registry()
                if job.algorithm not in registry:
                    raise KeyError(
                        f"unknown algorithm {job.algorithm!r}; "
                        f"known: {sorted(registry)}"
                    )
                fn = registry[job.algorithm]
            else:
                fn = None
            with ExitStack() as stack:
                if job.faults is not None:
                    # Ambient installation reaches every inner run() of
                    # composed algorithms; works identically in workers (the
                    # plan pickles with the job) and in-process.
                    stack.enter_context(install_faults(job.faults))
                if job.backend is not None:
                    stack.enter_context(install_backend(job.backend))
                if fn is not None:
                    result = fn(job.graph, seed=seed, policy=policy,
                                **job.params)
                else:
                    result = job.algorithm(job.graph, seed=seed, **job.params)
            chosen = tuple(sorted(result.independent_set))
            outcome = JobOutcome(
                index=index,
                algorithm=job.algorithm_name,
                seed=seed,
                ok=True,
                independent_set=chosen,
                weight=job.graph.total_weight(chosen),
                metrics=result.metrics,
                seconds=time.perf_counter() - start,
                label=job.label,
                metadata=_scalar_metadata(
                    getattr(result, "metadata", {}) or {}),
                telemetry=collector.to_doc(),
            )
        except Exception as exc:  # noqa: BLE001 — one bad job must not kill the sweep
            outcome = JobOutcome(
                index=index,
                algorithm=job.algorithm_name,
                seed=seed,
                ok=False,
                error=f"{type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - start,
                label=job.label,
                telemetry=collector.to_doc(),
            )
    if attach_s:
        outcome = _with_stage(outcome, "graph_attach", attach_s)
    return outcome


def _with_stage(outcome: JobOutcome, name: str, seconds: float) -> JobOutcome:
    """Fold one serving-stage duration into the outcome's telemetry doc."""
    telemetry = dict(outcome.telemetry)
    stages = dict(telemetry.get("stages", {}))
    stages[name] = stages.get(name, 0.0) + seconds
    telemetry["stages"] = stages
    return replace(outcome, telemetry=telemetry)


def run_job(
    job: BatchJob,
    *,
    master_seed: Optional[int] = 0,
    policy: Optional[BandwidthPolicy] = None,
    cache_dir: Optional[str] = None,
    index: int = 0,
) -> JobOutcome:
    """Cache-aware, in-process execution of one job.

    This is the submission unit of :func:`repro.api.solve` and the solver
    service: the same cache keys, the same :func:`_execute_job` code path,
    and therefore bit-identical outcomes versus a :func:`batch_run` sweep
    containing the job.  ``index`` only matters for ``seed=None`` jobs
    (positional seed derivation) and for labelling the outcome.
    """
    seed = (job.seed if job.seed is not None
            else derive_job_seeds(master_seed, index + 1)[index])
    key = None
    lookup_s = 0.0
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        key = job_cache_key(job, seed, policy)
        t0 = time.perf_counter()
        hit = _cache_load(cache_dir, key, index)
        lookup_s = time.perf_counter() - t0
        if hit is not None:
            return _cache_hit(hit, job, lookup_s)
    outcome = _execute_job((index, job, seed, policy))
    if cache_dir is not None:
        outcome = _with_stage(outcome, "cache_lookup", lookup_s)
        if outcome.ok:
            _cache_store(cache_dir, key, outcome)
    return outcome


def batch_run(
    jobs: Sequence[BatchJob],
    *,
    master_seed: Optional[int] = 0,
    n_jobs: int = 1,
    cache_dir: Optional[str] = None,
    policy: Optional[BandwidthPolicy] = None,
    executor: Optional[Executor] = None,
) -> BatchResult:
    """Run a sweep of jobs, optionally across processes and with a cache.

    Args:
        jobs: the sweep.  Jobs with ``seed=None`` get a seed derived from
            ``master_seed`` by position (see :func:`derive_job_seeds`).
        master_seed: root of the per-job seed derivation.
        n_jobs: worker processes; ``1`` runs everything in-process (the
            deterministic fallback used by tests), identical results either way.
        cache_dir: directory of the JSON memo cache; ``None`` disables it.
        policy: bandwidth policy forwarded to named algorithms and mixed
            into the cache key.
        executor: a reusable :class:`concurrent.futures.Executor` to fan
            jobs out on instead of a per-call ProcessPoolExecutor — the
            long-running submission path of the solver service, which
            cannot afford a pool spawn per micro-batch.  The caller owns
            its lifecycle; ``n_jobs`` is ignored for dispatch (but not
            for validation) when it is given.

    Returns:
        A :class:`BatchResult` with one outcome per job, in job order.
    """
    jobs = list(jobs)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if cache_dir is not None:
        # Fail before paying for the sweep, not when storing its results.
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except (OSError, FileExistsError) as exc:
            raise ValueError(f"cache_dir {cache_dir!r} is not a usable "
                             f"directory: {exc}") from exc
        if not os.path.isdir(cache_dir):
            raise ValueError(f"cache_dir {cache_dir!r} exists and is not a "
                             f"directory")
    derived = derive_job_seeds(master_seed, len(jobs)) if jobs else []
    seeds = [job.seed if job.seed is not None else derived[i]
             for i, job in enumerate(jobs)]

    outcomes: Dict[int, JobOutcome] = {}
    pending: List[Tuple[int, BatchJob, int, Optional[BandwidthPolicy]]] = []
    keys: Dict[int, str] = {}
    lookup_s: Dict[int, float] = {}
    for i, (job, seed) in enumerate(zip(jobs, seeds)):
        if cache_dir is not None:
            keys[i] = job_cache_key(job, seed, policy)
            t0 = time.perf_counter()
            hit = _cache_load(cache_dir, keys[i], i)
            lookup_s[i] = time.perf_counter() - t0
            if hit is not None:
                outcomes[i] = _cache_hit(hit, job, lookup_s[i])
                continue
        pending.append((i, job, seed, policy))

    if pending:
        if executor is not None and len(pending) > 1:
            # Service path: micro-batches on a long-lived pool.  chunksize
            # stays 1 — latency matters more than IPC amortization here.
            fresh = list(executor.map(_execute_job, pending))
        elif n_jobs == 1 or len(pending) == 1:
            fresh = map(_execute_job, pending)
        else:
            workers = min(n_jobs, len(pending))
            # Chunk the dispatch: sweeps are typically thousands of
            # millisecond-sized jobs, where one IPC round-trip per job
            # would eat the parallel win.
            chunksize = max(1, len(pending) // (workers * 8))
            executor = ProcessPoolExecutor(max_workers=workers)
            try:
                fresh = list(executor.map(_execute_job, pending,
                                          chunksize=chunksize))
            finally:
                executor.shutdown()
        for outcome in fresh:
            if outcome.index in lookup_s:
                outcome = _with_stage(outcome, "cache_lookup",
                                      lookup_s[outcome.index])
            outcomes[outcome.index] = outcome
            if cache_dir is not None and outcome.ok:
                _cache_store(cache_dir, keys[outcome.index], outcome)

    ordered = tuple(outcomes[i] for i in range(len(jobs)))

    # Offer each outcome — span tree, timing, and instance identity
    # included — to ambiently installed emitters (repro sweep/experiments
    # --emit-metrics write them as per-job JSONL records).
    emitters = outcome_emitters()
    if emitters:
        for job, outcome in zip(jobs, ordered):
            doc = {
                "type": "job",
                "index": outcome.index,
                "graph": {
                    "n": job.graph.n,
                    "m": job.graph.m,
                    # A GraphRef carries no degree stats; emit None rather
                    # than materializing the graph just for the record.
                    "max_degree": getattr(job.graph, "max_degree", None),
                    "fingerprint": job.graph.fingerprint(),
                },
                **outcome.to_doc(),
                "cached": outcome.cached,
            }
            if outcome.telemetry:
                # Emit-time only: telemetry never enters to_doc() (cache
                # entries and report bytes stay canonical).
                doc["telemetry"] = outcome.telemetry
            for emit in emitters:
                emit(doc)

    return BatchResult(outcomes=ordered, master_seed=master_seed)
