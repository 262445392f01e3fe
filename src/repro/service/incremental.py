"""Incremental re-solve planning for delta-form solve requests.

A solve that arrived as ``{"delta": {"parent": fp, "ops": [...]}}``
names its own provenance: the serving layer knows exactly which stored
graph the request's graph was edited from, and how.  When the parent's
report for the *same* ``(algorithm, seed, params)`` is already cached —
in the engine's memory tier or the shared disk cache, under the key
every backend shares — the engine can try to **derive** the child's
report instead of re-running the solver:

1. **Eligibility** (:func:`eligible`).  The derivation is only sound
   when the cached independent set is guaranteed to be what a fresh run
   on the child would choose.  That holds exactly for *weight-only*
   deltas (topology unchanged) under *weight-oblivious* algorithms
   (:data:`WEIGHT_OBLIVIOUS` — the MIS family, whose execution never
   reads a node weight).  Everything else — topology edits, or
   weight-sensitive algorithms like the paper's ``thm*`` solvers —
   falls back to a full solve of the child.
2. **Certification** (:func:`certify`).  Even an eligible derivation is
   gated behind a structural re-check of the cached set against the
   child's *dirty region* — the radius-1 BFS ball around the touched
   nodes (:func:`repro.graphs.delta.dirty_region`), the only
   neighbourhoods an edit can have changed.  Independence and local
   maximality are re-verified there; any violation (a corrupted cache
   entry, a mis-declared delta) falls back to the full solve rather
   than serving an uncertified set.
3. **Derivation** (:func:`derive_report`).  The child's report is the
   parent's with the graph fingerprint swapped, the set weight re-summed
   under the child's weights, and the request's own label — and is
   **byte-identical** to the canonical report a full solve of the child
   would produce (pinned by the delta-plane test-suite on both
   backends).

The engine surfaces the decision as ``solve_mode``
(``"incremental"``/``"full"``) plus the dirty-frontier size in the
served envelope, and counts each outcome
(``incremental_served``/``incremental_fallback``) in ``/v1/metrics``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.api import SolveReport, SolveRequest
from repro.graphs.delta import dirty_region
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "WEIGHT_OBLIVIOUS",
    "certify",
    "derive_report",
    "eligible",
    "parent_report_from_disk",
]

# Registry algorithms whose execution is a pure function of (topology,
# seed, params) — node weights are carried in the instance but never
# read.  Only these may reuse a parent's independent set across a
# reweighting.  The paper's thm* solvers are all weight-*sensitive*
# (they bucket, compare, and exchange weights), so they always take the
# full path.
WEIGHT_OBLIVIOUS = frozenset({"mis-luby", "mis-ghaffari", "mis-det"})


def eligible(request: SolveRequest) -> bool:
    """Whether a derived (incremental) report can be *sound* for this
    request: delta-form, weight-only edits, weight-oblivious algorithm."""
    return (request.delta is not None
            and request.delta.weight_only
            and request.algorithm in WEIGHT_OBLIVIOUS)


def certify(child: WeightedGraph, independent_set: Iterable[int],
            touched: Iterable[int],
            ) -> Optional[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Re-verify the cached set against the child's dirty region.

    Checks independence and local maximality for every node within one
    hop of a touched node — the only places an edit can have changed
    either property.  Returns ``(region, frontier)`` when the set still
    certifies there, ``None`` when it does not (→ full solve).
    """
    region, frontier = dirty_region(child, touched, radius=1)
    chosen = set(independent_set)
    for v in region:
        if v in chosen:
            if any(u in chosen for u in child.neighbors(v)):
                return None  # independence violated
        elif not any(u in chosen for u in child.neighbors(v)):
            return None      # local maximality violated
    return region, frontier


def derive_report(parent_report: SolveReport,
                  request: SolveRequest) -> SolveReport:
    """The child's canonical report, derived from the parent's.

    Sound only after :func:`eligible` and :func:`certify`: the chosen
    set, CONGEST cost accounting, metrics, and guarantee metadata are
    all weight-oblivious functions of (topology, seed, params) and carry
    over verbatim; only the graph fingerprint, the set's weight under
    the child's node weights, and the request's serving label change.
    ``total_weight`` sums in the report's set order — the same order a
    full solve uses — so the derived bytes match exactly.
    """
    child = request.graph
    return replace(
        parent_report,
        graph_fingerprint=child.fingerprint(),
        weight=child.total_weight(parent_report.independent_set),
        params=dict(request.params),
        label=request.label,
    )


def parent_report_from_disk(cache_dir: str, request: SolveRequest, *,
                            policy=None) -> Optional[SolveReport]:
    """The parent's report from the shared disk cache, if present.

    Addresses the batch engine's cache by raw coordinates (parent
    fingerprint + the request's algorithm/seed/params) — no graph is
    materialized, and the backend plays no part: one entry serves
    every backend.  Returns ``None`` on a miss or a failed cached
    outcome.
    """
    from repro.simulator.batch import cached_outcome_for

    assert request.delta is not None
    outcome = cached_outcome_for(
        cache_dir,
        fingerprint=request.delta.parent,
        algorithm_name=request.algorithm,
        seed=request.seed,
        params=dict(request.params),
        policy=policy,
    )
    if outcome is None or not outcome.ok:
        return None
    return SolveReport.from_outcome(outcome, graph=_Fingerprint(
        request.delta.parent), algorithm=request.algorithm,
        params=request.params)


class _Fingerprint:
    """Graph stand-in carrying only a fingerprint (what
    :meth:`SolveReport.from_outcome` reads)."""

    def __init__(self, fp: str) -> None:
        self._fp = fp

    def fingerprint(self) -> str:
        return self._fp
