"""Baselines the paper compares against.

* :func:`bar_yehuda_maxis` — a faithful reconstruction of the PODC 2017
  Δ-approximation of Bar-Yehuda, Censor-Hillel, Ghaffari and Schwartzman
  [8]: a local-ratio scheme that spends one MIS black-box run per weight
  scale, ``O(MIS(n,Δ) · log W)`` rounds in total.  This is the previous
  best the paper claims an exponential speed-up over (E5 measures exactly
  that round-count gap).
* :func:`greedy_maxis` — the classical sequential heaviest-first greedy
  (a Δ-approximation; the "simple linear-time greedy" from §1).
* :func:`mis_baseline` — a plain MIS, which is a Δ-approximation only for
  unweighted graphs (the §1 observation that motivates the whole paper).
"""

from __future__ import annotations

import math
from typing import Any, Dict, FrozenSet, List, Optional, Union

import numpy as np

from repro.core.local_ratio import (
    StackFrame,
    apply_reduction,
    clip_nonnegative,
    pop_stage,
    stack_value,
)
from repro.graphs.weighted_graph import WeightedGraph
from repro.mis.interface import MISBlackBox, get_mis_blackbox
from repro.results import AlgorithmResult
from repro.simulator.metrics import RunMetrics
from repro.simulator.models import BandwidthPolicy
from repro.simulator.network import Network
from repro.simulator.randomness import seed_sequence

__all__ = ["bar_yehuda_maxis", "greedy_maxis", "mis_baseline"]

SeedLike = Union[int, None, np.random.SeedSequence]


def bar_yehuda_maxis(
    graph: WeightedGraph,
    *,
    mis: Union[str, MISBlackBox] = "luby",
    seed: SeedLike = None,
    policy: Optional[BandwidthPolicy] = None,
    n_bound: Optional[int] = None,
) -> AlgorithmResult:
    """The ``O(MIS(n,Δ) · log W)``-round Δ-approximation of [8].

    Reconstruction: sweep weight scales ``2^L, 2^{L-1}, ..., 1`` where
    ``L = ceil(log2 W)``.  At each scale, find an MIS of the subgraph
    induced by nodes whose *residual* weight is at least the scale
    threshold, push it with the local-ratio reduction, and continue.  A
    final scale at threshold ``> 0`` clears leftovers from non-integer
    weights.  The greedy pop then returns the answer.

    Weights must be ``>= 1`` wherever positive (the paper's integral
    ``W <= poly(n)`` setting) so the scale count is ``log W``.
    """
    if graph.n == 0:
        return AlgorithmResult(frozenset(), RunMetrics(), {"algorithm": "bar-yehuda"})
    w_max = graph.max_weight()
    if w_max <= 0:
        return AlgorithmResult(frozenset(), RunMetrics(), {"algorithm": "bar-yehuda"})

    levels = max(0, math.ceil(math.log2(w_max))) if w_max >= 1 else 0
    thresholds = [2.0 ** ell for ell in range(levels, -1, -1)]
    # Last sweep at an infinitesimal threshold collects any residual mass
    # below 1 (only relevant for non-integer inputs).
    thresholds.append(float(np.finfo(float).tiny))

    scale_seeds = seed_sequence(seed).spawn(len(thresholds))
    blackbox = get_mis_blackbox(mis)
    bound = Network.of(graph, n_bound).n_bound

    weights: Dict[int, float] = graph.weights
    metrics = RunMetrics()
    stack: List[StackFrame] = []
    scale_log: List[Dict[str, Any]] = []

    for idx, threshold in enumerate(thresholds):
        heavy = [v for v, w in weights.items() if w >= threshold and w > 0]
        metrics.add_rounds(1)  # heavy nodes announce themselves
        if not heavy:
            continue
        subgraph = graph.induced_subgraph(heavy)
        result = blackbox(subgraph, seed=scale_seeds[idx], policy=policy, n_bound=bound)
        metrics = metrics.merge(result.metrics)
        weights, frame = apply_reduction(graph, weights, result.independent_set)
        weights = clip_nonnegative(weights)
        stack.append(frame)
        metrics.add_rounds(1)  # weight-reduction broadcast
        scale_log.append({
            "threshold": threshold,
            "heavy_nodes": len(heavy),
            "pushed_nodes": len(frame.independent_set),
            "mis_rounds": result.rounds,
        })

    independent_set = pop_stage(graph, stack)
    metrics.add_rounds(len(stack))
    return AlgorithmResult(
        independent_set=independent_set,
        metrics=metrics,
        metadata={
            "algorithm": "bar-yehuda",
            "log_w_levels": len(thresholds),
            "stack_value": stack_value(stack),
            "scale_log": scale_log,
            "residual_weight_left": sum(weights.values()),
        },
    )


def greedy_maxis(graph: WeightedGraph) -> FrozenSet[int]:
    """Sequential heaviest-first greedy — a Δ-approximation reference.

    Each chosen node blocks at most Δ optimum nodes, none heavier than it.
    """
    order = sorted(graph.nodes, key=lambda v: (-graph.weight(v), v))
    chosen: set = set()
    blocked: set = set()
    for v in order:
        if v in blocked or v in chosen or graph.weight(v) <= 0:
            continue
        chosen.add(v)
        blocked.update(graph.neighbors(v))
    return frozenset(chosen)


def mis_baseline(
    graph: WeightedGraph,
    *,
    mis: Union[str, MISBlackBox] = "luby",
    seed: SeedLike = None,
    policy: Optional[BandwidthPolicy] = None,
    n_bound: Optional[int] = None,
) -> AlgorithmResult:
    """A bare MIS.  Δ-approximate for unit weights; arbitrarily bad when
    weights vary (the weighted counterexample motivating Theorem 8)."""
    blackbox = get_mis_blackbox(mis)
    result = blackbox(graph, seed=seed, policy=policy, n_bound=n_bound)
    return result.with_metadata(algorithm="mis-baseline")
