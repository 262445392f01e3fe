"""Theorem 12 / Theorem 3: an ``8(1+ε)α``-approximation for low arboricity (§6).

Algorithm 6: for ``log n + 1`` phases, run a ``(1+ε)Δ``-approximation on
the subgraph induced by nodes of degree at most ``4α`` (whose maximum
degree is therefore ``≤ 4α``, so the inner guarantee is ``(1+ε)4α``); push
the result, zero out *all* low-degree nodes (not just the picked ones),
subtract neighbours' pushed weights elsewhere, and keep only
positive-weight nodes.  Since at least half the nodes of an
arboricity-``α`` graph have degree ``≤ 4α`` (Proposition 5), the node set
halves each phase and ``log n + 1`` phases empty the graph.  The greedy
pop then yields an ``8(1+ε)α``-approximation (Lemma 7).

Plugging in Theorem 2 as the inner algorithm gives Theorem 3's
``O(log n · poly(log log n)/ε)`` rounds.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.local_ratio import StackFrame, pop_stage, stack_value
from repro.core.theorem2 import theorem2_maxis
from repro.graphs.forests import arboricity as exact_arboricity
from repro.graphs.weighted_graph import WeightedGraph
from repro.results import AlgorithmResult
from repro.simulator.metrics import RunMetrics
from repro.simulator.network import Network
from repro.simulator.randomness import seed_sequence

__all__ = ["low_arboricity_maxis"]

# Inner black box: (graph, eps, seed) -> AlgorithmResult with a
# (1+eps)*Δ guarantee on its input graph.
InnerDeltaApprox = Callable[..., AlgorithmResult]


def _default_inner(graph: WeightedGraph, eps: float, *, seed=None,
                   n_bound=None) -> AlgorithmResult:
    return theorem2_maxis(graph, eps, seed=seed, n_bound=n_bound)


def low_arboricity_maxis(
    graph: WeightedGraph,
    eps: float,
    *,
    alpha: Optional[int] = None,
    inner: InnerDeltaApprox = _default_inner,
    phases: Optional[int] = None,
    threshold_factor: int = 4,
    seed: Union[int, None, np.random.SeedSequence] = None,
    n_bound: Optional[int] = None,
) -> AlgorithmResult:
    """Algorithm 6 end to end.

    Args:
        graph: input graph.
        eps: slack of the inner ``(1+ε)Δ``-approximation.
        alpha: the arboricity (or any upper bound on it).  When omitted it
            is computed exactly with the Nash–Williams matroid-partition
            machinery — a centralized preprocessing step standing in for
            the paper's assumption that ``α`` is known.
        inner: the ``(1+ε)Δ``-approximation black box (default Theorem 2).
        phases: override the ``log n + 1`` phase count.
        threshold_factor: the ``4`` of the ``4α`` degree threshold.  Below
            4 the halving argument (Proposition 5) fails and extra phases
            may be needed; above 4 the guarantee degrades toward
            ``2·factor·(1+ε)α``.  Exposed for the E10c ablation.
        seed: master seed.

    Returns:
        An ``8(1+ε)α``-approximate independent set (w.h.p. when the inner
        algorithm is randomized); metadata logs the peeling schedule.
    """
    if graph.n == 0:
        return AlgorithmResult(frozenset(), RunMetrics(), {"theorem": 3})
    bound = Network.of(graph, n_bound).n_bound
    if alpha is None:
        alpha = exact_arboricity(graph)
    alpha = max(1, int(alpha))
    threshold = threshold_factor * alpha

    t = phases if phases is not None else int(math.floor(math.log2(max(2, graph.n)))) + 1
    phase_seeds = seed_sequence(seed).spawn(max(t, 1))

    weights: Dict[int, float] = graph.weights
    active = {v for v, w in weights.items() if w > 0}
    metrics = RunMetrics()
    stack: List[StackFrame] = []
    phase_log: List[Dict[str, Any]] = []

    for i in range(t):
        if not active:
            break
        current = graph.induced_subgraph(active)
        low_degree = {v for v in current.nodes if current.degree(v) <= threshold}
        metrics.add_rounds(1)  # active nodes announce themselves -> local degrees

        pushed = frozenset()
        frame_value = 0.0
        if low_degree:
            low_graph = current.induced_subgraph(low_degree).with_weights(
                {v: weights[v] for v in low_degree}
            )
            result = inner(low_graph, eps, seed=phase_seeds[i], n_bound=bound)
            metrics = metrics.merge(result.metrics)
            pushed = result.independent_set
            frame = StackFrame(
                independent_set=pushed,
                residual_weights={v: weights[v] for v in pushed},
            )
            frame_value = frame.value
            stack.append(frame)

            # Weight update (Algorithm 6, line 13): zero ALL low-degree
            # nodes; everyone else loses its pushed neighbours' weight.
            new_weights = dict(weights)
            for v in low_degree:
                new_weights[v] = 0.0
            for v in pushed:
                wv = weights[v]
                for u in graph.neighbors(v):
                    if u not in low_degree and new_weights.get(u, 0.0) > 0.0:
                        new_weights[u] = max(new_weights[u] - wv, 0.0)
            weights = new_weights
            metrics.add_rounds(1)  # pushed nodes broadcast their weight

        phase_log.append({
            "phase": i,
            "active_nodes": len(active),
            "low_degree_nodes": len(low_degree),
            "pushed_nodes": len(pushed),
            "pushed_value": frame_value,
        })
        active = {v for v in active if weights[v] > 0}

    independent_set = pop_stage(graph, stack)
    metrics.add_rounds(len(stack))

    return AlgorithmResult(
        independent_set=independent_set,
        metrics=metrics,
        metadata={
            "theorem": 3,
            "alpha": alpha,
            "threshold": threshold,
            "phases_requested": t,
            "phases_executed": len(phase_log),
            "stack_value": stack_value(stack),
            "phase_log": phase_log,
            "guarantee_factor": 2.0 * threshold_factor * (1.0 + eps) * alpha,
            "residual_weight_left": sum(weights.values()),
        },
    )
