"""Theorem 10: boosting an ``O(Δ)``-approximation to ``(1+ε)Δ`` (§4.3).

Algorithm 1: run the inner black box ``A`` for ``t = ceil(c/ε)`` push
phases on the residual-weight graph (only nodes of positive residual
participate), applying the local-ratio reduction after each phase; then
greedily pop the stack.  If ``A`` always returns an independent set of
weight at least ``w(V)/(cΔ)`` on its input, the popped set is a
``(1+ε)Δ``-approximation (Lemma 6) and also has weight at least
``w(V) / ((1+ε)(Δ+1))`` (the Remark / Corollary 1).

Round accounting: ``Σ_i rounds(A on G_{w_i})`` plus one weight-reduction
round per push phase plus one round per pop phase.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.local_ratio import (
    StackFrame,
    apply_reduction,
    clip_nonnegative,
    pop_stage,
    stack_value,
)
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs.spans import span
from repro.results import AlgorithmResult
from repro.simulator.randomness import seed_sequence

__all__ = ["InnerApprox", "boost", "phases_for"]

# An inner approximation algorithm: runs on a (residual-weight) graph and
# returns an AlgorithmResult whose set has weight >= w(V)/(c*Δ).
InnerApprox = Callable[..., AlgorithmResult]


def phases_for(c: float, eps: float) -> int:
    """``t = ceil(c/ε)`` push phases (§4.3)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return max(1, math.ceil(c / eps))


def boost(
    graph: WeightedGraph,
    inner: InnerApprox,
    *,
    eps: float,
    c: float,
    phases: Optional[int] = None,
    adaptive: bool = False,
    seed: Union[int, None, np.random.SeedSequence] = None,
) -> AlgorithmResult:
    """Algorithm 1 with black box ``inner``.

    Args:
        graph: the input graph ``G_w``.
        inner: black box with signature ``inner(graph, *, seed) ->
            AlgorithmResult`` guaranteeing weight ``>= w(V)/(cΔ)``.
        eps: the approximation slack ``ε``.
        c: the inner guarantee constant (e.g. ``4(Δ+1)/Δ`` for Theorem 8).
        phases: override the phase count ``t`` (defaults to ``ceil(c/ε)``).
        adaptive: stop pushing as soon as the residual total weight drops
            to ``ε/(1+ε) · max_v w(v)``.  Since ``OPT >= max_v w(v)``,
            this lands in Lemma 6's case 1 directly, so the ``(1+ε)Δ``
            guarantee is preserved while skewed instances finish in far
            fewer phases.  (An extension beyond the paper's fixed
            ``t = c/ε`` schedule; off by default.)
        seed: master seed; each phase gets an independent child seed.

    Returns:
        The popped independent set; metadata holds the per-phase log and
        the Proposition 2 stack value.
    """
    t = phases if phases is not None else phases_for(c, eps)
    phase_seeds = seed_sequence(seed).spawn(max(t, 1))
    stop_threshold = (
        eps / (1.0 + eps) * graph.max_weight() if adaptive else 0.0
    )

    weights: Dict[int, float] = graph.weights
    stack: List[StackFrame] = []
    phase_log: List[Dict[str, Any]] = []

    with span("boost") as sp:
        for i in range(t):
            positive = [v for v, w in weights.items() if w > 0]
            if not positive:
                break
            if adaptive and sum(weights[v] for v in positive) <= stop_threshold:
                break
            residual_graph = graph.induced_subgraph(positive).with_weights(
                {v: weights[v] for v in positive}
            )
            with span(f"push[{i}]") as ph:
                result = inner(residual_graph, seed=phase_seeds[i])
                ph.add(result.metrics)
                weights, frame = apply_reduction(
                    graph, weights, result.independent_set
                )
                weights = clip_nonnegative(weights)
                stack.append(frame)
                # Members of I_i broadcast their pushed weight.
                ph.add_rounds(1, name="reduce-broadcast")
            sp.add(ph.metrics())

            residual_total = residual_graph.total_weight()
            phase_log.append({
                "phase": i,
                "active_nodes": residual_graph.n,
                "active_weight": residual_total,
                "pushed_nodes": len(frame.independent_set),
                "pushed_value": frame.value,
                "inner_fraction": (frame.value / residual_total) if residual_total > 0 else 1.0,
                "inner_rounds": result.rounds,
            })

        independent_set = pop_stage(graph, stack)
        # One conflict-announcement round per pop phase.
        sp.add_rounds(len(stack), name="pop")

    return AlgorithmResult(
        independent_set=independent_set,
        metrics=sp.metrics(),
        metadata={
            "phases_requested": t,
            "phases_executed": len(stack),
            "stack_value": stack_value(stack),
            "phase_log": phase_log,
            "eps": eps,
            "c": c,
            "adaptive": adaptive,
            "residual_weight_left": sum(weights.values()),
        },
    )
