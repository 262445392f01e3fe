"""Theorem 9: weighted sparsification for a fast ``O(Δ)``-approximation (§4.2).

Each node joins the sampled subgraph ``H`` with probability

    ``p(v) = min{ λ · log n̄ · (1/δ(v) + w(v)/wmax(v)), 1 }``

where ``δ(v)`` is the maximum degree and ``wmax(v)`` the maximum *weighted
degree* ``w(N(u))`` over the inclusive neighbourhood — the paper's trick for
not needing the global ``w(V)``.  W.h.p. (Lemmas 3 and 5):

* ``Δ_H = O(log n)``;
* ``w(V_H) = Ω(min{w(V), w(V) · log n / Δ})``.

Running Theorem 8's good-nodes algorithm on ``H`` then yields an independent
set of weight ``Ω(w(V)/Δ)`` in ``MIS(n, O(log n))`` rounds — the
exponential speed-up engine behind Theorem 2.

Distributed cost: three rounds of sampling protocol (degrees+weights;
weighted degrees; membership flags) plus the Theorem 8 run on ``H``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.core.good_nodes import good_nodes_approx
from repro.graphs.weighted_graph import WeightedGraph
from repro.mis.interface import MISBlackBox
from repro.obs.spans import span
from repro.results import AlgorithmResult
from repro.simulator.algorithm import NodeAlgorithm
from repro.simulator.context import NodeContext
from repro.simulator.metrics import RunMetrics
from repro.simulator.models import BandwidthPolicy
from repro.simulator.network import Network
from repro.simulator.randomness import seed_sequence
from repro.simulator.runner import run

__all__ = [
    "SamplingProtocol",
    "sample_subgraph",
    "sampling_probabilities",
    "sparsified_approx",
]

DEFAULT_LAMBDA = 2.0


class SamplingProtocol(NodeAlgorithm):
    """Three-round protocol implementing the §4.2 sampling step.

    Halt output: ``(joined, p)`` — membership in ``V_H`` and the
    probability used.

    The ``uniform_only`` flag drops the ``w(v)/wmax(v)`` boost term; that
    is *wrong* for skewed weights and exists only for the E10a ablation.
    """

    def __init__(self, lamb: float = DEFAULT_LAMBDA, uniform_only: bool = False) -> None:
        self._lamb = lamb
        self._uniform_only = uniform_only
        self._delta = 0
        self._weighted_degree = 0.0

    def on_start(self, ctx: NodeContext) -> None:
        if ctx.degree == 0:
            # Isolated nodes always join: they cost nothing and carry weight.
            ctx.halt((True, 1.0))
            return
        ctx.broadcast((ctx.degree, ctx.weight))

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        if ctx.round_index == 1:
            degrees = [msg[0] for msg in inbox.values()]
            weights = [msg[1] for msg in inbox.values()]
            self._delta = max(degrees + [ctx.degree])
            self._weighted_degree = sum(weights)
            ctx.broadcast(self._weighted_degree)
        elif ctx.round_index == 2:
            wmax = max(list(inbox.values()) + [self._weighted_degree])
            p = self._probability(ctx, wmax)
            joined = bool(ctx.rng.random() < p)
            ctx.halt((joined, p))

    def _probability(self, ctx: NodeContext, wmax: float) -> float:
        log_n = math.log(max(2, ctx.n_bound))
        degree_term = 1.0 / self._delta if self._delta > 0 else 1.0
        if self._uniform_only or wmax <= 0.0:
            weight_term = 0.0
        else:
            weight_term = ctx.weight / wmax
        return min(self._lamb * log_n * (degree_term + weight_term), 1.0)


def sampling_probabilities(graph: WeightedGraph, *, lamb: float = DEFAULT_LAMBDA,
                           n_bound: Optional[int] = None,
                           uniform_only: bool = False) -> Dict[int, float]:
    """Centralized reference computation of ``p(v)`` (for tests)."""
    bound = Network.of(graph, n_bound).n_bound
    log_n = math.log(max(2, bound))
    wdeg = {v: graph.weighted_degree(v) for v in graph.nodes}
    out: Dict[int, float] = {}
    for v in graph.nodes:
        if graph.degree(v) == 0:
            out[v] = 1.0
            continue
        delta = max(graph.degree(u) for u in graph.inclusive_neighbors(v))
        wmax = max(wdeg[u] for u in graph.inclusive_neighbors(v))
        degree_term = 1.0 / delta if delta > 0 else 1.0
        weight_term = 0.0 if (uniform_only or wmax <= 0) else graph.weight(v) / wmax
        out[v] = min(lamb * log_n * (degree_term + weight_term), 1.0)
    return out


@dataclass(frozen=True)
class SampleOutcome:
    """The sampled subgraph plus sampling diagnostics."""

    subgraph: WeightedGraph
    probabilities: Dict[int, float]
    metrics: RunMetrics


def sample_subgraph(
    graph: WeightedGraph,
    *,
    lamb: float = DEFAULT_LAMBDA,
    uniform_only: bool = False,
    seed: Union[int, None, np.random.SeedSequence] = None,
    policy: Optional[BandwidthPolicy] = None,
    n_bound: Optional[int] = None,
) -> SampleOutcome:
    """Run the sampling protocol and materialise ``H``."""
    network = Network.of(graph, n_bound)
    result = run(
        network,
        lambda: SamplingProtocol(lamb=lamb, uniform_only=uniform_only),
        policy=policy,
        seed=seed,
    )
    members = [v for v, (joined, _p) in result.outputs.items() if joined]
    probabilities = {v: p for v, (_j, p) in result.outputs.items()}
    return SampleOutcome(
        subgraph=graph.induced_subgraph(members),
        probabilities=probabilities,
        metrics=result.metrics,
    )


def sparsified_approx(
    graph: WeightedGraph,
    *,
    mis: Union[str, MISBlackBox] = "ghaffari",
    lamb: float = DEFAULT_LAMBDA,
    uniform_only: bool = False,
    seed: Union[int, None, np.random.SeedSequence] = None,
    policy: Optional[BandwidthPolicy] = None,
    n_bound: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> AlgorithmResult:
    """Theorem 9 end to end: sample ``H``, then Theorem 8 on ``H``.

    Returns an independent set of weight ``Ω(w(V)/Δ)`` w.h.p.; the
    metadata records ``Δ_H`` and ``w(V_H)`` so experiments can check the
    two sampling lemmas directly.
    """
    if graph.n == 0:
        return AlgorithmResult(frozenset(), RunMetrics(), {"sampled_nodes": 0})

    seed_sample, seed_inner = seed_sequence(seed).spawn(2)

    with span("sparsified") as sp:
        outcome = sample_subgraph(
            graph,
            lamb=lamb,
            uniform_only=uniform_only,
            seed=seed_sample,
            policy=policy,
            n_bound=n_bound,
        )
        h = outcome.subgraph
        sp.add(outcome.metrics, name="sample-H")
        # Membership flags travel one extra round so each H-node knows its
        # H-neighbours before Theorem 8 starts on the subgraph.
        sp.add_rounds(1, name="announce-membership")

        inner = good_nodes_approx(
            h,
            mis=mis,
            seed=seed_inner,
            policy=policy,
            n_bound=Network.of(graph, n_bound).n_bound,
            max_rounds=max_rounds,
        )
        sp.add(inner.metrics)
    return AlgorithmResult(
        independent_set=inner.independent_set,
        metrics=sp.metrics(),
        metadata={
            "sampled_nodes": h.n,
            "sampled_max_degree": h.max_degree,
            "sampled_weight": h.total_weight(),
            "total_weight": graph.total_weight(),
            "good_nodes": inner.metadata.get("good_nodes"),
            "mis_rounds": inner.metadata.get("mis_rounds"),
            "lambda": lamb,
            "uniform_only": uniform_only,
        },
    )
