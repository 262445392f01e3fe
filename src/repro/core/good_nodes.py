"""Theorem 8: an ``O(MIS(n, Δ))``-round ``O(Δ)``-approximation (§4.1).

A node ``v`` is **good** when ``w(v) >= (1 / (2(δ(v)+1))) · Σ_{u ∈ N+(v)} w(u)``,
where ``δ(v)`` is the maximum degree in its inclusive neighbourhood.  Lemma 1:
any MIS of the subgraph induced by good nodes has weight at least
``w(V) / (4(Δ+1))``.

Distributed cost: two rounds to discover goodness (degrees+weights, then
good flags) plus one MIS black-box run on the good subgraph.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.graphs.weighted_graph import WeightedGraph
from repro.mis.interface import MISBlackBox, get_mis_blackbox
from repro.obs.spans import span
from repro.results import AlgorithmResult
from repro.simulator.algorithm import NodeAlgorithm
from repro.simulator.context import NodeContext
from repro.simulator.metrics import RunMetrics
from repro.simulator.models import BandwidthPolicy
from repro.simulator.network import Network
from repro.simulator.randomness import seed_sequence
from repro.simulator.runner import run

__all__ = ["GoodNodesProtocol", "good_nodes_approx", "good_node_set"]


class GoodNodesProtocol(NodeAlgorithm):
    """Two-round protocol computing each node's good/bad status.

    Halt output: ``True`` iff the node is good.
    """

    def __init__(self) -> None:
        self._sum_inclusive = 0.0
        self._delta = 0

    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast((ctx.degree, ctx.weight))

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        degrees = [msg[0] for msg in inbox.values()]
        weights = [msg[1] for msg in inbox.values()]
        self._delta = max(degrees + [ctx.degree])
        self._sum_inclusive = sum(weights) + ctx.weight
        good = ctx.weight >= self._sum_inclusive / (2.0 * (self._delta + 1))
        ctx.halt(bool(good))


def good_node_set(graph: WeightedGraph) -> frozenset:
    """Centralized reference computation of the good-node set (for tests)."""
    good = set()
    for v in graph.nodes:
        delta = max([graph.degree(u) for u in graph.inclusive_neighbors(v)])
        total = sum(graph.weight(u) for u in graph.inclusive_neighbors(v))
        if graph.weight(v) >= total / (2.0 * (delta + 1)):
            good.add(v)
    return frozenset(good)


def good_nodes_approx(
    graph: WeightedGraph,
    *,
    mis: Union[str, MISBlackBox] = "luby",
    seed: Union[int, None, np.random.SeedSequence] = None,
    policy: Optional[BandwidthPolicy] = None,
    n_bound: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> AlgorithmResult:
    """Run Theorem 8's algorithm end to end.

    Returns an independent set of weight at least ``w(V) / (4(Δ+1))``
    (Lemma 1 — a worst-case guarantee given a correct MIS black box).
    """
    if graph.n == 0:
        return AlgorithmResult(frozenset(), RunMetrics(), {"good_nodes": 0})

    seed_flags, seed_mis = seed_sequence(seed).spawn(2)

    network = Network.of(graph, n_bound)
    with span("good-nodes") as sp:
        flag_run = run(network, GoodNodesProtocol, policy=policy, seed=seed_flags)
        good = frozenset(v for v, is_good in flag_run.outputs.items() if is_good)
        sp.add(flag_run.metrics, name="flag-exchange")
        # One extra round: good nodes announce their status so each learns
        # its good neighbours before the MIS starts.
        sp.add_rounds(1, name="announce-good")

        subgraph = graph.induced_subgraph(good)
        blackbox = get_mis_blackbox(mis)
        mis_result = blackbox(
            subgraph,
            seed=seed_mis,
            policy=policy,
            n_bound=network.n_bound,
            max_rounds=max_rounds,
        )
        sp.add(mis_result.metrics)
    return AlgorithmResult(
        independent_set=mis_result.independent_set,
        metrics=sp.metrics(),
        metadata={
            "good_nodes": len(good),
            "mis_rounds": mis_result.rounds,
            "mis_algorithm": mis_result.metadata.get("algorithm"),
            "guarantee_denominator": 4.0 * (graph.max_degree + 1),
        },
    )
