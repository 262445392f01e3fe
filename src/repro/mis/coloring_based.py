"""MIS from a colouring: the classic colour-class sweep.

Given a proper colouring with colours ``0..C``, sweep one colour per
round: a node of colour ``c`` joins the MIS in round ``c+1`` unless a
neighbour already joined.  Correctness is immediate (same-colour nodes
are non-adjacent; earlier joiners block later ones) and the sweep costs
``C + 1`` rounds — so with a ``(Δ+1)``-colouring this is the classic
``MIS in O(Δ + coloring)`` reduction (cf. §8's colouring discussion and
[10, 11] in the paper's references).

Combined with :func:`repro.coloring.random_coloring` it gives a fourth
interchangeable MIS black box with a different round profile:
``O(log n)`` colouring + ``Δ + 1`` sweep — better than Luby when
``Δ << log n``-many conflicts dominate, worse on high-degree graphs.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from repro.graphs.weighted_graph import WeightedGraph
from repro.obs.spans import span
from repro.results import AlgorithmResult
from repro.simulator.algorithm import NodeAlgorithm
from repro.simulator.context import NodeContext
from repro.simulator.metrics import RunMetrics
from repro.simulator.models import BandwidthPolicy
from repro.simulator.network import Network
from repro.simulator.randomness import seed_sequence
from repro.simulator.runner import run

__all__ = ["ColorSweepMIS", "coloring_mis"]

_IN = 1


class ColorSweepMIS(NodeAlgorithm):
    """Sweep colour classes in increasing colour order.

    The colouring is supplied to the constructor as a mapping; each node
    instance only ever reads its own entry (the orchestrator convenience
    of handing one dict to every factory call does not leak information
    between nodes).
    """

    def __init__(self, colors: Mapping[int, int]) -> None:
        self._colors = colors
        self._my_color: Optional[int] = None
        self._blocked = False

    def on_start(self, ctx: NodeContext) -> None:
        self._my_color = int(self._colors[ctx.node_id])
        if ctx.degree == 0:
            ctx.halt(True)
            return
        if self._my_color == 0:
            # Colour 0 joins unconditionally in round 1.
            ctx.broadcast((_IN,))
            ctx.halt(True)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        if any(msg[0] == _IN for msg in inbox.values()):
            self._blocked = True
        if ctx.round_index == self._my_color:
            if self._blocked:
                ctx.halt(False)
            else:
                ctx.broadcast((_IN,))
                ctx.halt(True)


def coloring_mis(
    graph: WeightedGraph,
    *,
    seed: Union[int, None, np.random.SeedSequence] = None,
    policy: Optional[BandwidthPolicy] = None,
    n_bound: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> AlgorithmResult:
    """MIS via random-trial colouring + colour-class sweep.

    Rounds: ``O(log n)`` (colouring, w.h.p.) plus ``max colour + 1``
    (sweep, at most ``Δ + 1``).
    """
    if graph.n == 0:
        return AlgorithmResult(frozenset(), RunMetrics(), {"algorithm": "ColorSweepMIS"})
    from repro.coloring.random_trial import random_coloring

    seed_color, seed_sweep = seed_sequence(seed).spawn(2)

    network = Network.of(graph, n_bound)
    with span("mis[ColorSweepMIS]") as sp:
        coloring = random_coloring(graph, seed=seed_color, policy=policy,
                                   n_bound=network.n_bound, max_rounds=max_rounds)
        sp.add(coloring.metrics, name="random-coloring")
        sweep = run(
            network,
            lambda: ColorSweepMIS(coloring.colors),
            policy=policy,
            seed=seed_sweep,
            max_rounds=max_rounds or 100_000,
        )
        sp.add(sweep.metrics, name="color-sweep")
    mis = frozenset(v for v, out in sweep.outputs.items() if out)
    return AlgorithmResult(
        independent_set=mis,
        metrics=sp.metrics(),
        metadata={
            "algorithm": "ColorSweepMIS",
            "n_bound": network.n_bound,
            "num_colors": coloring.num_colors,
            "coloring_rounds": coloring.rounds,
            "sweep_rounds": sweep.metrics.rounds,
        },
    )
