"""Compact ``kind:args`` instance specs — the generator-zoo vocabulary.

One string names a graph (``gnp:300,0.04``, ``grid:10,20``,
``file:PATH``) and another names a weight scheme (``uniform:1,100``,
``skewed:0.01,1e6``).  The CLI has always spoken this language; the
solver service speaks it too (a solve request may carry a spec instead
of an inline node/edge list), so parsing lives here in the graphs layer
and raises :class:`ValueError` — callers decide whether that becomes a
``SystemExit`` (CLI) or an HTTP 400 (service).

Graph specs: ``gnp:n,p`` | ``regular:n,d`` | ``tree:n`` | ``grid:r,c`` |
``cycle:n`` | ``path:n`` | ``geometric:n,radius`` | ``caterpillar:spine,legs``
| ``file:PATH`` (the text format of :mod:`repro.graphs.io`).

Weight specs: ``unit`` | ``uniform:lo,hi`` | ``integers:W`` |
``skewed:fraction,heavy`` | ``degree`` | ``keep``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["DEFAULT_SPECS", "declared_nodes", "graph_from_spec",
           "weights_from_spec"]

# The generator zoo the load client and servebench draw their requests
# from: (graph spec, weight spec) pairs, every instance under the exact
# solver's node limit so each report can be certified against true OPT.
DEFAULT_SPECS: Tuple[Tuple[str, str], ...] = (
    ("gnp:24,0.15", "uniform:1,20"),
    ("gnp:40,0.08", "integers:50"),
    ("regular:30,3", "uniform:1,10"),
    ("tree:40", "integers:100"),
    ("cycle:36", "uniform:1,5"),
    ("grid:6,6", "unit"),
    ("caterpillar:18,1", "uniform:1,8"),
)


def declared_nodes(spec: str) -> Optional[int]:
    """Node count a graph spec *declares*, without materializing it.

    Admission control needs this: the service must reject a
    ``gnp:100000000,0.5`` request before the generator allocates
    anything.  Returns ``None`` for specs whose size is not declared in
    the string (``file:PATH``) and for unknown kinds / unparsable
    arguments — those fail properly in :func:`graph_from_spec`.
    """
    kind, _, args = spec.partition(":")
    parts = [a for a in args.split(",") if a] if args else []
    try:
        if kind in ("gnp", "regular", "tree", "cycle", "path", "geometric"):
            return max(0, int(parts[0]))
        if kind == "grid":
            return max(0, int(parts[0])) * max(0, int(parts[1]))
        if kind == "caterpillar":
            # spine vertices plus legs pendant vertices per spine vertex
            return max(0, int(parts[0])) * (1 + max(0, int(parts[1])))
    except (IndexError, ValueError):
        return None
    return None


def graph_from_spec(spec: str, seed: Optional[int]) -> WeightedGraph:
    """Materialize a graph from a ``kind:args`` spec string.

    Raises:
        ValueError: unknown kind, or arguments that do not parse.
    """
    from repro.graphs.generators import (
        caterpillar,
        cycle,
        gnp,
        grid_2d,
        path,
        random_geometric,
        random_regular,
        random_tree,
    )
    from repro.graphs.io import load

    kind, _, args = spec.partition(":")
    parts = [a for a in args.split(",") if a] if args else []
    try:
        if kind == "gnp":
            return gnp(int(parts[0]), float(parts[1]), seed=seed)
        if kind == "regular":
            return random_regular(int(parts[0]), int(parts[1]), seed=seed)
        if kind == "tree":
            return random_tree(int(parts[0]), seed=seed)
        if kind == "grid":
            return grid_2d(int(parts[0]), int(parts[1]))
        if kind == "cycle":
            return cycle(int(parts[0]))
        if kind == "path":
            return path(int(parts[0]))
        if kind == "geometric":
            return random_geometric(int(parts[0]), float(parts[1]), seed=seed)
        if kind == "caterpillar":
            return caterpillar(int(parts[0]), int(parts[1]))
        if kind == "file":
            return load(args)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad graph spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown graph kind {kind!r}")


def weights_from_spec(spec: str, graph: WeightedGraph,
                      seed: Optional[int]) -> WeightedGraph:
    """Apply a weight-scheme spec to ``graph``.

    Raises:
        ValueError: unknown scheme, or arguments that do not parse.
    """
    from repro.graphs.weights import (
        degree_proportional_weights,
        integer_weights,
        skewed_heavy_set,
        uniform_weights,
        unit_weights,
    )

    kind, _, args = spec.partition(":")
    parts = [a for a in args.split(",") if a] if args else []
    try:
        if kind == "unit":
            return unit_weights(graph)
        if kind == "uniform":
            lo, hi = (float(parts[0]), float(parts[1])) if parts else (0.0, 1.0)
            return uniform_weights(graph, lo, hi, seed=seed)
        if kind == "integers":
            return integer_weights(graph, int(parts[0]), seed=seed)
        if kind == "skewed":
            frac = float(parts[0]) if parts else 0.01
            heavy = float(parts[1]) if len(parts) > 1 else 1e6
            return skewed_heavy_set(graph, fraction=frac, heavy=heavy, seed=seed)
        if kind == "degree":
            return degree_proportional_weights(graph)
        if kind == "keep":
            return graph
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad weight spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown weight scheme {kind!r}")
