"""Forest decompositions and exact arboricity (Nash–Williams, Definition 1).

The arboricity ``α(G)`` is the minimum number of forests needed to cover all
edges; by Nash–Williams it equals ``max_H ceil(m_H / (n_H - 1))`` over
subgraphs ``H`` (the paper's Definition 1).  Theorem 3's approximation
factor is stated in terms of exact ``α``, so the experiment suite needs a
certified value, not an estimate.

Two cheap bounds sandwich it: the whole-graph Nash–Williams density
``ceil(m / (n - 1)) <= α`` (Definition 1 with ``H = G``) and the degeneracy
``α <= d`` (a min-degree peeling order orients every edge towards the later
endpoint with out-degree at most ``d``, and ``d`` forests cover such an
orientation).  When the two meet, ``α`` is forced and :func:`arboricity`
returns it without a search — on trees, paths, grids and cycles they
always do.  Otherwise we compute it constructively:
:func:`partition_into_forests` decides, via the classic matroid-partition
augmenting-path algorithm specialised to graphic matroids, whether the
edges fit into ``k`` forests — and returns the witness decomposition when
they do — and :func:`arboricity` searches the smallest such ``k`` between
the two bounds.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import GraphError
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "degeneracy",
    "partition_into_forests",
    "arboricity",
    "nash_williams_lower_bound",
]

Edge = Tuple[int, int]


def degeneracy(g: WeightedGraph) -> int:
    """The degeneracy of ``g`` via min-degree peeling (bucket queue).

    Degeneracy sandwiches arboricity: ``α <= degeneracy <= 2α - 1``.
    """
    if g.n == 0:
        return 0
    degrees = {v: g.degree(v) for v in g.nodes}
    max_deg = max(degrees.values(), default=0)
    buckets: List[Set[int]] = [set() for _ in range(max_deg + 1)]
    for v, d in degrees.items():
        buckets[d].add(v)
    removed: Set[int] = set()
    best = 0
    cur = 0
    for _ in range(g.n):
        while cur <= max_deg and not buckets[cur]:
            cur += 1
        if cur > max_deg:
            break
        v = buckets[cur].pop()
        best = max(best, cur)
        removed.add(v)
        for u in g.neighbors(v):
            if u in removed:
                continue
            d = degrees[u]
            buckets[d].discard(u)
            degrees[u] = d - 1
            buckets[d - 1].add(u)
        cur = max(cur - 1, 0)
    return best


class _Forest:
    """One forest of a partial decomposition, supporting path queries."""

    __slots__ = ("adj", "edges")

    def __init__(self) -> None:
        self.adj: Dict[int, Set[int]] = {}
        self.edges: Set[Edge] = set()

    def has_edge(self, e: Edge) -> bool:
        return e in self.edges

    def add(self, e: Edge) -> None:
        u, v = e
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)
        self.edges.add(e)

    def remove(self, e: Edge) -> None:
        u, v = e
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self.edges.discard(e)

    def path(self, src: int, dst: int) -> Optional[List[Edge]]:
        """The unique forest path ``src -> dst`` as edges, or None."""
        if src not in self.adj or dst not in self.adj:
            return None
        parent: Dict[int, int] = {src: src}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if x == dst:
                break
            for y in self.adj.get(x, ()):
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        if dst not in parent:
            return None
        out: List[Edge] = []
        x = dst
        while x != src:
            p = parent[x]
            out.append((min(p, x), max(p, x)))
            x = p
        return out

    def creates_cycle(self, e: Edge) -> bool:
        return self.path(e[0], e[1]) is not None


def partition_into_forests(g: WeightedGraph, k: int) -> Optional[List[Set[Edge]]]:
    """Partition the edges of ``g`` into ``k`` forests, or return ``None``.

    Matroid-partition augmentation: to place an edge, BFS over displacement
    chains ("insert x into forest i after evicting a cycle edge y, then
    re-place y") until an edge inserts freely.  First-visit labelling keeps
    the search linear in the number of edges per insertion.
    """
    if k < 0:
        raise GraphError(f"k must be >= 0, got {k}")
    forests = [_Forest() for _ in range(k)]
    if g.m == 0:
        return [set() for _ in range(k)]
    if k == 0:
        return None

    for e0 in g.edges():
        if not _augment(forests, e0):
            return None
    return [set(f.edges) for f in forests]


def _augment(forests: List[_Forest], e0: Edge) -> bool:
    """Place ``e0`` into the decomposition via a displacement chain."""
    k = len(forests)
    # parent[x] = (y, forest_index) meaning: y evicts x from that forest.
    parent: Dict[Edge, Tuple[Optional[Edge], int]] = {}
    visited: Set[Edge] = {e0}
    queue = deque([e0])
    terminal: Optional[Tuple[Edge, int]] = None

    while queue and terminal is None:
        y = queue.popleft()
        for i in range(k):
            f = forests[i]
            if f.has_edge(y):
                continue
            cycle = f.path(y[0], y[1])
            if cycle is None:
                terminal = (y, i)
                break
            for x in cycle:
                if x not in visited:
                    visited.add(x)
                    parent[x] = (y, i)
                    queue.append(x)

    if terminal is None:
        return False

    # Realize the chain from the free insertion back up to e0.
    x, i = terminal
    forests[i].add(x)
    while x != e0:
        y, j = parent[x]
        forests[j].remove(x)
        forests[j].add(y)
        assert y is not None
        x = y
    return True


def nash_williams_lower_bound(g: WeightedGraph) -> int:
    """``ceil(m / (n - 1))`` — the whole-graph Nash–Williams density."""
    if g.n <= 1 or g.m == 0:
        return 0
    return -(-g.m // (g.n - 1))


def arboricity(g: WeightedGraph, *, return_witness: bool = False):
    """Exact arboricity ``α(G)`` (Definition 1), optionally with the witness.

    The Nash–Williams whole-graph bound is a lower bound on ``α`` and the
    degeneracy an upper bound, so when they are equal that value *is*
    ``α`` and is returned without partitioning.  Otherwise (or when the
    witness is asked for) this searches ``k`` upward from the lower
    bound; the degeneracy caps the search, so at most ``~α`` partition
    attempts run.  Either way the returned integer is the same.

    Args:
        g: input graph.
        return_witness: when True, return ``(alpha, forests)`` where
            ``forests`` is a list of ``alpha`` edge sets, each acyclic,
            that together partition ``E(G)``.
    """
    if g.m == 0:
        return (0, []) if return_witness else 0
    lo = max(1, nash_williams_lower_bound(g))
    hi = max(lo, degeneracy(g))
    if lo == hi and not return_witness:
        return lo
    for k in range(lo, hi + 1):
        witness = partition_into_forests(g, k)
        if witness is not None:
            return (k, witness) if return_witness else k
    raise AssertionError(
        "arboricity search failed: degeneracy should always suffice"
    )  # pragma: no cover
