"""Core graph data structure: an immutable node-weighted undirected graph.

The whole library operates on :class:`WeightedGraph`.  It is deliberately
self-contained (no networkx in the hot path) so that simulations are
deterministic and fast; converters to and from ``networkx`` are provided for
interoperability and for the flow-based arboricity computation.

Node identifiers are arbitrary non-negative integers.  Induced subgraphs keep
the original identifiers, which is essential for the paper's phase-based
algorithms (the same physical node participates in many sub-simulations).

Instances are immutable, which buys two performance layers (see
``docs/performance.md``):

* scalar graph statistics (``max_degree``, ``total_weight()``, ``nodes``,
  ``fingerprint()``) are memoized on first use;
* a :class:`~repro.graphs.csr.CSRIndex` — contiguous numpy adjacency over
  node *slots* plus id↔slot maps — is built lazily and backs the
  whole-graph kernels (``induced_subgraph`` on large vertex sets).  The
  dict API and every iteration order stay byte-identical either way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.exceptions import GraphError

__all__ = ["WeightedGraph"]

# The rendered fingerprint input of the last few graphs hashed, keyed by
# digest: (node bytes, edge bytes).  Bytes only, never a graph, so an
# entry keeps no graph alive.  A weight-only delta child names its
# parent's digest and splices its touched nodes' tokens into the
# parent's node bytes; the edge bytes are the parent's object.
_FP_PARTS: "OrderedDict[str, Tuple[bytes, bytes]]" = OrderedDict()
_FP_PARTS_MAX = 4
_FP_PARTS_LOCK = threading.Lock()


def _remember_parts(digest: str, parts: Tuple[bytes, bytes]) -> None:
    with _FP_PARTS_LOCK:
        _FP_PARTS[digest] = parts
        _FP_PARTS.move_to_end(digest)
        while len(_FP_PARTS) > _FP_PARTS_MAX:
            _FP_PARTS.popitem(last=False)


def _recall_parts(digest: str) -> Optional[Tuple[bytes, bytes]]:
    with _FP_PARTS_LOCK:
        parts = _FP_PARTS.get(digest)
        if parts is not None:
            _FP_PARTS.move_to_end(digest)
        return parts


class WeightedGraph:
    """An undirected graph with non-negative node weights.

    Instances are immutable: all "mutating" operations (reweighting, taking
    subgraphs) return new graphs.  Adjacency lists are stored as sorted
    tuples, so iteration order is deterministic everywhere.
    """

    __slots__ = ("_adj", "_weights", "_m", "_nbr_sets", "_nodes",
                 "_max_degree", "_total_weight", "_fingerprint", "_csr",
                 "_fp_base")

    def __init__(
        self,
        adjacency: Mapping[int, Iterable[int]],
        weights: Optional[Mapping[int, float]] = None,
        *,
        _skip_validation: bool = False,
    ):
        adj: Dict[int, Tuple[int, ...]] = {
            int(v): tuple(sorted(set(int(u) for u in nbrs)))
            for v, nbrs in adjacency.items()
        }
        if not _skip_validation:
            _validate_adjacency(adj)
        self._adj = adj
        if weights is None:
            self._weights = {v: 1.0 for v in adj}
        else:
            self._weights = _validated_weights(weights, adj)
        self._m = sum(len(nbrs) for nbrs in adj.values()) // 2
        self._init_caches()

    def _init_caches(self) -> None:
        self._nbr_sets: Optional[Dict[int, frozenset]] = None
        self._nodes: Optional[Tuple[int, ...]] = None
        self._max_degree: Optional[int] = None
        self._total_weight: Optional[float] = None
        self._fingerprint: Optional[str] = None
        # (parent digest, sorted touched slots) for a weight-only delta
        # child whose parent was already hashed; see fingerprint().
        self._fp_base: Optional[Tuple[str, Tuple[int, ...]]] = None
        self._csr = None

    @classmethod
    def _from_canonical(
        cls,
        adj: Dict[int, Tuple[int, ...]],
        weights: Dict[int, float],
        m: Optional[int] = None,
    ) -> "WeightedGraph":
        """Fast constructor for adjacency that is already canonical.

        ``adj`` must map every node to a *sorted tuple* of distinct
        neighbour ids, symmetric and self-loop free, and ``weights`` must
        cover exactly the same keys with plain floats — the invariants
        the public constructor establishes.  Derived-graph kernels
        (``induced_subgraph``, reweighting) call this to skip the
        re-sort/re-validate pass; all memo caches start fresh.
        """
        g = object.__new__(cls)
        g._adj = adj
        g._weights = weights
        g._m = sum(map(len, adj.values())) // 2 if m is None else m
        g._init_caches()
        return g

    @classmethod
    def _from_csr_arrays(
        cls,
        ids,
        indptr,
        indices,
        weights,
        *,
        fingerprint: Optional[str] = None,
    ) -> "WeightedGraph":
        """Fast constructor from canonical CSR arrays (the binary codec /
        graph-store attach path).

        ``ids`` are the node ids in ascending order, ``indptr``/``indices``
        the slot-based CSR adjacency with rows sorted ascending, and
        ``weights`` the per-slot float64 weights — the exact arrays
        :class:`~repro.graphs.csr.CSRIndex` builds.  The dict adjacency is
        reconstructed in bulk (one vectorized slot→id gather plus per-row
        tuple slicing), the CSR index is pre-seeded with the given arrays
        (no rebuild on first kernel use), and a known ``fingerprint`` is
        installed directly so attach never re-hashes the graph.
        """
        from repro.graphs.csr import CSRIndex

        import numpy as np

        ids = np.asarray(ids, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        weights_arr = np.asarray(weights, dtype=np.float64)
        csr = CSRIndex.from_arrays(ids, indptr, indices, weights_arr)
        id_list = csr._id_list
        nbr_ids = ids[indices].tolist()  # python ints, row-major order
        bounds = indptr.tolist()
        adj = {
            v: tuple(nbr_ids[bounds[s]:bounds[s + 1]])
            for s, v in enumerate(id_list)
        }
        w_list = weights_arr.tolist()
        w = {v: w_list[s] for s, v in enumerate(id_list)}
        g = cls._from_canonical(adj, w, m=len(nbr_ids) // 2)
        g._csr = csr
        if fingerprint is not None:
            g._fingerprint = fingerprint
        return g

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[int],
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Mapping[int, float]] = None,
    ) -> "WeightedGraph":
        """Build a graph from an explicit node set and edge list."""
        adj: Dict[int, list] = {int(v): [] for v in nodes}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self loop on node {u}")
            if u not in adj or v not in adj:
                raise GraphError(f"edge ({u}, {v}) references unknown node")
            adj[u].append(v)
            adj[v].append(u)
        return cls(adj, weights, _skip_validation=True)

    @classmethod
    def empty(cls, n: int) -> "WeightedGraph":
        """An edgeless graph on nodes ``0 .. n-1`` with unit weights."""
        return cls({v: () for v in range(n)}, _skip_validation=True)

    @classmethod
    def from_networkx(cls, g, weight_attr: str = "weight") -> "WeightedGraph":
        """Convert from a ``networkx`` graph; missing weights default to 1."""
        adj = {int(v): [int(u) for u in g.neighbors(v)] for v in g.nodes}
        weights = {int(v): float(g.nodes[v].get(weight_attr, 1.0)) for v in g.nodes}
        return cls(adj, weights)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    @property
    def nodes(self) -> Tuple[int, ...]:
        """All node ids, sorted ascending (memoized)."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = tuple(sorted(self._adj))
        return nodes

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` with ``u < v``, sorted."""
        adj = self._adj
        for u in self.nodes:
            for v in adj[u]:
                if u < v:
                    yield (u, v)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted tuple of neighbours of ``v``."""
        return self._adj[v]

    def inclusive_neighbors(self, v: int) -> Tuple[int, ...]:
        """``N+(v) = N(v) ∪ {v}`` as used throughout the paper."""
        return tuple(sorted(self._adj[v] + (v,)))

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_node(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        if self._nbr_sets is None:
            self._nbr_sets = {x: frozenset(nbrs) for x, nbrs in self._adj.items()}
        return v in self._nbr_sets.get(u, frozenset())

    def neighbor_set(self, v: int) -> frozenset:
        """``N(v)`` as a frozenset (lazily built once, shared thereafter).

        The simulator hands this to every :class:`NodeContext`, so the
        per-run membership structures are built once per graph instead of
        once per ``run()``.
        """
        if self._nbr_sets is None:
            self._nbr_sets = {x: frozenset(nbrs) for x, nbrs in self._adj.items()}
        return self._nbr_sets[v]

    def weight(self, v: int) -> float:
        return self._weights[v]

    @property
    def weights(self) -> Dict[int, float]:
        """A copy of the node-weight mapping."""
        return dict(self._weights)

    def total_weight(self, nodes: Optional[Iterable[int]] = None) -> float:
        """``w(V')`` — sum of weights over ``nodes`` (default: all nodes)."""
        if nodes is None:
            total = self._total_weight
            if total is None:
                total = self._total_weight = sum(self._weights.values())
            return total
        w = self._weights
        return sum(w[v] for v in nodes)

    @property
    def max_degree(self) -> int:
        """``Δ`` — the maximum degree; 0 for the empty graph (memoized)."""
        delta = self._max_degree
        if delta is None:
            if not self._adj:
                delta = 0
            else:
                delta = max(map(len, self._adj.values()))
            self._max_degree = delta
        return delta

    def max_weight(self) -> float:
        """``W`` — the maximum node weight; 0 for the empty graph."""
        if not self._weights:
            return 0.0
        return max(self._weights.values())

    def weighted_degree(self, v: int) -> float:
        """``w(N(v))`` — the paper's *weighted degree* (§4.2)."""
        w = self._weights
        return sum(w[u] for u in self._adj[v])

    # ------------------------------------------------------------------ #
    # CSR index
    # ------------------------------------------------------------------ #

    @property
    def csr(self):
        """The lazily built :class:`~repro.graphs.csr.CSRIndex`.

        Derived data: building it never changes the graph, and every
        kernel that uses it reproduces the dict API's answers exactly.
        """
        index = self._csr
        if index is None:
            from repro.graphs.csr import CSRIndex

            index = self._csr = CSRIndex(self._adj, self._weights)
        return index

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def induced_subgraph(self, nodes: Iterable[int]) -> "WeightedGraph":
        """Subgraph induced by ``nodes``; original ids and weights are kept."""
        keep = set(nodes)
        unknown = keep - set(self._adj)
        if unknown:
            raise GraphError(f"unknown nodes in induced_subgraph: {sorted(unknown)[:5]}")
        weights = self._weights
        n = len(self._adj)
        if len(keep) * 4 < n or n < 64:
            # Small subgraph (or tiny graph): the per-row dict sweep beats
            # building/consulting the whole-graph CSR mask.
            adj = {
                v: tuple(u for u in self._adj[v] if u in keep)
                for v in sorted(keep)
            }
            sub_w = {v: weights[v] for v in adj}
            return WeightedGraph._from_canonical(adj, sub_w)
        # Large subgraph: one vectorized mask pass over the CSR arrays.
        csr = self.csr
        import numpy as np

        kept_slots = np.fromiter((csr.slot_of[v] for v in keep),
                                 dtype=np.int64, count=len(keep))
        ordered, counts, kept_neighbors = csr.induced_rows(kept_slots)
        ids = csr._id_list
        nbr_ids = csr.ids[kept_neighbors].tolist()  # python ints, row order
        adj = {}
        sub_w = {}
        offset = 0
        for s, c in zip(ordered.tolist(), counts.tolist()):
            v = ids[s]
            adj[v] = tuple(nbr_ids[offset:offset + c])
            sub_w[v] = weights[v]
            offset += c
        return WeightedGraph._from_canonical(adj, sub_w, m=len(nbr_ids) // 2)

    def with_weights(self, weights: Mapping[int, float]) -> "WeightedGraph":
        """Same topology with a different weight function (paper's ``G_w'``)."""
        return WeightedGraph._from_canonical(
            self._adj, _validated_weights(weights, self._adj), m=self._m
        )

    def with_unit_weights(self) -> "WeightedGraph":
        """Same topology, all weights set to 1 (the unweighted view)."""
        return WeightedGraph._from_canonical(
            self._adj, {v: 1.0 for v in self._adj}, m=self._m
        )

    def fingerprint(self) -> str:
        """Content hash of the graph (topology + weights), hex sha256.

        Two graphs compare equal iff their fingerprints match, so the
        batch engine can key its on-disk result cache by this string.
        Weights are hashed via ``repr(float)`` (shortest round-trippable
        form), so the hash is stable across processes and sessions.
        Memoized: graphs are immutable and sweeps fingerprint the same
        instance once per job.  The hashed text is the node tokens
        ``n{v}:{w!r};`` then the edge tokens ``e{u},{v};``, both in id
        order.  A weight-only delta child whose parent's text is still
        remembered re-renders only its touched nodes' tokens.
        """
        cached = self._fingerprint
        if cached is not None:
            return cached
        import hashlib

        base = self._fp_base
        parts = self._spliced_parts(*base) if base is not None else None
        if parts is None:
            parts = self._rendered_parts()
        digest = hashlib.sha256(parts[0])
        digest.update(parts[1])
        fp = digest.hexdigest()
        _remember_parts(fp, parts)
        self._fingerprint = fp
        self._fp_base = None
        return fp

    def _rendered_parts(self) -> Tuple[bytes, bytes]:
        """The fingerprint text from scratch: (node bytes, edge bytes)."""
        w = self._weights
        adj = self._adj
        nodes = self.nodes
        node_b = "".join([f"n{v}:{w[v]!r};" for v in nodes]).encode()
        edge_b = "".join([
            f"e{u},{v};" for u in nodes for v in adj[u] if u < v
        ]).encode()
        return node_b, edge_b

    def _spliced_parts(self, parent: str, touched: Tuple[int, ...]
                       ) -> Optional[Tuple[bytes, bytes]]:
        """The parent's remembered text with the tokens of the ``touched``
        slots (sorted) re-rendered from this graph's weights; ``None``
        once the parent's entry has been evicted."""
        remembered = _recall_parts(parent)
        if remembered is None:
            return None
        import numpy as np

        node_b, edge_b = remembered
        # Node token s ends at the s-th ';' of the node bytes.
        ends = np.flatnonzero(np.frombuffer(node_b, dtype=np.uint8) == 59)
        nodes = self.nodes
        w = self._weights
        pieces = []
        pos = 0
        for s in touched:
            start = int(ends[s - 1]) + 1 if s else 0
            pieces.append(node_b[pos:start])
            v = nodes[s]
            pieces.append(f"n{v}:{w[v]!r};".encode())
            pos = int(ends[s]) + 1
        pieces.append(node_b[pos:])
        return b"".join(pieces), edge_b

    def relabeled(self) -> Tuple["WeightedGraph", Dict[int, int]]:
        """Relabel nodes to ``0..n-1``; returns ``(graph, old_id -> new_id)``."""
        mapping = {old: new for new, old in enumerate(self.nodes)}
        adj = {
            mapping[v]: tuple(sorted(mapping[u] for u in self._adj[v]))
            for v in self._adj
        }
        weights = {mapping[v]: self._weights[v] for v in self._adj}
        return WeightedGraph(adj, weights, _skip_validation=True), mapping

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` with a ``weight`` node attribute."""
        import networkx as nx

        g = nx.Graph()
        for v in self.nodes:
            g.add_node(v, weight=self._weights[v])
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._adj == other._adj and self._weights == other._weights

    def __hash__(self):
        raise TypeError("WeightedGraph is not hashable; compare explicitly")

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, max_degree={self.max_degree})"


def _validated_weights(
    weights: Mapping[int, float], adj: Mapping[int, Tuple[int, ...]]
) -> Dict[int, float]:
    w = {int(v): float(weights[v]) for v in adj}
    bad = [v for v, x in w.items() if x < 0 or x != x]  # negative or NaN
    if bad:
        raise GraphError(f"negative or NaN weights on nodes {bad[:5]}")
    return w


def _validate_adjacency(adj: Mapping[int, Sequence[int]]) -> None:
    for v, nbrs in adj.items():
        if v < 0:
            raise GraphError(f"negative node id {v}")
        for u in nbrs:
            if u == v:
                raise GraphError(f"self loop on node {v}")
            if u not in adj:
                raise GraphError(f"edge ({v}, {u}) references unknown node {u}")
            if v not in adj[u]:
                raise GraphError(f"asymmetric adjacency between {v} and {u}")
