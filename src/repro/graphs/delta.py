"""Graph deltas: canonical edit scripts over :class:`WeightedGraph`.

The delta plane's vocabulary.  A :class:`GraphDelta` is an ordered list
of edit operations —

* ``["add_node", v, w]`` — introduce an isolated node with weight ``w``;
* ``["remove_node", v]`` — drop ``v`` and every incident edge;
* ``["add_edge", u, v]`` — connect two existing nodes;
* ``["remove_edge", u, v]`` — disconnect them;
* ``["set_weight", v, w]`` — reweight an existing node —

applied *sequentially* by :func:`apply_delta`.  The contract that makes
the whole plane work: the child graph is **byte-identical** to building
the edited graph from scratch — same canonical adjacency, same weights,
and therefore the same ``fingerprint()`` — so delta children are
first-class citizens of the content-addressed graph store, and a solve
of a delta child has the same cache/coalescing key as a solve of the
equivalently constructed graph.

Application is copy-on-write: untouched adjacency rows are *shared* with
the parent (tuple references, never copied), and a weight-only delta
additionally shares the parent's CSR arrays (ids/indptr/indices) so a
10⁵-node reweight costs O(edits) + one weights array, not O(m).

Conflicting edits (adding an edge that exists, removing a node that
does not, …) raise :class:`DeltaConflictError` — HTTP 409 on the
service's ``POST /v1/graphs/{ref}/deltas`` endpoint — rather than being
silently ignored, because an idempotent interpretation would make the
child's identity depend on the parent's state in ways callers cannot
audit.

:func:`dirty_region` is the incremental re-solve path's certification
lens: the BFS ball around the touched nodes, the only neighbourhoods
whose structure an edit can have changed.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.exceptions import ReproError
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "DELTA_OPS",
    "DeltaApplication",
    "DeltaConflictError",
    "GraphDelta",
    "apply_delta",
    "apply_delta_info",
    "dirty_region",
]

DELTA_OPS = ("add_node", "remove_node", "add_edge", "remove_edge",
             "set_weight")


class DeltaConflictError(ReproError, ValueError):
    """An edit contradicts the graph it is applied to (HTTP 409)."""


@dataclass(frozen=True)
class GraphDelta:
    """An immutable, canonically serializable edit script.

    ``ops`` is a tuple of ``(kind, *args)`` tuples in application order.
    Two deltas with the same canonical JSON are the same edit script;
    :meth:`fingerprint` hashes exactly that form.
    """

    ops: Tuple[Tuple[Any, ...], ...]

    @classmethod
    def of(cls, ops: Iterable[Sequence[Any]]) -> "GraphDelta":
        """Build a delta from op sequences, validating each op's shape."""
        return cls(ops=tuple(_canonical_op(op) for op in ops))

    @classmethod
    def from_doc(cls, doc: Any) -> "GraphDelta":
        """Parse the wire form: a list of op lists (the ``ops`` field of
        the schema-v2 delta union and of ``POST .../deltas`` bodies)."""
        if isinstance(doc, dict):
            doc = doc.get("ops")
        if not isinstance(doc, (list, tuple)):
            raise DeltaConflictError(
                f"delta ops must be a list, got {type(doc).__name__}")
        return cls.of(doc)

    def to_doc(self) -> List[List[Any]]:
        return [list(op) for op in self.ops]

    def to_json(self) -> str:
        """Canonical serialization (compact separators, order preserved)."""
        return json.dumps(self.to_doc(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        """Content hash of the edit script itself (not of any graph)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @property
    def weight_only(self) -> bool:
        """True when every op is ``set_weight`` — topology unchanged."""
        return all(op[0] == "set_weight" for op in self.ops)

    def named_nodes(self) -> FrozenSet[int]:
        """Every node id an op names (edge ops name both endpoints).

        Note ``remove_node`` touches its *neighbours* too; that spill is
        only known at application time — see
        :attr:`DeltaApplication.touched`.
        """
        out = set()
        for op in self.ops:
            kind = op[0]
            if kind in ("add_edge", "remove_edge"):
                out.add(op[1])
                out.add(op[2])
            else:
                out.add(op[1])
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.ops)


def _canonical_op(op: Sequence[Any]) -> Tuple[Any, ...]:
    if not isinstance(op, (list, tuple)) or not op:
        raise DeltaConflictError(f"malformed delta op {op!r}")
    kind = op[0]
    if kind == "add_node":
        if len(op) != 3:
            raise DeltaConflictError(f"add_node takes (v, weight): {op!r}")
        return ("add_node", _node_id(op[1]), _weight(op[2]))
    if kind == "remove_node":
        if len(op) != 2:
            raise DeltaConflictError(f"remove_node takes (v,): {op!r}")
        return ("remove_node", _node_id(op[1]))
    if kind in ("add_edge", "remove_edge"):
        if len(op) != 3:
            raise DeltaConflictError(f"{kind} takes (u, v): {op!r}")
        u, v = _node_id(op[1]), _node_id(op[2])
        if u == v:
            raise DeltaConflictError(f"self loop in {kind}: {op!r}")
        return (kind, min(u, v), max(u, v))
    if kind == "set_weight":
        if len(op) != 3:
            raise DeltaConflictError(f"set_weight takes (v, weight): {op!r}")
        return ("set_weight", _node_id(op[1]), _weight(op[2]))
    raise DeltaConflictError(
        f"unknown delta op kind {kind!r}; known: {list(DELTA_OPS)}")


def _node_id(v: Any) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise DeltaConflictError(f"node id must be an int, got {v!r}")
    if v < 0:
        raise DeltaConflictError(f"negative node id {v}")
    return v


def _weight(w: Any) -> float:
    try:
        w = float(w)
    except (TypeError, ValueError):
        raise DeltaConflictError(f"weight must be a number, got {w!r}") from None
    if w < 0 or w != w:
        raise DeltaConflictError(f"negative or NaN weight {w!r}")
    return w


# --------------------------------------------------------------------- #
# application
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class DeltaApplication:
    """The result of applying a delta: the child plus edit provenance.

    ``touched`` is every node whose weight or neighbourhood differs
    between parent and child (including the former neighbours of removed
    nodes); ``weight_only`` says topology survived unchanged — the
    precondition of the incremental re-solve fast path.
    """

    graph: WeightedGraph
    touched: FrozenSet[int]
    weight_only: bool
    edits: int


def apply_delta(graph: WeightedGraph, delta: GraphDelta) -> WeightedGraph:
    """The child graph of ``graph`` under ``delta``.

    Canonically equal to building the edited graph from scratch: same
    adjacency tuples, same weights, same ``fingerprint()``.
    """
    return apply_delta_info(graph, delta).graph


def apply_delta_info(graph: WeightedGraph,
                     delta: GraphDelta) -> DeltaApplication:
    """Apply ``delta`` and report which nodes it touched.

    Copy-on-write: the child's adjacency dict is fresh, but every row a
    delta never edits is the parent's tuple object.  A weight-only delta
    shares the parent's adjacency dict outright, and — when the parent
    has a built CSR index — its ids/indptr/indices arrays too.
    """
    if delta.weight_only and delta.ops:
        return _apply_weight_only(graph, delta)
    adj: Dict[int, Any] = dict(graph._adj)      # row tuples shared
    weights: Dict[int, float] = dict(graph._weights)
    dirty: Dict[int, List[int]] = {}            # rows under edit, as lists
    touched = set()
    m = graph.m

    def row(v: int) -> List[int]:
        r = dirty.get(v)
        if r is None:
            r = dirty[v] = list(adj[v])
        return r

    for op in delta.ops:
        kind = op[0]
        if kind == "add_node":
            v, w = op[1], op[2]
            if v in weights:
                raise DeltaConflictError(f"add_node: node {v} already exists")
            adj[v] = ()
            weights[v] = w
            touched.add(v)
        elif kind == "remove_node":
            v = op[1]
            if v not in weights:
                raise DeltaConflictError(f"remove_node: unknown node {v}")
            neighbors = tuple(row(v)) if v in dirty else adj[v]
            for u in neighbors:
                r = row(u)
                r.remove(v)
                touched.add(u)
            m -= len(neighbors)
            adj.pop(v)
            weights.pop(v)
            dirty.pop(v, None)
            touched.add(v)
        elif kind == "add_edge":
            u, v = op[1], op[2]
            if u not in weights or v not in weights:
                missing = u if u not in weights else v
                raise DeltaConflictError(f"add_edge: unknown node {missing}")
            ru = row(u)
            i = bisect_left(ru, v)
            if i < len(ru) and ru[i] == v:
                raise DeltaConflictError(
                    f"add_edge: edge ({u}, {v}) already exists")
            ru.insert(i, v)
            insort(row(v), u)
            m += 1
            touched.add(u)
            touched.add(v)
        elif kind == "remove_edge":
            u, v = op[1], op[2]
            if u not in weights or v not in weights:
                missing = u if u not in weights else v
                raise DeltaConflictError(f"remove_edge: unknown node {missing}")
            ru = row(u)
            i = bisect_left(ru, v)
            if i >= len(ru) or ru[i] != v:
                raise DeltaConflictError(
                    f"remove_edge: no edge ({u}, {v})")
            ru.pop(i)
            row(v).remove(u)
            m -= 1
            touched.add(u)
            touched.add(v)
        else:  # set_weight
            v, w = op[1], op[2]
            if v not in weights:
                raise DeltaConflictError(f"set_weight: unknown node {v}")
            weights[v] = w
            touched.add(v)
    for v, r in dirty.items():
        adj[v] = tuple(r)
    child = WeightedGraph._from_canonical(adj, weights, m=m)
    return DeltaApplication(graph=child, touched=frozenset(touched),
                            weight_only=False, edits=len(delta.ops))


def _apply_weight_only(graph: WeightedGraph,
                       delta: GraphDelta) -> DeltaApplication:
    weights = dict(graph._weights)
    touched = set()
    for op in delta.ops:
        v, w = op[1], op[2]
        if v not in weights:
            raise DeltaConflictError(f"set_weight: unknown node {v}")
        weights[v] = w
        touched.add(v)
    child = WeightedGraph._from_canonical(graph._adj, weights, m=graph.m)
    nodes = child._nodes = graph.nodes  # same id set, already sorted
    if graph._fingerprint is not None:
        # The child's fingerprint can splice its touched nodes' tokens
        # into the parent's remembered text (WeightedGraph.fingerprint).
        child._fp_base = (graph._fingerprint,
                          tuple(sorted(bisect_left(nodes, v) for v in touched)))
    csr = graph._csr
    if csr is not None:
        # Topology untouched: the child's CSR reuses the parent's
        # ids/indptr/indices arrays verbatim; only the per-slot weights
        # array is rebuilt.
        import numpy as np

        from repro.graphs.csr import CSRIndex

        new_w = np.array(csr.weights, dtype=np.float64)
        for v in touched:
            new_w[csr.slot_of[v]] = weights[v]
        child._csr = CSRIndex.from_arrays(csr.ids, csr.indptr, csr.indices,
                                          new_w)
    return DeltaApplication(graph=child, touched=frozenset(touched),
                            weight_only=True, edits=len(delta.ops))


# --------------------------------------------------------------------- #
# dirty region
# --------------------------------------------------------------------- #

def dirty_region(graph: WeightedGraph, touched: Iterable[int], *,
                 radius: int = 1,
                 ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """The BFS ball of ``radius`` around ``touched`` in ``graph``.

    Returns ``(region, frontier)``: every node within ``radius`` hops of
    a touched node (touched nodes no longer present in ``graph`` — e.g.
    removed ones — contribute nothing), and the region's outermost shell.
    The incremental re-solve path re-certifies the cached independent
    set against exactly this region: an edit cannot have changed the
    structural facts (independence, local maximality) anywhere else.
    """
    region = {v for v in touched if graph.has_node(v)}
    frontier = set(region)
    for _ in range(max(0, radius)):
        nxt = set()
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in region:
                    region.add(u)
                    nxt.add(u)
        frontier = nxt
        if not frontier:
            break
    return frozenset(region), frozenset(frontier)
