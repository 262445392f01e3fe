"""The delta plane's foundational contract: apply == rebuild.

A delta child must be **byte-identical** to building the edited graph
from scratch — same canonical adjacency, same weights, same CSR arrays,
same fingerprint, and therefore the same fixed-seed solve report on
every backend.  Everything the serving layer does with deltas (content
addressing, cache keys, incremental re-solve) leans on this.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import solve
from repro.graphs import WeightedGraph, gnp, random_tree, uniform_weights
from repro.graphs.delta import (
    DeltaConflictError,
    GraphDelta,
    apply_delta,
    apply_delta_info,
    dirty_region,
)


def _base_graph(seed: int) -> WeightedGraph:
    if seed % 2:
        g = gnp(18, 0.2, seed=seed)
    else:
        g = random_tree(16, seed=seed)
    return uniform_weights(g, 1, 20, seed=seed + 1)


def _random_script(graph: WeightedGraph, rng: random.Random,
                   n_ops: int, *, weight_only: bool = False):
    """A valid edit script plus the from-scratch state it produces.

    Mirrors the graph's state op by op so every generated op applies
    cleanly; returns ``(ops, nodes, edges, weights)`` where the last
    three describe the edited graph built from scratch.
    """
    weights = {v: graph.weight(v) for v in graph.nodes}
    edges = {tuple(sorted((u, v))) for u in graph.nodes
             for v in graph.neighbors(u)}
    next_id = max(weights) + 1 if weights else 0
    ops = []
    kinds = (["set_weight"] if weight_only else
             ["set_weight", "set_weight", "add_node", "remove_node",
              "add_edge", "remove_edge"])
    for _ in range(n_ops):
        kind = rng.choice(kinds)
        alive = sorted(weights)
        if kind == "set_weight" and alive:
            v = rng.choice(alive)
            w = float(rng.randint(1, 50))
            weights[v] = w
            ops.append(["set_weight", v, w])
        elif kind == "add_node":
            w = float(rng.randint(1, 50))
            weights[next_id] = w
            ops.append(["add_node", next_id, w])
            next_id += 1
        elif kind == "remove_node" and len(alive) > 2:
            v = rng.choice(alive)
            del weights[v]
            edges = {e for e in edges if v not in e}
            ops.append(["remove_node", v])
        elif kind == "add_edge" and len(alive) >= 2:
            u, v = rng.sample(alive, 2)
            key = tuple(sorted((u, v)))
            if key not in edges:
                edges.add(key)
                ops.append(["add_edge", u, v])
        elif kind == "remove_edge" and edges:
            u, v = rng.choice(sorted(edges))
            edges.discard((u, v))
            ops.append(["remove_edge", u, v])
    return ops, sorted(weights), sorted(edges), weights


class TestApplyEqualsRebuild:
    @given(seed=st.integers(0, 10_000), editseed=st.integers(0, 10_000),
           n_ops=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_child_is_byte_identical_to_from_scratch(self, seed, editseed,
                                                     n_ops):
        parent = _base_graph(seed)
        rng = random.Random(editseed)
        ops, nodes, edges, weights = _random_script(parent, rng, n_ops)
        child = apply_delta(parent, GraphDelta.of(ops))
        scratch = WeightedGraph.from_edges(nodes, edges, weights)
        assert child == scratch
        assert child.fingerprint() == scratch.fingerprint()
        # CSR arrays agree element for element — the zero-copy plane
        # ships exactly these.
        a, b = child.csr, scratch.csr
        for name in ("ids", "indptr", "indices", "weights"):
            np.testing.assert_array_equal(getattr(a, name),
                                          getattr(b, name), err_msg=name)

    @given(seed=st.integers(0, 10_000), editseed=st.integers(0, 10_000),
           chain_len=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_delta_chain_equals_one_rebuild(self, seed, editseed, chain_len):
        parent = _base_graph(seed)
        rng = random.Random(editseed)
        current = parent
        for _ in range(chain_len):
            ops, nodes, edges, weights = _random_script(current, rng, 4)
            current = apply_delta(current, GraphDelta.of(ops))
            scratch = WeightedGraph.from_edges(nodes, edges, weights)
            assert current.fingerprint() == scratch.fingerprint()

    @given(seed=st.integers(0, 5_000), editseed=st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_fixed_seed_reports_identical_on_both_backends(self, seed,
                                                           editseed):
        """The acceptance pin: a solve of the delta child is
        byte-identical to a solve of the equivalent from-scratch graph,
        fingerprint through report sha256, on both backends."""
        parent = _base_graph(seed)
        rng = random.Random(editseed)
        ops, nodes, edges, weights = _random_script(parent, rng, 6)
        child = apply_delta(parent, GraphDelta.of(ops))
        scratch = WeightedGraph.from_edges(nodes, edges, weights)
        for backend in ("per-node", "columnar"):
            shas = [
                hashlib.sha256(
                    solve(g, "mis-luby", seed=7,
                          backend=backend).to_json().encode()).hexdigest()
                for g in (child, scratch)
            ]
            assert shas[0] == shas[1], backend

    def test_weight_only_child_shares_parent_topology_arrays(self):
        parent = _base_graph(3)
        v = parent.nodes[0]
        parent.csr  # materialize: sharing starts from the parent's index
        info = apply_delta_info(parent, GraphDelta.of(
            [["set_weight", v, 99.0]]))
        assert info.weight_only
        a, b = parent.csr, info.graph.csr
        # ids/indptr/indices are shared (same objects), weights are not.
        assert a.ids is b.ids
        assert a.indptr is b.indptr
        assert a.indices is b.indices
        assert a.weights is not b.weights
        assert info.graph.weight(v) == 99.0


class TestConflicts:
    def test_remove_missing_node_conflicts(self):
        g = _base_graph(1)
        with pytest.raises(DeltaConflictError):
            apply_delta(g, GraphDelta.of([["remove_node", 10**9]]))

    def test_add_existing_node_conflicts(self):
        g = _base_graph(1)
        v = g.nodes[0]
        with pytest.raises(DeltaConflictError):
            apply_delta(g, GraphDelta.of([["add_node", v, 1.0]]))

    def test_add_existing_edge_conflicts(self):
        g = _base_graph(1)
        u = next(v for v in g.nodes if g.neighbors(v))
        w = g.neighbors(u)[0]
        with pytest.raises(DeltaConflictError):
            apply_delta(g, GraphDelta.of([["add_edge", u, w]]))

    def test_remove_missing_edge_conflicts(self):
        g = _base_graph(1)
        nodes = g.nodes
        pair = next(((u, v) for u in nodes for v in nodes
                     if u < v and v not in g.neighbors(u)), None)
        assert pair is not None
        with pytest.raises(DeltaConflictError):
            apply_delta(g, GraphDelta.of([["remove_edge", *pair]]))

    def test_malformed_op_shape_conflicts_at_parse(self):
        with pytest.raises(DeltaConflictError):
            GraphDelta.of([["warp_node", 1]])
        with pytest.raises(DeltaConflictError):
            GraphDelta.of([["set_weight", 1]])


class TestDirtyRegion:
    def test_region_is_radius_one_ball(self):
        g = _base_graph(2)
        v = next(u for u in g.nodes if g.neighbors(u))
        region, frontier = dirty_region(g, [v], radius=1)
        assert v in region
        assert set(g.neighbors(v)) <= region
        assert frontier <= region

    def test_region_of_absent_node_is_empty_of_it(self):
        g = _base_graph(2)
        region, _ = dirty_region(g, [10**9], radius=1)
        assert 10**9 not in region


# --------------------------------------------------------------------- #
# the weight-only child's spliced fingerprint
# --------------------------------------------------------------------- #

def _scratch_digest(graph: WeightedGraph) -> str:
    """The fingerprint's definition, rendered in one piece."""
    w = graph.weights
    text = "".join(f"n{v}:{w[v]!r};" for v in graph.nodes)
    text += "".join(f"e{u},{v};" for u, v in sorted(graph.edges()))
    return hashlib.sha256(text.encode()).hexdigest()


@given(seed=st.integers(min_value=0, max_value=10_000),
       epochs=st.lists(
           st.tuples(
               st.lists(st.tuples(
                   st.integers(min_value=0, max_value=40),
                   st.one_of(st.sampled_from([0.0, 1e-300, 0.1, 12345.678,
                                              1.0, 7.0, 1e300]),
                             st.floats(min_value=0.0, max_value=1e6,
                                       allow_nan=False))),
                   min_size=1, max_size=6),
               st.booleans()),
           min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_spliced_fingerprint_equals_scratch_over_weight_only_chains(seed,
                                                                    epochs):
    """Tokens whose repr changes length (1e-300 vs 0.1 vs 12345.678)
    shift every later token; an evicted parent renders from scratch."""
    import repro.graphs.weighted_graph as wg

    parent = _base_graph(seed)
    parent.fingerprint()
    nodes = parent.nodes
    for ops, evict in epochs:
        delta = GraphDelta.of(["set_weight", nodes[i % len(nodes)], w]
                              for i, w in ops)
        child = apply_delta(parent, delta)
        assert child._fp_base[0] == parent.fingerprint()
        if evict:
            for filler in range(wg._FP_PARTS_MAX):
                uniform_weights(random_tree(5, seed=filler), 1, 9,
                                seed=filler).fingerprint()
            assert parent.fingerprint() not in wg._FP_PARTS
        fp = child.fingerprint()
        assert fp == _scratch_digest(child)
        assert fp == WeightedGraph.from_edges(
            nodes, child.edges(), child.weights).fingerprint()
        parent = child


def test_weight_only_child_shares_its_parents_edge_bytes():
    import repro.graphs.weighted_graph as wg

    parent = _base_graph(3)
    parent_fp = parent.fingerprint()
    child = apply_delta(parent, GraphDelta.of([["set_weight", 0, 1e-300]]))
    child_fp = child.fingerprint()
    assert child._fp_base is None  # spent once hashed
    node_b, edge_b = wg._FP_PARTS[child_fp]
    assert edge_b is wg._FP_PARTS[parent_fp][1]
    assert node_b.startswith(b"n0:1e-300;")
    # The memo holds bytes only, never a graph.
    assert all(type(part) is bytes
               for parts in wg._FP_PARTS.values() for part in parts)
