"""Unit tests for degeneracy, forest partitioning, and exact arboricity."""

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given, settings

from repro.exceptions import GraphError
from repro.graphs import (
    arboricity,
    complete,
    cycle,
    degeneracy,
    empty,
    gnp,
    grid_2d,
    nash_williams_lower_bound,
    partition_into_forests,
    path,
    random_tree,
    union_of_random_forests,
)


def _forest_is_acyclic(edges) -> bool:
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class TestDegeneracy:
    def test_tree_degeneracy_one(self):
        assert degeneracy(random_tree(30, seed=1)) == 1

    def test_cycle_degeneracy_two(self):
        assert degeneracy(cycle(10)) == 2

    def test_complete_graph(self):
        assert degeneracy(complete(6)) == 5

    def test_empty_graph(self):
        assert degeneracy(empty(5)) == 0
        assert degeneracy(empty(0)) == 0

    def test_grid(self):
        assert degeneracy(grid_2d(5, 5)) == 2


class TestPartitionIntoForests:
    def test_tree_fits_one_forest(self):
        g = random_tree(25, seed=2)
        forests = partition_into_forests(g, 1)
        assert forests is not None
        assert len(forests[0]) == g.m

    def test_cycle_needs_two(self):
        g = cycle(8)
        assert partition_into_forests(g, 1) is None
        forests = partition_into_forests(g, 2)
        assert forests is not None

    def test_partition_covers_all_edges_disjointly(self):
        g = gnp(30, 0.25, seed=3)
        k = degeneracy(g)
        forests = partition_into_forests(g, k)
        assert forests is not None
        all_edges = [e for f in forests for e in f]
        assert len(all_edges) == g.m
        assert set(all_edges) == set(g.edges())

    def test_partition_forests_are_acyclic(self):
        g = gnp(25, 0.3, seed=4)
        forests = partition_into_forests(g, degeneracy(g))
        assert forests is not None
        for f in forests:
            assert _forest_is_acyclic(f)

    def test_zero_forests(self):
        assert partition_into_forests(empty(4), 0) == []
        assert partition_into_forests(cycle(4), 0) is None

    def test_negative_k_rejected(self):
        with pytest.raises(GraphError):
            partition_into_forests(cycle(4), -1)

    def test_complete_graph_bound(self):
        # α(K_n) = ceil(n/2).
        g = complete(7)
        assert partition_into_forests(g, 3) is None
        assert partition_into_forests(g, 4) is not None


class TestArboricity:
    def test_known_values(self):
        assert arboricity(random_tree(20, seed=5)) == 1
        assert arboricity(cycle(9)) == 2
        assert arboricity(complete(6)) == 3
        assert arboricity(complete(7)) == 4
        assert arboricity(grid_2d(6, 6)) == 2

    def test_empty(self):
        assert arboricity(empty(5)) == 0

    def test_path_single_edge(self):
        assert arboricity(path(2)) == 1

    def test_union_of_forests_upper_bound(self):
        for k in (2, 3):
            g = union_of_random_forests(30, k, seed=k)
            assert arboricity(g) <= k

    def test_witness_decomposition(self):
        g = gnp(25, 0.3, seed=6)
        alpha, forests = arboricity(g, return_witness=True)
        assert len(forests) == alpha
        assert sum(len(f) for f in forests) == g.m
        for f in forests:
            assert _forest_is_acyclic(f)

    def test_nash_williams_lower_bound(self):
        assert nash_williams_lower_bound(complete(5)) == 3  # ceil(10/4)
        assert nash_williams_lower_bound(empty(3)) == 0
        assert nash_williams_lower_bound(path(2)) == 1

    def test_sandwiched_by_degeneracy(self):
        for seed in range(4):
            g = gnp(35, 0.2, seed=seed)
            a = arboricity(g)
            d = degeneracy(g)
            assert nash_williams_lower_bound(g) <= a <= d <= max(2 * a - 1, 1)


@st.composite
def _families(draw):
    """Trees, paths, cycles, grids, cliques, unions of k random spanning
    trees and small gnp graphs: the first four always meet the bounds,
    cliques beyond K_3 and most dense gnp draws do not."""
    kind = draw(st.sampled_from(["tree", "path", "cycle", "grid", "clique",
                                 "spanning-trees", "gnp"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    if kind == "tree":
        return random_tree(draw(st.integers(2, 40)), seed=seed)
    if kind == "path":
        return path(draw(st.integers(2, 40)))
    if kind == "cycle":
        return cycle(draw(st.integers(3, 40)))
    if kind == "grid":
        return grid_2d(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    if kind == "clique":
        return complete(draw(st.integers(2, 9)))
    if kind == "spanning-trees":
        return union_of_random_forests(draw(st.integers(2, 20)),
                                       draw(st.integers(1, 4)), seed=seed)
    return gnp(draw(st.integers(2, 20)), draw(st.floats(0.05, 0.7)),
               seed=seed)


class TestBoundsShortcut:
    """``arboricity`` skips the partition search when the Nash–Williams
    lower bound equals the degeneracy; the answer must not change."""

    @given(g=_families())
    @example(g=grid_2d(5, 4))      # bounds meet: 2 = 2
    @example(g=complete(6))        # bounds differ: 3 < 5
    @settings(max_examples=150, deadline=None)
    def test_shortcut_agrees_with_the_witness_search(self, g):
        if g.m == 0:
            event("no edges")
        elif max(1, nash_williams_lower_bound(g)) == degeneracy(g):
            event("bounds meet")
        else:
            event("bounds differ")
        alpha = arboricity(g)
        got, forests = arboricity(g, return_witness=True)
        assert alpha == got
        assert len(forests) == alpha
        covered = [e for f in forests for e in f]
        assert len(covered) == g.m
        assert set(covered) == set(g.edges())
        for f in forests:
            assert _forest_is_acyclic(f)

    def test_meeting_bounds_skip_the_partition_search(self, monkeypatch):
        from repro.graphs import forests
        from repro.graphs.specs import graph_from_spec

        calls = []

        def counting(g, k):
            calls.append(k)
            return partition_into_forests(g, k)

        monkeypatch.setattr(forests, "partition_into_forests", counting)
        g = graph_from_spec("grid:25,24", 0)
        assert nash_williams_lower_bound(g) == degeneracy(g) == 2
        assert arboricity(g) == 2
        assert calls == []
        # The witness is what a caller asks the search for.
        alpha, witness = arboricity(g, return_witness=True)
        assert alpha == 2 and len(witness) == 2
        assert calls == [2]
