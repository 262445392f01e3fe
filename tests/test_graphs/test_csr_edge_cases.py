"""Regression pins for CSR degenerate inputs.

The columnar backend leans on :class:`CSRIndex` for every run, so the
empty graph, the edgeless graph, and empty/odd-dtype slot selections
must all be well-defined — these used to be reachable only through
rarely-trodden ``induced_subgraph`` paths and are now hot.
"""

import numpy as np

from repro.graphs.weighted_graph import WeightedGraph


class TestEmptyGraph:
    def test_zero_node_index_shape(self):
        csr = WeightedGraph.empty(0).csr
        assert csr.n == 0
        assert csr.indptr.tolist() == [0]
        assert csr.indices.size == 0
        assert csr.degrees.size == 0
        assert csr.weights.size == 0

    def test_max_degree_is_zero_without_nodes(self):
        assert WeightedGraph.empty(0).csr.max_degree == 0

    def test_max_degree_is_zero_edgeless(self):
        assert WeightedGraph.empty(7).csr.max_degree == 0

    def test_max_degree_matches_graph(self):
        g = WeightedGraph.from_edges([0, 1, 2, 9], [(0, 1), (0, 2), (0, 9)])
        assert g.csr.max_degree == g.max_degree == 3

    def test_induced_rows_on_zero_node_graph(self):
        csr = WeightedGraph.empty(0).csr
        kept, counts, nbrs = csr.induced_rows(np.array([], dtype=np.int64))
        assert kept.size == counts.size == nbrs.size == 0


class TestInducedRowsDtypes:
    def test_accepts_float_dtype_empty_selection(self):
        # np.array([]) is float64 — a legal "keep nothing" request that
        # used to raise IndexError (floats cannot index).
        csr = WeightedGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)]).csr
        kept, counts, nbrs = csr.induced_rows(np.array([]))
        assert kept.size == counts.size == nbrs.size == 0

    def test_accepts_plain_lists(self):
        csr = WeightedGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)]).csr
        kept, counts, nbrs = csr.induced_rows([0, 2])
        assert kept.tolist() == [0, 2]
        assert counts.tolist() == [0, 0]      # the bridge node 1 is gone
        assert nbrs.size == 0


class TestEdgelessSolves:
    def test_solve_reports_well_formed_on_edgeless_spec(self):
        from repro.api import solve
        from repro.graphs.specs import graph_from_spec

        g = graph_from_spec("gnp:6,0", 3)
        assert g.m == 0
        for backend in ("per-node", "columnar"):
            report = solve(g, "thm8", seed=1, backend=backend)
            assert report.ok
            assert sorted(report.independent_set) == list(range(6))
            assert report.weight == g.total_weight()
            assert report.metrics is not None

    def test_solve_on_zero_node_graph(self):
        from repro.api import solve

        g = WeightedGraph.empty(0)
        for backend in ("per-node", "columnar"):
            report = solve(g, "mis-det", seed=0, backend=backend)
            assert report.ok
            assert report.independent_set == ()
            assert report.weight == 0.0
