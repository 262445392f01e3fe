"""Unit tests for per-node randomness derivation."""

import numpy as np
import pytest

from repro.coloring.random_trial import RandomTrialColoring
from repro.core.baselines import bar_yehuda_maxis
from repro.core.boosting import boost
from repro.core.good_nodes import good_nodes_approx
from repro.core.low_arboricity import low_arboricity_maxis
from repro.core.sparsify import SamplingProtocol, sparsified_approx
from repro.graphs.generators import gnp
from repro.graphs.weights import integer_weights
from repro.mis.coloring_based import coloring_mis
from repro.mis.ghaffari import GhaffariMIS
from repro.mis.luby import LubyMIS
from repro.simulator import derive_seed, spawn_node_rngs
from repro.simulator.runner import run


def test_spawn_reproducible():
    a = spawn_node_rngs(7, [0, 1, 2])
    b = spawn_node_rngs(7, [0, 1, 2])
    assert [r.random() for r in a.values()] == [r.random() for r in b.values()]


def test_spawn_order_invariant():
    a = spawn_node_rngs(7, [2, 0, 1])
    b = spawn_node_rngs(7, [0, 1, 2])
    assert a[0].random() == b[0].random()


def test_streams_are_distinct():
    rngs = spawn_node_rngs(3, list(range(10)))
    draws = {v: r.random() for v, r in rngs.items()}
    assert len(set(draws.values())) == 10


def test_different_seeds_differ():
    a = spawn_node_rngs(1, [0])
    b = spawn_node_rngs(2, [0])
    assert a[0].random() != b[0].random()


def test_accepts_seed_sequence():
    ss = np.random.SeedSequence(5)
    rngs = spawn_node_rngs(ss, [0, 1])
    assert len(rngs) == 2


def test_derive_seed_distinct_phases():
    s0 = derive_seed(9, 0)
    s1 = derive_seed(9, 1)
    r0 = np.random.default_rng(s0).random()
    r1 = np.random.default_rng(s1).random()
    assert r0 != r1


def test_derive_seed_reproducible():
    a = np.random.default_rng(derive_seed(9, 3)).random()
    b = np.random.default_rng(derive_seed(9, 3)).random()
    assert a == b


@pytest.mark.parametrize("factory", [LubyMIS, GhaffariMIS, SamplingProtocol,
                                     RandomTrialColoring])
def test_one_seed_sequence_gives_one_report_on_both_backends(factory):
    """A SeedSequence seed is a value: the same object through two runs on
    each backend gives four identical results and is not advanced."""
    g = gnp(40, 0.1, seed=2)
    ss = np.random.SeedSequence(9, spawn_key=(4, 2), n_children_spawned=7)
    results = [run(g, factory, seed=ss, backend=backend)
               for backend in ("per-node", "per-node", "columnar", "columnar")]
    assert ss.n_children_spawned == 7
    for res in results[1:]:
        assert res.outputs == results[0].outputs
        assert res.metrics.to_dict() == results[0].metrics.to_dict()


def _boost(graph, *, seed):
    def inner(g, *, seed):
        return good_nodes_approx(g, seed=seed)

    return boost(graph, inner, eps=0.5, c=8.0, seed=seed)


ENTRY_POINTS = {
    "sparsified_approx": sparsified_approx,
    "boost": _boost,
    "good_nodes_approx": good_nodes_approx,
    "low_arboricity_maxis": (
        lambda graph, *, seed: low_arboricity_maxis(graph, 0.5, seed=seed)),
    "bar_yehuda_maxis": bar_yehuda_maxis,
    "coloring_mis": coloring_mis,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_one_seed_sequence_gives_one_result_per_entry_point(name):
    """Algorithm entry points that spawn phase seeds read a SeedSequence
    seed too: the same object twice gives one result, as an int does."""
    solver = ENTRY_POINTS[name]
    g = integer_weights(gnp(30, 0.15, seed=2), 20, seed=3)
    ss = np.random.SeedSequence(9, spawn_key=(4, 2), n_children_spawned=7)
    first, second = solver(g, seed=ss), solver(g, seed=ss)
    assert ss.n_children_spawned == 7
    assert first.independent_set == second.independent_set
    assert first.metrics.as_tuple() == second.metrics.as_tuple()


def test_derive_seed_reads_a_seed_sequence():
    ss = np.random.SeedSequence(9, spawn_key=(4,), n_children_spawned=7)
    keys = [derive_seed(ss, i).spawn_key for i in range(3)]
    assert keys == [(4, 7), (4, 8), (4, 9)]
    assert [derive_seed(ss, i).spawn_key for i in range(3)] == keys
    assert ss.n_children_spawned == 7
