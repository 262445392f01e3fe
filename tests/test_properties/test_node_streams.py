"""Property-based pin of the stream column against numpy.

:class:`~repro.simulator.randomness.NodeStreams` holds N PCG64 streams
as uint64 arrays.  Every draw it makes must equal the draw numpy's own
``Generator(PCG64(child))`` makes for the same SeedSequence child, over
seeds of every shape, column sizes from 0 to a few hundred, and scripts
that mix ``random()`` with ``integers(0, hi)`` across both Lemire paths
(32-bit on buffered half-words, 64-bit on full outputs) on random slot
subsets.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.fleet.base import FleetFallback, FleetRun
from repro.graphs import WeightedGraph
from repro.mis.luby import LubyMIS
from repro.simulator.network import Network
from repro.simulator.randomness import NodeStreams, spawn_node_rngs
from repro.simulator.runner import run

# Bounds on each side of the 32/64-bit split, the 2**32 edge where the
# 32-bit path takes next_uint32 whole, and the int64 ceiling.
HIGHS = [1, 2, 3, 7, 1000, 2 ** 31 + 11, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
         2 ** 40 + 7, 10 ** 15, 2 ** 62 + 1, 2 ** 63 - 1, 2 ** 63]

seeds = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=2 ** 64, max_value=2 ** 130),
    st.just(None),  # fresh OS entropy, shared by column and reference
    st.lists(st.integers(min_value=0, max_value=2 ** 40), min_size=1,
             max_size=6),
    st.builds(
        np.random.SeedSequence,
        st.integers(min_value=0, max_value=2 ** 70),
        spawn_key=st.lists(st.integers(min_value=0, max_value=2 ** 40),
                           max_size=3).map(tuple),
        pool_size=st.sampled_from([4, 5, 8]),
        n_children_spawned=st.integers(min_value=0, max_value=10 ** 6),
    ),
)

steps = st.lists(
    st.tuples(st.sampled_from(["random", "integers", "per-slot"]),
              st.sampled_from(HIGHS),
              st.floats(min_value=0.0, max_value=1.0)),
    max_size=12,
)


def _numpy_draw(gen, kind, hi):
    if kind == "random":
        return gen.random()
    return int(gen.integers(0, hi))


@given(seed=seeds, n=st.integers(min_value=0, max_value=300), script=steps,
       pick=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_every_column_draw_equals_numpy(seed, n, script, pick):
    if seed is None:
        seed = np.random.SeedSequence()
    before = getattr(seed, "n_children_spawned", None)
    column = NodeStreams(seed, n)
    gens = list(spawn_node_rngs(seed, range(n)).values())
    if before is not None:
        assert seed.n_children_spawned == before  # seeds are values
    chooser = np.random.default_rng(pick)
    for kind, hi, density in script:
        slots = np.flatnonzero(chooser.random(n) < density)
        if kind == "random":
            got = column.random(slots)
            want = [_numpy_draw(gens[s], kind, hi) for s in slots]
        elif kind == "integers":
            got = column.integers(slots, hi)
            want = [_numpy_draw(gens[s], kind, hi) for s in slots]
        else:
            his = chooser.choice(np.array(HIGHS[:-1], dtype=np.int64),
                                 size=len(slots))
            got = column.integers(slots, his)
            want = [_numpy_draw(gens[s], kind, int(h))
                    for s, h in zip(slots, his)]
        assert got.tolist() == want


def test_integers_rejects_an_empty_range():
    column = NodeStreams(3, 2)
    with pytest.raises(ValueError):
        column.integers(np.arange(2), 0)
    with pytest.raises(ValueError):
        column.integers(np.arange(2), np.array([1, 0]))


def test_fleet_run_streams_match_its_generators():
    g = WeightedGraph.from_edges(range(40), [(i, i + 1) for i in range(39)])
    seed = np.random.SeedSequence(11, spawn_key=(2,))
    fr = FleetRun(Network.of(g), policy=None, seed=seed, max_rounds=10)
    slots = np.arange(fr.n)
    got = fr.streams.integers(slots, 10 ** 12)
    assert got.tolist() == [int(fr.gen(s).integers(0, 10 ** 12))
                            for s in range(fr.n)]
    assert fr.streams.random(slots).tolist() == [fr.gen(s).random()
                                                 for s in range(fr.n)]


def test_child_index_past_one_spawn_key_word_falls_back():
    """Children past index 2**32 - 1 need two spawn-key words, which the
    column does not model: the kernel defers to per-node instead.  (No
    per-node run is compared: numpy keeps ``n_children_spawned`` in a
    uint32, so its own ``spawn`` of these children fails too.)"""
    g = WeightedGraph.from_edges(range(3), [(0, 1), (1, 2)])
    seed = np.random.SeedSequence(5, n_children_spawned=2 ** 32 - 2)
    fr = FleetRun(Network.of(g), policy=None, seed=seed, max_rounds=10)
    with pytest.raises(FleetFallback) as info:
        fr.streams
    assert info.value.reason == "rng"
    assert len(NodeStreams(seed, 2).hi) == 2  # indices up to 2**32 - 1 fit


def test_string_entropy_falls_back_to_per_node():
    """numpy reads string entropy differently across versions, so the
    column does not mirror it; the columnar run draws per-node."""
    g = WeightedGraph.from_edges(range(6), [(i, i + 1) for i in range(5)])
    seed = np.random.SeedSequence(["0x1f", "17"])
    fr = FleetRun(Network.of(g), policy=None, seed=seed, max_rounds=10)
    with pytest.raises(FleetFallback) as info:
        fr.streams
    assert info.value.reason == "rng"
    base = run(g, LubyMIS, seed=seed, backend="per-node")
    col = run(g, LubyMIS, seed=seed, backend="columnar")
    assert col.outputs == base.outputs
    assert col.metrics.to_dict() == base.metrics.to_dict()
