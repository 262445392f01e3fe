"""Property-based pin of the backend byte-identity contract.

For arbitrary small graphs (including empty, edgeless, and graphs with
isolated nodes), arbitrary seeds, and every protocol family with a fleet
kernel, the columnar backend must reproduce the per-node scheduler's
outputs, metrics, and n_bound exactly.  Weights are drawn adversarially
(zeros, ties, floats) because the kernels replay floating-point
summation order — any reordering shows up here as a last-ulp mismatch.

``n_bound`` is drawn across 1625/1626, where Luby's ``hi = n_bound**3``
crosses 2**32 and the stream column's draws switch from 32-bit to
64-bit Lemire; seeds include SeedSequences with spawn keys and children
already spawned, passed as the same object to both backends.

The same contract one level up: every registry algorithm's canonical
report (``repro.api.solve(...).to_json()``) is byte-identical on both
backends.  Request and disk-cache keys leave the backend out, so a
per-node and a columnar solve share one cache entry; this property is
what keeps that sharing honest.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.api import solve
from repro.coloring.random_trial import RandomTrialColoring
from repro.core.good_nodes import GoodNodesProtocol
from repro.core.sparsify import SamplingProtocol
from repro.graphs import WeightedGraph
from repro.mis.deterministic import LocalMinimaMIS
from repro.mis.ghaffari import GhaffariMIS
from repro.mis.luby import LubyMIS
from repro.registry import algorithm_registry
from repro.simulator.network import Network
from repro.simulator.runner import run

FACTORIES = [
    GoodNodesProtocol,
    SamplingProtocol,
    LubyMIS,
    GhaffariMIS,
    LocalMinimaMIS,
    RandomTrialColoring,
]


@st.composite
def weighted_graphs(draw, max_nodes: int = 14):
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (draw(st.lists(st.sampled_from(possible), unique=True,
                           max_size=30))
             if possible else [])
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.integers(min_value=0, max_value=9),
                  st.floats(min_value=0.0, max_value=100.0,
                            allow_nan=False, allow_infinity=False)),
        min_size=n, max_size=n))
    return WeightedGraph.from_edges(range(n), edges,
                                    weights=dict(enumerate(weights)))


seeds = st.one_of(
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.builds(
        np.random.SeedSequence,
        st.integers(min_value=0, max_value=2 ** 64),
        spawn_key=st.lists(st.integers(min_value=0, max_value=2 ** 33),
                           min_size=1, max_size=3).map(tuple),
        n_children_spawned=st.integers(min_value=0, max_value=10 ** 5),
    ),
)

n_bounds = st.one_of(st.none(), st.sampled_from([1625, 1626]),
                     st.integers(min_value=14, max_value=5000))


@given(g=weighted_graphs(),
       fi=st.integers(min_value=0, max_value=len(FACTORIES) - 1),
       seed=seeds, n_bound=n_bounds)
@settings(max_examples=100, deadline=None)
def test_columnar_backend_is_byte_identical(g, fi, seed, n_bound):
    factory = FACTORIES[fi]
    net = Network.of(g, n_bound)
    base = run(net, factory, seed=seed, backend="per-node")
    col = run(net, factory, seed=seed, backend="columnar")
    assert col.outputs == base.outputs
    assert col.metrics.to_dict() == base.metrics.to_dict()
    assert col.n_bound == base.n_bound


REGISTRY_NAMES = sorted(algorithm_registry())


@given(g=weighted_graphs(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=100, deadline=None)
def test_every_registry_report_is_byte_identical_across_backends(g, seed):
    for name in REGISTRY_NAMES:
        base = solve(g, name, seed=seed, backend="per-node",
                     raise_on_error=False)
        col = solve(g, name, seed=seed, backend="columnar",
                    raise_on_error=False)
        assert col.to_json() == base.to_json(), name
