"""Golden byte-identity through the zero-copy attach path.

The frozen FAMILY_GOLDENS hashes (tests/test_faults) pin the exact
fixed-seed report of one algorithm per theorem family.  Here the same
runs execute on a graph that went *through the store* — binary-encoded,
persisted, re-attached as read-only CSR views in a fresh store — and on
a :class:`~repro.graphs.store.GraphRef` handed to :func:`repro.api.solve`.
If attach reconstructed iteration order, weights, or adjacency even one
bit differently, these hashes would drift.
"""

import hashlib
import json

import pytest

from repro.graphs import gnp
from repro.graphs.store import GraphStore
from repro.graphs.weights import integer_weights

from tests.test_faults import test_runner_faults as _runner_faults

# Single source of truth for the frozen hashes (not imported by class
# name, which would make pytest collect that suite twice).
FAMILY_GOLDENS = _runner_faults.TestFaultFreeByteIdentity.FAMILY_GOLDENS


def _golden_graph():
    return integer_weights(gnp(60, 0.1, seed=5), 100, seed=6)


def _strip_wall(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items()
                if k != "wall_seconds"}
    if isinstance(obj, list):
        return [_strip_wall(x) for x in obj]
    return obj


def _assert_goldens_on(graph):
    from repro.registry import algorithm_registry

    registry = algorithm_registry()
    for name, want in FAMILY_GOLDENS.items():
        res = registry[name](graph, seed=42)
        doc = {
            "independent_set": sorted(int(v) for v in res.independent_set),
            "metrics": _strip_wall(res.metrics.to_dict()),
            "weight": graph.total_weight(res.independent_set),
        }
        got = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert got == want, f"{name} drifted through the store: {got}"


@pytest.fixture
def attached(tmp_path):
    g = _golden_graph()
    with GraphStore(tmp_path) as writer:
        fp = writer.put(g).ref
    # A fresh store has no memo: this attach materializes from an mmap
    # of the persisted blob, exactly what a worker process does.
    with GraphStore(tmp_path) as reader:
        yield reader.attach(fp)


def test_family_goldens_hold_on_attached_graph(attached):
    from repro.simulator.instrument import install_backend

    with install_backend("per-node"):
        _assert_goldens_on(attached)


def test_family_goldens_hold_on_attached_graph_columnar(attached):
    from repro.simulator.instrument import install_backend

    with install_backend("columnar"):
        _assert_goldens_on(attached)


@pytest.mark.parametrize("backend", ["per-node", "columnar"])
def test_solve_by_ref_matches_solve_by_graph(tmp_path, backend):
    from repro.api import solve

    g = _golden_graph()
    with GraphStore(tmp_path) as store:
        ref = store.put(g)
        a = solve(g, "thm2", seed=42, eps=0.5, backend=backend)
        b = solve(ref, "thm2", seed=42, eps=0.5, backend=backend)
        assert a.to_json() == b.to_json()
