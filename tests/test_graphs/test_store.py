"""Content-addressed graph store: put/attach/evict, zero-copy attach,
cross-store visibility, and one open store per root in a process.

The store is the backbone of solve-by-reference: ``/v1/solve`` with a
``graph_ref`` and pickled :class:`~repro.graphs.store.GraphRef` objects
in batch jobs both resolve through it, so an attached graph must be
*indistinguishable* from the original — same fingerprint, same
iteration order, byte-identical solver results.
"""

import multiprocessing
import os
import sys
import threading

import pytest

from repro.api import solve
from repro.graphs import gnp, uniform_weights
from repro.graphs.io import GraphFormatError, to_bytes
from repro.graphs.store import (
    GraphRef,
    GraphStore,
    UnknownGraphRef,
    ephemeral_store,
    get_store,
    resolve,
)
from repro.graphs.weighted_graph import WeightedGraph


@pytest.fixture
def graph():
    return uniform_weights(gnp(30, 0.15, seed=4), 1, 20, seed=9)


def test_put_then_attach_is_identical(tmp_path, graph):
    with GraphStore(tmp_path) as store:
        ref = store.put(graph)
        assert ref.ref == graph.fingerprint()
        assert ref.n == graph.n and ref.m == graph.m
        back = store.attach(ref.ref)
        assert back == graph
        assert back.fingerprint() == graph.fingerprint()
        assert back.nodes == graph.nodes


def test_attach_from_fresh_store_solves_identically(tmp_path, graph):
    # A second store over the same root simulates another process: it
    # has no memo and must attach from the persisted blob.
    with GraphStore(tmp_path) as writer:
        fp = writer.put(graph).ref
    with GraphStore(tmp_path) as reader:
        attached = reader.attach(fp)
        a = solve(graph, "thm2", seed=3, eps=0.5)
        b = solve(attached, "thm2", seed=3, eps=0.5)
        assert a.to_json() == b.to_json()


def test_put_is_idempotent(tmp_path, graph):
    with GraphStore(tmp_path) as store:
        r1 = store.put(graph)
        r2 = store.put(graph)
        assert r1 == r2
        assert store.refs() == [r1.ref]


def test_put_bytes_validates_fingerprint(tmp_path, graph):
    blob = to_bytes(graph)
    with GraphStore(tmp_path) as store:
        ref = store.put_bytes(blob)
        assert ref.ref == graph.fingerprint()
    # A blob whose header claims a different fingerprint is rejected:
    # content addressing must not be poisonable.
    forged = blob.replace(graph.fingerprint().encode(),
                          ("0" * 64).encode())
    with GraphStore(tmp_path / "other") as store:
        with pytest.raises(GraphFormatError):
            store.put_bytes(forged)


def test_unknown_ref_raises(tmp_path):
    with GraphStore(tmp_path) as store:
        with pytest.raises(UnknownGraphRef):
            store.attach("0" * 64)
        with pytest.raises(UnknownGraphRef):
            store.describe("0" * 64)
        assert ("0" * 64) not in store


def test_path_traversal_refs_rejected(tmp_path):
    with GraphStore(tmp_path) as store:
        for bad in ("../../etc/passwd", "a/b", "a\\b", "x.rwg"):
            with pytest.raises(GraphFormatError):
                store.attach(bad)


def test_describe_reads_header_only(tmp_path, graph):
    with GraphStore(tmp_path) as store:
        fp = store.put(graph).ref
    with GraphStore(tmp_path) as store:
        info = store.describe(fp)
        assert info["n"] == graph.n and info["m"] == graph.m
        assert info["nbytes"] > 0
        # describe must not populate the attach memo.
        assert store._graphs == {}


def test_evict(tmp_path, graph):
    with GraphStore(tmp_path) as store:
        fp = store.put(graph).ref
        assert store.evict(fp) is True
        assert fp not in store
        assert store.evict(fp) is False
        with pytest.raises(UnknownGraphRef):
            store.attach(fp)


def test_concurrent_readers_share_one_graph(tmp_path, graph):
    with GraphStore(tmp_path) as store:
        fp = store.put(graph).ref
    with GraphStore(tmp_path) as reader:
        a = reader.attach(fp)
        b = reader.attach(fp)
        assert a is b  # the per-store memo: one materialization


def test_graph_ref_resolve_roundtrip(tmp_path, graph):
    with GraphStore(tmp_path) as store:
        ref = store.put(graph)
        assert resolve(ref) == graph
    # Self-describing: a ref carries its root, so a fresh process (here:
    # the module-level resolver with no prior store) can resolve it.
    ref2 = GraphRef(ref=ref.ref, root=str(tmp_path), n=ref.n, m=ref.m)
    assert resolve(ref2) == graph


def test_get_store_memoizes_per_root(tmp_path):
    s1 = get_store(tmp_path)
    s2 = get_store(os.path.join(str(tmp_path), "."))
    assert s1 is s2


def test_get_store_returns_the_open_store(tmp_path, graph):
    # The first store opened over a root is the one refs resolve
    # through; a second one over the same root stays private, and once
    # the first closes, get_store opens an attach-only store.
    with GraphStore(tmp_path) as owner, GraphStore(tmp_path) as other:
        assert get_store(tmp_path) is owner
        ref = owner.put(graph)
        assert ref.resolve() is owner.attach(ref.ref)
        assert other.attach(ref.ref) is not owner.attach(ref.ref)
    fresh = get_store(tmp_path)
    assert fresh is not owner and fresh is not other
    assert fresh.attach(ref.ref) == graph


def test_attached_graph_survives_another_stores_evict(tmp_path, graph):
    # A mapping outlives the unlinked blob file: one store's eviction
    # never pulls a graph out from under another store that attached it.
    with GraphStore(tmp_path) as writer:
        fp = writer.put(graph).ref
    with GraphStore(tmp_path) as reader, GraphStore(tmp_path) as evictor:
        attached = reader.attach(fp)
        assert evictor.evict(fp) is True
        assert not (tmp_path / f"{fp}.rwg").exists()
        assert reader.attach(fp) is attached
        assert (solve(attached, "thm2", seed=3, eps=0.5).to_json()
                == solve(graph, "thm2", seed=3, eps=0.5).to_json())


def test_concurrent_attach_maps_once(tmp_path, graph):
    # Threads missing the memo at the same time get one graph and one
    # mapping: a lost update would hand them different instances.
    with GraphStore(tmp_path) as writer:
        fp = writer.put(graph).ref
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with GraphStore(tmp_path) as reader:
                barrier = threading.Barrier(8)
                got = []

                def attach():
                    barrier.wait(timeout=10)
                    got.append(reader.attach(fp))

                threads = [threading.Thread(target=attach)
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert len(got) == 8
                assert all(g is got[0] for g in got)
                assert list(reader._mmaps) == [fp]
    finally:
        sys.setswitchinterval(interval)


def test_ephemeral_store_cleans_up(graph):
    store = ephemeral_store()
    root = store.root
    store.put(graph)
    assert os.path.isdir(root)
    store.close()
    assert not os.path.exists(root)


def test_empty_graph_roundtrips_through_store(tmp_path):
    g = WeightedGraph.from_edges([], [], {})
    with GraphStore(tmp_path) as store:
        fp = store.put(g).ref
    with GraphStore(tmp_path) as reader:
        assert reader.attach(fp) == g


def _child_attach(root, fp, queue):
    from repro.graphs.store import GraphStore

    with GraphStore(root) as store:
        g = store.attach(fp)
        queue.put((g.n, g.m, g.fingerprint()))


def test_cross_process_attach(tmp_path, graph):
    # The mmap of the blob file must let a genuinely separate process
    # attach the same fingerprint and see the identical graph.
    with GraphStore(tmp_path) as store:
        fp = store.put(graph).ref
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        proc = ctx.Process(target=_child_attach,
                           args=(str(tmp_path), fp, queue))
        proc.start()
        n, m, child_fp = queue.get(timeout=60)
        proc.join(timeout=60)
        assert (n, m, child_fp) == (graph.n, graph.m, fp)
        assert proc.exitcode == 0
