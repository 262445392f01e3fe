"""The graph plane over HTTP: ``POST /v1/graphs`` + ``graph_ref`` solves.

The contract under test is *byte identity*: a solve that references a
stored graph must return exactly the envelope report a body-carried
solve of the same graph returns — same cache keys, same coalescing,
same canonical JSON — on both execution backends.
"""

from __future__ import annotations

import json

import pytest

from repro.api import SolveRequest, solve
from repro.graphs import gnp, uniform_weights
from repro.graphs import io as graph_io
from repro.graphs.store import UnknownGraphRef
from repro.bench.loadgen import register_pool_graphs

from .test_server import ServerThread, http


@pytest.fixture
def instance():
    return uniform_weights(gnp(26, 0.14, seed=11), 1, 15, seed=12)


def _request_doc(graph, *, backend=None):
    req = SolveRequest(graph=graph, algorithm="thm2", seed=3,
                       params={"eps": 0.5},
                       **({"backend": backend} if backend else {}))
    return req.to_doc()


def _ref_doc(doc, ref):
    out = dict(doc)
    out["graph"] = {"ref": ref}
    return out


class TestGraphRegistry:
    def test_register_binary_and_json_agree(self, instance, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            status, doc = http(srv.port, "POST", "/v1/graphs",
                               graph_io.to_bytes(instance))
            assert status == 200
            assert doc["graph_ref"] == instance.fingerprint()
            assert doc["n"] == instance.n and doc["m"] == instance.m
            body = json.dumps(_request_doc(instance)["graph"]).encode()
            status2, doc2 = http(srv.port, "POST", "/v1/graphs", body)
            assert status2 == 200
            assert doc2["graph_ref"] == doc["graph_ref"]

    def test_describe_and_evict(self, instance, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            _, doc = http(srv.port, "POST", "/v1/graphs",
                          graph_io.to_bytes(instance))
            ref = doc["graph_ref"]
            status, info = http(srv.port, "GET", f"/v1/graphs/{ref}")
            assert status == 200 and info["n"] == instance.n
            status, out = http(srv.port, "DELETE", f"/v1/graphs/{ref}")
            assert status == 200 and out["evicted"] is True
            status, _ = http(srv.port, "GET", f"/v1/graphs/{ref}")
            assert status == 404

    def test_unknown_ref_404(self, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            status, _ = http(srv.port, "GET", "/v1/graphs/" + "0" * 64)
            assert status == 404
            g = uniform_weights(gnp(8, 0.3, seed=1), 1, 5, seed=2)
            doc = _ref_doc(_request_doc(g), "0" * 64)
            status, err = http(srv.port, "POST", "/v1/solve",
                               json.dumps(doc).encode())
            assert status == 404
            assert "0" * 16 in err["error"]["message"]

    def test_corrupt_blob_400(self, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            from repro import blob

            status, _ = http(srv.port, "POST", "/v1/graphs",
                             blob.MAGIC + b"\x00" * 16)
            assert status == 400

    def test_solve_by_ref_byte_identical_to_body(self, instance, tmp_path):
        with ServerThread(graph_store=str(tmp_path),
                          memory_cache=32) as srv:
            _, reg = http(srv.port, "POST", "/v1/graphs",
                          graph_io.to_bytes(instance))
            body_doc = _request_doc(instance)
            s1, env1 = http(srv.port, "POST", "/v1/solve",
                            json.dumps(body_doc).encode())
            s2, env2 = http(srv.port, "POST", "/v1/solve",
                            json.dumps(_ref_doc(body_doc,
                                                reg["graph_ref"])).encode())
            assert s1 == s2 == 200
            assert env1["report"] == env2["report"]
            # Same logical request => same cache key: the ref solve is a
            # cache hit on the body solve's entry.
            assert env2["served"]["cached"]
            # ...and matches the in-process API result byte for byte.
            local = solve(instance, "thm2", seed=3, eps=0.5)
            assert json.dumps(env1["report"], sort_keys=True,
                              separators=(",", ":")) == local.to_json()

    def test_ref_solve_identical_across_backends(self, instance, tmp_path):
        reports = {}
        for backend in ("per-node", "columnar"):
            with ServerThread(graph_store=str(tmp_path / backend)) as srv:
                _, reg = http(srv.port, "POST", "/v1/graphs",
                              graph_io.to_bytes(instance))
                doc = _ref_doc(_request_doc(instance, backend=backend),
                               reg["graph_ref"])
                status, env = http(srv.port, "POST", "/v1/solve",
                                   json.dumps(doc).encode())
                assert status == 200
                report = dict(env["report"])
                report.pop("backend", None)
                reports[backend] = json.dumps(report, sort_keys=True)
        assert reports["per-node"] == reports["columnar"]

    def test_evicted_ref_solve_404(self, instance, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            _, reg = http(srv.port, "POST", "/v1/graphs",
                          graph_io.to_bytes(instance))
            ref = reg["graph_ref"]
            doc = _ref_doc(_request_doc(instance), ref)
            body = json.dumps(doc).encode()
            status, _ = http(srv.port, "POST", "/v1/solve", body)
            assert status == 200
            http(srv.port, "DELETE", f"/v1/graphs/{ref}")
            # The parse cache remembers the request; liveness is
            # re-checked per request, so the evicted ref 404s anyway.
            status, _ = http(srv.port, "POST", "/v1/solve", body)
            assert status == 404

    def test_oversized_blob_413(self, tmp_path):
        import numpy as np

        from repro import blob

        fake = blob.pack(
            {"kind": "weighted_graph", "fingerprint": "f" * 64,
             "n": 2_000_000, "m": 0},
            [("ids", np.zeros(0, dtype=np.int64)),
             ("indptr", np.zeros(1, dtype=np.int64)),
             ("indices", np.zeros(0, dtype=np.int64)),
             ("weights", np.zeros(0, dtype=np.float64))],
        )
        with ServerThread(graph_store=str(tmp_path)) as srv:
            status, _ = http(srv.port, "POST", "/v1/graphs", fake)
            assert status == 413


class TestOneCopyPerProcess:
    """In a server process a ``GraphRef`` resolves through the engine's
    own store: in-process jobs read its memo, and its eviction reaches
    them."""

    def test_ref_resolves_to_the_engine_stores_graph(self, instance,
                                                     tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            _, reg = http(srv.port, "POST", "/v1/graphs",
                          graph_io.to_bytes(instance))
            store = srv.engine.graph_store
            ref = store.ref(reg["graph_ref"])
            assert ref.resolve() is store.attach(ref.ref)

    def test_unpinned_eviction_reaches_ref_resolution(self, instance,
                                                      tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            _, reg = http(srv.port, "POST", "/v1/graphs",
                          graph_io.to_bytes(instance))
            ref = srv.engine.graph_store.ref(reg["graph_ref"])
            doc = {"schema": "v2", "graph": {"ref": ref.ref},
                   "algorithm": "mis-luby", "seed": 1}
            status, env = http(srv.port, "POST", "/v1/solve",
                               json.dumps(doc).encode())
            assert status == 200 and env["report"]["ok"], env
            status, out = http(srv.port, "DELETE",
                               f"/v1/graphs/{ref.ref}")
            assert status == 200 and out["evicted"] is True
            assert not out.get("deferred"), out
            with pytest.raises(UnknownGraphRef):
                ref.resolve()


class TestLoadgenGraphRef:
    def test_register_pool_graphs_preserves_keys(self, tmp_path):
        from repro.bench.loadgen import build_request_pool

        pool = build_request_pool(seeds=(1,))
        with ServerThread(graph_store=str(tmp_path)) as srv:
            ref_pool = register_pool_graphs("127.0.0.1", srv.port, pool)
            assert len(ref_pool) == len(pool)
            for before, after in zip(pool, ref_pool):
                assert after.request.key() == before.request.key()
                body = json.loads(after.body)
                assert body["graph"] == {
                    "ref": before.graph.fingerprint()}
                assert len(after.body) < len(before.body)
            # A ref body solves and reports ok.
            status, env = http(srv.port, "POST", "/v1/solve",
                               ref_pool[0].body)
            assert status == 200 and env["report"]["ok"]
