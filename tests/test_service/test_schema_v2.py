"""Schema v2, the only request vocabulary.

Schema v2's tagged graph union (``inline`` / ``ref`` / ``delta``) must
carry exactly one tag.  A v1-shaped body — no ``schema``, or
``"schema": "v1"`` — is refused with a 400 that points at the v2 union,
the same way through the worker server and through the fleet router.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    SCHEMA_VERSION,
    SchemaError,
    SolveRequest,
    delta_route_key_from_doc,
    graph_from_doc,
)
from repro.graphs import gnp, uniform_weights
from repro.graphs.delta import GraphDelta, apply_delta
from repro.graphs.store import GraphRef, GraphStore
from repro.service.fleet import start_fleet

from .test_server import ServerThread, http


@pytest.fixture
def instance():
    return uniform_weights(gnp(20, 0.18, seed=3), 1, 10, seed=4)


def _inline_graph_doc(graph):
    from repro.graphs import io as graph_io

    return graph_io.to_doc(graph)


def _v1_doc(g, **over):
    doc = {"graph": _inline_graph_doc(g), "algorithm": "thm2",
           "seed": 3, "params": {"eps": 0.5}}
    doc.update(over)
    return doc


def _v2_doc(g, **over):
    doc = {"schema": "v2", "graph": {"inline": _inline_graph_doc(g)},
           "algorithm": "thm2", "seed": 3, "params": {"eps": 0.5}}
    doc.update(over)
    return doc


class TestV2Parsing:
    def test_inline_form(self, instance):
        req = SolveRequest.from_doc(_v2_doc(instance))
        assert req.to_doc()["schema"] == SCHEMA_VERSION
        assert req.graph.fingerprint() == instance.fingerprint()
        assert req.delta is None

    def test_ref_form(self, instance, tmp_path):
        store = GraphStore(tmp_path)
        ref = store.put(instance)
        doc = _v2_doc(instance, graph={"ref": ref.ref})
        req = SolveRequest.from_doc(doc, store=store)
        assert isinstance(req.graph, GraphRef)
        assert req.key() == SolveRequest.from_doc(_v2_doc(instance)).key()
        store.close()

    def test_delta_form_materializes_child(self, instance, tmp_path):
        store = GraphStore(tmp_path)
        ref = store.put(instance)
        v = instance.nodes[0]
        ops = [["set_weight", v, 42.0]]
        doc = _v2_doc(instance,
                      graph={"delta": {"parent": ref.ref, "ops": ops}})
        req = SolveRequest.from_doc(doc, store=store)
        child = apply_delta(instance, GraphDelta.of(ops))
        assert req.graph.fingerprint() == child.fingerprint()
        assert req.delta is not None
        assert req.delta.parent == ref.ref
        assert req.delta.weight_only is True
        assert req.delta.touched == (v,)
        # The delta never leaks into the key: identical to solving the
        # edited graph sent whole.
        assert req.key() == SolveRequest.from_doc(_v2_doc(child)).key()
        store.close()

    def test_union_requires_exactly_one_tag(self, instance, tmp_path):
        store = GraphStore(tmp_path)
        ref = store.put(instance)
        for graph in ({}, {"spec": "gnp:8,0.2"},
                      {"inline": _inline_graph_doc(instance),
                       "ref": ref.ref}):
            with pytest.raises(SchemaError, match="exactly one"):
                SolveRequest.from_doc(_v2_doc(instance, graph=graph),
                                      store=store)
        store.close()

    def test_unsupported_schema_rejected(self, instance):
        with pytest.raises(SchemaError, match="unsupported schema"):
            SolveRequest.from_doc(_v2_doc(instance, schema="v3"))

    def test_v2_round_trips(self, instance):
        req = SolveRequest.from_doc(_v2_doc(instance))
        again = SolveRequest.from_doc(req.to_doc())
        assert again.key() == req.key()
        assert again.to_doc() == req.to_doc()


class TestV1Refused:
    def test_missing_schema_is_refused(self, instance):
        with pytest.raises(SchemaError, match="no schema.*Migrating from v1"):
            SolveRequest.from_doc(_v1_doc(instance))

    def test_explicit_v1_schema_is_refused(self, instance):
        with pytest.raises(SchemaError,
                           match="unsupported schema 'v1'.*inline"):
            SolveRequest.from_doc(_v1_doc(instance, schema="v1"))

    def test_v1_ref_shape_is_refused(self, instance, tmp_path):
        store = GraphStore(tmp_path)
        ref = store.put(instance)
        with pytest.raises(SchemaError, match="exactly one"):
            SolveRequest.from_doc(
                _v2_doc(instance, graph={"graph_ref": ref.ref}),
                store=store)
        with pytest.raises(SchemaError, match="nodes/edges"):
            graph_from_doc({"graph_ref": ref.ref}, store=store)
        store.close()


class TestDeltaRouteKey:
    def test_delta_doc_routes_by_parent_key(self, instance, tmp_path):
        store = GraphStore(tmp_path)
        ref = store.put(instance)
        doc = _v2_doc(instance, graph={
            "delta": {"parent": ref.ref, "ops": [["set_weight", 0, 1.0]]}})
        route_key = delta_route_key_from_doc(doc)
        # The parent-keyed stand-in: the same hash a ref/inline solve of
        # the *parent* would route by, so delta solves land on the
        # worker whose memory tier holds the parent's report.
        parent_req = SolveRequest.from_doc(
            _v2_doc(instance, graph={"ref": ref.ref}), store=store)
        assert route_key == parent_req.key()
        store.close()

    def test_non_delta_docs_have_no_route_key(self, instance):
        assert delta_route_key_from_doc(_v2_doc(instance)) is None
        assert delta_route_key_from_doc(_v1_doc(instance)) is None
        assert delta_route_key_from_doc("nonsense") is None


class TestServedEnvelope:
    def test_v1_bodies_refused_on_both_doors(self, instance):
        bodies = [json.dumps(_v1_doc(instance)).encode(),
                  json.dumps(_v1_doc(instance, schema="v1")).encode()]
        body_v2 = json.dumps(_v2_doc(instance)).encode()
        with ServerThread(memory_cache=16) as srv:
            worker = [http(srv.port, "POST", "/v1/solve", body)
                      for body in bodies + [body_v2]]
        fleet = start_fleet(workers=2, threaded=True)
        try:
            routed = [http(fleet.port, "POST", "/v1/solve", body)
                      for body in bodies + [body_v2]]
        finally:
            fleet.close()
        for replies in (worker, routed):
            for status, doc in replies[:2]:
                assert status == 400
                assert doc["error"]["code"] == "bad_request"
                assert "Migrating from v1" in doc["error"]["message"]
            status, env = replies[2]
            assert status == 200
            assert env["schema"] == SCHEMA_VERSION
            assert "deprecated" not in env
        # The same refusal, word for word, from either door.
        assert [doc for _, doc in worker[:2]] == [doc for _, doc in routed[:2]]
        assert worker[2][1]["report"] == routed[2][1]["report"]
