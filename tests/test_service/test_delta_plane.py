"""The delta plane over HTTP: ``POST /v1/graphs/<ref>/deltas``,
delta-form solves, and the incremental re-solve path.

Three contracts under test:

* Registering a delta yields a child ``graph_ref`` byte-identical to
  registering the edited graph from scratch, and the endpoint's error
  discrimination is exact (op-shape → 400, unknown parent → 404,
  state conflict → 409).
* A delta-form solve's report is byte-identical to a full solve of the
  equivalent from-scratch graph — whether the engine served it
  incrementally (weight-only × weight-oblivious, warm parent cache) or
  fell back to the full path — and the envelope says which
  (``served.solve_mode`` + ``served.dirty_frontier``).
* ``DELETE`` of a ref racing an in-flight solve defers physical
  eviction: the solve completes, the ref 404s immediately, and the blob
  disappears once the pin drops.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import solve
from repro.core import weighted_greedy_maxis
from repro.graphs import gnp, uniform_weights
from repro.graphs import io as graph_io
from repro.graphs.delta import GraphDelta, apply_delta
from repro.registry import algorithm_registry

from .test_server import ServerThread, http


@pytest.fixture
def instance():
    return uniform_weights(gnp(24, 0.16, seed=5), 1, 12, seed=6)


def _register(port, graph):
    status, doc = http(port, "POST", "/v1/graphs", graph_io.to_bytes(graph))
    assert status == 200
    return doc["graph_ref"]


def _delta_solve_doc(parent, ops, *, algorithm="mis-luby", seed=5,
                     backend=None, params=None):
    doc = {
        "schema": "v2",
        "graph": {"delta": {"parent": parent, "ops": ops}},
        "algorithm": algorithm,
        "seed": seed,
    }
    if backend:
        doc["backend"] = backend
    if params:
        doc["params"] = params
    return doc


class TestDeltasEndpoint:
    def test_register_delta_round_trip(self, instance, tmp_path):
        v = instance.nodes[0]
        ops = [["set_weight", v, 99.0]]
        child_local = apply_delta(instance, GraphDelta.of(ops))
        with ServerThread(graph_store=str(tmp_path)) as srv:
            parent = _register(srv.port, instance)
            status, doc = http(srv.port, "POST",
                               f"/v1/graphs/{parent}/deltas",
                               json.dumps({"ops": ops}).encode())
            assert status == 200
            # Content addressing: the child ref is the fingerprint of
            # the edited graph built from scratch.
            assert doc["graph_ref"] == child_local.fingerprint()
            assert doc["parent"] == parent
            assert doc["ops"] == 1 and doc["weight_only"] is True
            assert doc["n"] == instance.n and doc["m"] == instance.m
            # The child is a first-class stored graph.
            status, info = http(srv.port, "GET",
                                f"/v1/graphs/{doc['graph_ref']}")
            assert status == 200 and info["n"] == instance.n

    def test_bare_ops_list_body_accepted(self, instance, tmp_path):
        v = instance.nodes[0]
        with ServerThread(graph_store=str(tmp_path)) as srv:
            parent = _register(srv.port, instance)
            status, doc = http(srv.port, "POST",
                               f"/v1/graphs/{parent}/deltas",
                               json.dumps([["set_weight", v, 3.0]]).encode())
            assert status == 200
            assert doc["weight_only"] is True

    def test_unknown_parent_404(self, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            status, err = http(srv.port, "POST",
                               "/v1/graphs/" + "0" * 64 + "/deltas",
                               json.dumps({"ops": [["set_weight", 0, 1.0]]}
                                          ).encode())
            assert status == 404
            assert err["error"]["code"] == "not_found"

    def test_state_conflict_409(self, instance, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            parent = _register(srv.port, instance)
            status, err = http(srv.port, "POST",
                               f"/v1/graphs/{parent}/deltas",
                               json.dumps({"ops": [["remove_node", 10**9]]}
                                          ).encode())
            assert status == 409
            assert err["error"]["code"] == "conflict"
            # The detail pins which edit script was rejected.
            assert len(err["error"]["detail"]) == 64

    def test_malformed_ops_400(self, instance, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            parent = _register(srv.port, instance)
            for body in (b"not json", b'{"ops": [["warp_node", 1]]}',
                         b'{"ops": [["set_weight", 1]]}'):
                status, err = http(srv.port, "POST",
                                   f"/v1/graphs/{parent}/deltas", body)
                assert status == 400, body
                assert err["error"]["code"] == "bad_request"

    def test_get_on_deltas_path_405(self, instance, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            parent = _register(srv.port, instance)
            status, err = http(srv.port, "GET",
                               f"/v1/graphs/{parent}/deltas")
            assert status == 405
            assert err["error"]["code"] == "method_not_allowed"


class TestSolveModeGoldens:
    """Golden decisions for ``served.solve_mode`` — and byte identity
    of the report regardless of which path produced it."""

    @pytest.mark.parametrize("backend", ["per-node", "columnar"])
    def test_weight_only_delta_serves_incrementally(self, instance,
                                                    tmp_path, backend):
        v = instance.nodes[0]
        ops = [["set_weight", v, 50.0]]
        child = apply_delta(instance, GraphDelta.of(ops))
        with ServerThread(graph_store=str(tmp_path),
                          memory_cache=32) as srv:
            parent = _register(srv.port, instance)
            # Warm the parent's report into the memory tier.
            warm = {"schema": "v2", "graph": {"ref": parent},
                    "algorithm": "mis-luby", "seed": 5, "backend": backend}
            status, _ = http(srv.port, "POST", "/v1/solve",
                             json.dumps(warm).encode())
            assert status == 200
            doc = _delta_solve_doc(parent, ops, backend=backend)
            status, env = http(srv.port, "POST", "/v1/solve",
                               json.dumps(doc).encode())
            assert status == 200
            assert env["served"]["solve_mode"] == "incremental"
            assert env["served"]["cached"] is True
            assert env["served"]["dirty_frontier"] >= 0
            assert env["schema"] == "v2" and "deprecated" not in env
            # The acceptance pin: the derived report is byte-identical
            # to a full fixed-seed solve of the from-scratch child.
            local = solve(child, "mis-luby", seed=5, backend=backend)
            assert json.dumps(env["report"], sort_keys=True,
                              separators=(",", ":")) == local.to_json()

    @pytest.mark.parametrize("backend", ["per-node", "columnar"])
    def test_weight_only_delta_served_from_disk_tier(self, instance,
                                                     tmp_path, backend):
        # No memory tier: the parent's report can only come from the
        # shared disk cache, under the key every backend shares.
        v = instance.nodes[0]
        ops = [["set_weight", v, 50.0]]
        child = apply_delta(instance, GraphDelta.of(ops))
        with ServerThread(cache_dir=str(tmp_path), memory_cache=0,
                          backend=backend) as srv:
            parent = _register(srv.port, instance)
            warm = {"schema": "v2", "graph": {"ref": parent},
                    "algorithm": "mis-luby", "seed": 5}
            status, _ = http(srv.port, "POST", "/v1/solve",
                             json.dumps(warm).encode())
            assert status == 200
            status, env = http(srv.port, "POST", "/v1/solve",
                               json.dumps(_delta_solve_doc(parent, ops)
                                          ).encode())
            assert status == 200
            assert env["served"]["solve_mode"] == "incremental"
            assert env["served"]["cache_tier"] == "disk"
            local = solve(child, "mis-luby", seed=5, backend=backend)
            assert json.dumps(env["report"], sort_keys=True,
                              separators=(",", ":")) == local.to_json()

    def test_registry_engine_serves_delta_from_disk_tier(self, instance,
                                                         tmp_path):
        # An engine built with registry= runs injected callables; its
        # disk entries must still be keyed by the registry name, which
        # is where the incremental path looks for the parent.
        v = instance.nodes[0]
        ops = [["set_weight", v, 50.0]]
        child = apply_delta(instance, GraphDelta.of(ops))
        with ServerThread(cache_dir=str(tmp_path), memory_cache=0,
                          registry=dict(algorithm_registry())) as srv:
            parent = _register(srv.port, instance)
            warm = {"schema": "v2", "graph": {"ref": parent},
                    "algorithm": "mis-luby", "seed": 5}
            status, _ = http(srv.port, "POST", "/v1/solve",
                             json.dumps(warm).encode())
            assert status == 200
            status, env = http(srv.port, "POST", "/v1/solve",
                               json.dumps(_delta_solve_doc(parent, ops)
                                          ).encode())
            assert status == 200
            assert env["served"]["solve_mode"] == "incremental"
            assert env["served"]["cache_tier"] == "disk"
            local = solve(child, "mis-luby", seed=5)
            assert json.dumps(env["report"], sort_keys=True,
                              separators=(",", ":")) == local.to_json()

    def test_registry_and_named_engines_share_one_disk_entry(self, instance,
                                                             tmp_path):
        doc = {"schema": "v2", "graph": {"inline": graph_io.to_doc(instance)},
               "algorithm": "mis-luby", "seed": 5}
        body = json.dumps(doc).encode()
        cache = tmp_path / "cache"
        replies = []
        for registry in (None, dict(algorithm_registry())):
            with ServerThread(cache_dir=str(cache), memory_cache=0,
                              registry=registry) as srv:
                status, env = http(srv.port, "POST", "/v1/solve", body)
            assert status == 200
            replies.append(env)
        named, injected = replies
        assert named["served"]["cached"] is False
        assert injected["served"]["cached"] is True
        assert injected["served"]["cache_tier"] == "disk"
        assert injected["report"] == named["report"]
        assert len(list(cache.glob("*.json"))) == 1

    def test_topology_delta_takes_full_path(self, instance, tmp_path):
        nodes = instance.nodes
        pair = next((u, v) for u in nodes for v in nodes
                    if u < v and v not in instance.neighbors(u))
        ops = [["add_edge", *pair]]
        child = apply_delta(instance, GraphDelta.of(ops))
        with ServerThread(graph_store=str(tmp_path),
                          memory_cache=32) as srv:
            parent = _register(srv.port, instance)
            warm = {"schema": "v2", "graph": {"ref": parent},
                    "algorithm": "mis-luby", "seed": 5}
            http(srv.port, "POST", "/v1/solve", json.dumps(warm).encode())
            status, env = http(srv.port, "POST", "/v1/solve",
                               json.dumps(_delta_solve_doc(parent, ops)
                                          ).encode())
            assert status == 200
            assert env["served"]["solve_mode"] == "full"
            assert env["served"]["dirty_frontier"] >= 0
            local = solve(child, "mis-luby", seed=5)
            assert json.dumps(env["report"], sort_keys=True,
                              separators=(",", ":")) == local.to_json()

    def test_weight_sensitive_algorithm_takes_full_path(self, instance,
                                                        tmp_path):
        v = instance.nodes[0]
        ops = [["set_weight", v, 50.0]]
        with ServerThread(graph_store=str(tmp_path),
                          memory_cache=32) as srv:
            parent = _register(srv.port, instance)
            warm = {"schema": "v2", "graph": {"ref": parent},
                    "algorithm": "thm2", "seed": 5,
                    "params": {"eps": 0.5}}
            http(srv.port, "POST", "/v1/solve", json.dumps(warm).encode())
            doc = _delta_solve_doc(parent, ops, algorithm="thm2",
                                   params={"eps": 0.5})
            status, env = http(srv.port, "POST", "/v1/solve",
                               json.dumps(doc).encode())
            assert status == 200
            # thm2 reads weights: deriving from the parent's set would
            # be unsound, so the engine must re-solve in full.
            assert env["served"]["solve_mode"] == "full"

    def test_cold_parent_cache_falls_back_to_full(self, instance, tmp_path):
        v = instance.nodes[0]
        ops = [["set_weight", v, 50.0]]
        with ServerThread(graph_store=str(tmp_path),
                          memory_cache=32) as srv:
            parent = _register(srv.port, instance)
            # No warm-up solve: nothing cached for the parent.
            status, env = http(srv.port, "POST", "/v1/solve",
                               json.dumps(_delta_solve_doc(parent, ops)
                                          ).encode())
            assert status == 200
            assert env["served"]["solve_mode"] == "full"

    def test_unknown_delta_parent_404(self, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            doc = _delta_solve_doc("0" * 64, [["set_weight", 0, 1.0]])
            status, err = http(srv.port, "POST", "/v1/solve",
                               json.dumps(doc).encode())
            assert status == 404
            assert err["error"]["code"] == "not_found"

    def test_conflicting_delta_solve_409(self, instance, tmp_path):
        with ServerThread(graph_store=str(tmp_path)) as srv:
            parent = _register(srv.port, instance)
            doc = _delta_solve_doc(parent, [["remove_node", 10**9]])
            status, err = http(srv.port, "POST", "/v1/solve",
                               json.dumps(doc).encode())
            assert status == 409
            assert err["error"]["code"] == "conflict"

    def test_incremental_counters_in_metrics(self, instance, tmp_path):
        v = instance.nodes[0]
        ops = [["set_weight", v, 50.0]]
        with ServerThread(graph_store=str(tmp_path),
                          memory_cache=32) as srv:
            parent = _register(srv.port, instance)
            warm = {"schema": "v2", "graph": {"ref": parent},
                    "algorithm": "mis-luby", "seed": 5}
            http(srv.port, "POST", "/v1/solve", json.dumps(warm).encode())
            http(srv.port, "POST", "/v1/solve",
                 json.dumps(_delta_solve_doc(parent, ops)).encode())
            # Topology edit: counted as a fallback, solved in full.
            http(srv.port, "POST", "/v1/solve",
                 json.dumps(_delta_solve_doc(
                     parent, [["add_node", 10**6, 1.0]])).encode())
            status, metrics = http(srv.port, "GET", "/v1/metrics")
            assert status == 200
            assert metrics["incremental_served"] == 1
            assert metrics["incremental_fallback"] == 1


class TestEvictionRace:
    def test_delete_during_inflight_solve_defers_physical_eviction(
            self, instance, tmp_path):
        started = threading.Event()
        release = threading.Event()

        def slow(graph, seed=None, **params):
            started.set()
            release.wait(timeout=10.0)
            return weighted_greedy_maxis(graph, seed=seed)

        with ServerThread(graph_store=str(tmp_path),
                          registry={"slow": slow}) as srv:
            ref = _register(srv.port, instance)
            doc = {"schema": "v2", "graph": {"ref": ref},
                   "algorithm": "slow", "seed": 1}
            result = {}

            def solve_thread():
                result["solve"] = http(srv.port, "POST", "/v1/solve",
                                       json.dumps(doc).encode())

            worker = threading.Thread(target=solve_thread)
            worker.start()
            try:
                assert started.wait(timeout=10.0), "solve never started"
                # DELETE races the pinned solve: logical eviction is
                # immediate, physical removal deferred.
                status, out = http(srv.port, "DELETE", f"/v1/graphs/{ref}")
                assert status == 200
                assert out["evicted"] is True
                assert out.get("deferred") is True
                status, _ = http(srv.port, "GET", f"/v1/graphs/{ref}")
                assert status == 404, "logically gone immediately"
            finally:
                release.set()
                worker.join(timeout=15.0)
            status, env = result["solve"]
            assert status == 200 and env["report"]["ok"], (
                "the in-flight solve must complete against the pinned "
                "ref, not crash on a vanished blob")
            # Physical removal happens at unpin; poll briefly for it.
            blob = tmp_path / f"{ref}.rwg"
            deadline = time.time() + 10.0
            while blob.exists() and time.time() < deadline:
                time.sleep(0.05)
            assert not blob.exists()
            status, _ = http(srv.port, "GET", f"/v1/graphs/{ref}")
            assert status == 404
