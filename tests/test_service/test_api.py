"""The public facade: the v2 request / v1 report contract and repro.solve."""

from __future__ import annotations

import json

import pytest

import repro
from repro.api import (
    SCHEMA_VERSION,
    SchemaError,
    SolveError,
    SolveReport,
    SolveRequest,
    describe_algorithms,
    graph_from_doc,
    solve,
    sweep,
)
from repro.graphs import gnp, uniform_weights


@pytest.fixture
def instance():
    return uniform_weights(gnp(30, 0.12, seed=3), 1, 20, seed=4)


# --------------------------------------------------------------------- #
# the wire contract
# --------------------------------------------------------------------- #

class TestSolveRequest:
    def test_round_trips_through_json(self, instance):
        req = SolveRequest(graph=instance, algorithm="thm2", seed=7,
                           params={"eps": 0.25}, timeout_s=9.0, label="x")
        back = SolveRequest.from_json(req.to_json())
        assert back.algorithm == "thm2"
        assert back.seed == 7
        assert back.params == {"eps": 0.25}
        assert back.timeout_s == 9.0
        assert back.label == "x"
        assert back.graph.fingerprint() == instance.fingerprint()

    def test_key_ignores_serving_hints(self, instance):
        a = SolveRequest(graph=instance, algorithm="thm2", seed=7)
        b = SolveRequest(graph=instance, algorithm="thm2", seed=7,
                         timeout_s=1.0, label="other")
        assert a.key() == b.key()

    def test_key_depends_on_graph_content(self, instance):
        other = uniform_weights(gnp(30, 0.12, seed=5), 1, 20, seed=6)
        a = SolveRequest(graph=instance, algorithm="thm2", seed=7)
        b = SolveRequest(graph=other, algorithm="thm2", seed=7)
        assert a.key() != b.key()

    def test_spec_graph_decodes_server_side(self):
        doc = {"schema": SCHEMA_VERSION,
               "graph": {"inline": {"spec": "gnp:20,0.2",
                                    "weights": "uniform:1,9", "seed": 5}},
               "algorithm": "thm1"}
        req = SolveRequest.from_doc(doc)
        assert req.graph.n == 20
        assert all(1 <= req.graph.weight(v) <= 9 for v in req.graph.nodes)

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(schema="v9"), "unsupported schema"),
        (lambda d: d.pop("graph"), "missing the graph"),
        (lambda d: d.pop("algorithm"), "missing the algorithm"),
        (lambda d: d.update(seed=True), "seed must be an int"),
        (lambda d: d.update(seed="7"), "seed must be an int"),
        (lambda d: d.update(params=[1]), "params must be an object"),
        (lambda d: d.update(timeout_s=-1), "timeout_s must be positive"),
        (lambda d: d.update(timeout_s="soon"), "timeout_s must be a number"),
        (lambda d: d.update(graph={"inline": {"spec": "nosuch:3"}}),
         "unknown graph kind"),
        (lambda d: d.update(graph={"inline": {"weird": 1}}),
         "nodes/edges .* or a spec"),
        (lambda d: d.update(graph={"weird": 1}),
         "exactly one of inline/ref/delta"),
        (lambda d: d.update(graph={"ref": "a" * 64, "inline": {}}),
         "exactly one of inline/ref/delta"),
    ])
    def test_bad_documents_raise_schema_error(self, instance, mutate, match):
        doc = SolveRequest(graph=instance, algorithm="thm2").to_doc()
        mutate(doc)
        with pytest.raises(SchemaError, match=match):
            SolveRequest.from_doc(doc)

    def test_invalid_json_raises_schema_error(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            SolveRequest.from_json("{nope")

    def test_graph_from_doc_rejects_non_object(self):
        with pytest.raises(SchemaError, match="must be an object"):
            graph_from_doc([1, 2, 3])


class TestSolveReport:
    def test_round_trips_through_json(self, instance):
        report = solve(instance, "thm2", seed=7, eps=0.5)
        back = SolveReport.from_json(report.to_json())
        assert back == report

    def test_serialization_is_canonical(self, instance):
        report = solve(instance, "thm2", seed=7, eps=0.5)
        blob = report.to_json()
        assert blob == json.dumps(json.loads(blob), sort_keys=True,
                                  separators=(",", ":"))

    def test_rejects_wrong_schema(self):
        with pytest.raises(SchemaError, match="unsupported report schema"):
            SolveReport.from_doc({"schema": "v0", "algorithm": "x",
                                  "seed": 0, "ok": True})


# --------------------------------------------------------------------- #
# solve / sweep facade
# --------------------------------------------------------------------- #

class TestSolve:
    def test_fixed_seed_is_reproducible_bytes(self, instance):
        a = solve(instance, "thm2", seed=7, eps=0.5)
        b = solve(instance, "thm2", seed=7, eps=0.5)
        assert a.to_json() == b.to_json()

    def test_report_matches_direct_registry_call(self, instance):
        from repro.registry import algorithm_registry

        report = solve(instance, "thm2", seed=7, eps=0.5)
        result = algorithm_registry()["thm2"](instance, seed=7, eps=0.5)
        assert report.independent_set == tuple(sorted(result.independent_set))
        assert report.rounds == result.rounds
        assert report.ok

    def test_guarantee_metadata_survives_to_report(self, instance):
        report = solve(instance, "thm2", seed=7, eps=0.5)
        assert report.metadata["guarantee_factor"] > 0
        assert report.metadata["theorem"] == 2

    def test_report_certifies(self, instance):
        from repro.core.verify import certify_result

        report = solve(instance, "thm2", seed=7, eps=0.5)
        assert certify_result(instance, report).holds

    def test_unknown_algorithm_raises(self, instance):
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve(instance, "nosuch")

    def test_failure_raises_solve_error_with_report(self, instance):
        with pytest.raises(SolveError) as info:
            solve(instance, "thm2", seed=7, eps=-2.0)
        assert info.value.report.ok is False
        assert info.value.report.error

    def test_failure_returned_when_not_raising(self, instance):
        report = solve(instance, "thm2", seed=7, eps=-2.0,
                       raise_on_error=False)
        assert report.ok is False

    def test_cache_round_trip_preserves_bytes(self, instance, tmp_path):
        cold = solve(instance, "thm2", seed=7, cache_dir=str(tmp_path))
        warm = solve(instance, "thm2", seed=7, cache_dir=str(tmp_path))
        assert cold.to_json() == warm.to_json()


class TestSweep:
    def test_derived_seeds_match_single_solves(self, instance):
        reports = sweep(instance, "thm2", seeds=3, master_seed=5, eps=0.5)
        assert len(reports) == 3
        for report in reports:
            again = solve(instance, "thm2", seed=report.seed, eps=0.5)
            assert report.to_json() == again.to_json()

    def test_seed_count_validated(self, instance):
        with pytest.raises(ValueError, match="seeds must be >= 1"):
            sweep(instance, "thm2", seeds=0)


# --------------------------------------------------------------------- #
# blessed root surface + deprecation shims
# --------------------------------------------------------------------- #

class TestPublicSurface:
    def test_root_exports(self):
        assert repro.solve is solve
        assert repro.sweep is sweep
        assert repro.SolveRequest is SolveRequest
        assert repro.SolveReport is SolveReport
        assert callable(repro.algorithm_registry)

    def test_registry_names_are_stable(self):
        names = set(repro.algorithm_registry())
        assert {"thm1", "thm2", "thm3", "thm5", "thm8", "thm9",
                "ranking", "bar-yehuda", "weighted-greedy",
                "mis-luby", "mis-ghaffari", "mis-det"} <= names

    def test_describe_algorithms_lists_eps(self):
        entries = {e["name"]: e for e in describe_algorithms()}
        thm2 = entries["thm2"]
        assert {"name": "eps", "default": 0.5} in thm2["params"]
        assert entries["mis-luby"]["accepts_extra_params"]
