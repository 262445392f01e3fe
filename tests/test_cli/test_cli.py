"""Tests for the command-line interface."""

import json

import pytest

from repro.api import describe_algorithms, solve
from repro.cli import main, parse_graph_spec, parse_weight_spec
from repro.graphs import WeightedGraph
from repro.registry import algorithm_registry


class TestGraphSpecs:
    def test_gnp(self):
        g = parse_graph_spec("gnp:50,0.1", seed=1)
        assert g.n == 50

    def test_regular(self):
        g = parse_graph_spec("regular:20,4", seed=1)
        assert all(g.degree(v) == 4 for v in g.nodes)

    def test_tree(self):
        g = parse_graph_spec("tree:30", seed=1)
        assert g.m == 29

    def test_grid(self):
        assert parse_graph_spec("grid:3,4", seed=None).n == 12

    def test_cycle_and_path(self):
        assert parse_graph_spec("cycle:7", seed=None).m == 7
        assert parse_graph_spec("path:7", seed=None).m == 6

    def test_geometric(self):
        assert parse_graph_spec("geometric:40,0.2", seed=2).n == 40

    def test_caterpillar(self):
        assert parse_graph_spec("caterpillar:5,2", seed=None).n == 15

    def test_file(self, tmp_path):
        from repro.graphs import gnp
        from repro.graphs.io import save

        g = gnp(10, 0.3, seed=3)
        p = tmp_path / "g.wg"
        save(g, p)
        assert parse_graph_spec(f"file:{p}", seed=None) == g

    def test_unknown_kind(self):
        with pytest.raises(SystemExit, match="unknown graph kind"):
            parse_graph_spec("torus:3", seed=None)

    def test_bad_args(self):
        with pytest.raises(SystemExit, match="bad graph spec"):
            parse_graph_spec("gnp:abc", seed=None)


class TestWeightSpecs:
    @pytest.fixture
    def g(self) -> WeightedGraph:
        return parse_graph_spec("cycle:20", seed=None)

    def test_unit(self, g):
        assert parse_weight_spec("unit", g, seed=1).total_weight() == 20

    def test_uniform(self, g):
        w = parse_weight_spec("uniform:5,6", g, seed=1)
        assert all(5 <= w.weight(v) < 6 for v in w.nodes)

    def test_integers(self, g):
        w = parse_weight_spec("integers:9", g, seed=1)
        assert all(1 <= w.weight(v) <= 9 for v in w.nodes)

    def test_skewed(self, g):
        w = parse_weight_spec("skewed:0.1,100", g, seed=1)
        assert w.max_weight() == 100

    def test_degree(self, g):
        w = parse_weight_spec("degree", g, seed=None)
        assert all(w.weight(v) == 3.0 for v in w.nodes)

    def test_keep(self, g):
        assert parse_weight_spec("keep", g, seed=None) is g

    def test_unknown(self, g):
        with pytest.raises(SystemExit, match="unknown weight scheme"):
            parse_weight_spec("zipf", g, seed=None)


class TestCommands:
    def test_run_text_output(self, capsys):
        rc = main(["run", "--algorithm", "thm8", "--graph", "gnp:60,0.1",
                   "--weights", "uniform:1,10", "--seed", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounds:" in out
        assert "independent_set_weight:" in out

    def test_run_json_output(self, capsys):
        rc = main(["run", "--algorithm", "ranking", "--graph", "cycle:15",
                   "--weights", "unit", "--json", "--show-set"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "ranking"
        assert payload["rounds"] == 1
        assert isinstance(payload["independent_set"], list)

    @pytest.mark.parametrize("algo", sorted(algorithm_registry()))
    def test_run_all_algorithms(self, capsys, algo):
        # `repro run` is the registry entry as repro.api.solve runs it:
        # same seed, and --eps exactly where the entry declares eps.
        rc = main(["run", "--algorithm", algo, "--graph", "gnp:40,0.1",
                   "--weights", "integers:50", "--seed", "5", "--eps", "0.3",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["independent_set_size"] >= 1
        graph = parse_weight_spec("integers:50",
                                  parse_graph_spec("gnp:40,0.1", 5), 6)
        entry = next(e for e in describe_algorithms() if e["name"] == algo)
        params = ({"eps": 0.3} if any(p["name"] == "eps"
                                      for p in entry["params"]) else {})
        report = solve(graph, algo, seed=5, **params)
        assert payload["independent_set_weight"] == report.weight
        assert payload["rounds"] == report.rounds
        assert payload["messages"] == report.messages

    def test_info(self, capsys):
        rc = main(["info", "--graph", "grid:4,5", "--weights", "unit"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n: 20" in out
        assert "arboricity: 2" in out

    def test_info_skips_arboricity_when_large(self, capsys):
        rc = main(["info", "--graph", "grid:4,5", "--arboricity-limit", "5"])
        assert rc == 0
        assert "arboricity" not in capsys.readouterr().out

    def test_experiments_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown experiments"):
            main(["experiments", "E99"])

    def test_experiments_named(self, capsys):
        rc = main(["experiments", "E3"])
        assert rc == 0
        assert "Theorem 10" in capsys.readouterr().out

    def test_experiments_with_jobs_flag(self, capsys):
        rc = main(["experiments", "E5", "--jobs", "2"])
        assert rc == 0
        assert "Theorem 2" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_json(self, capsys):
        rc = main(["sweep", "--algorithm", "ranking", "--graph", "gnp:50,0.08",
                   "--weights", "uniform:1,20", "--seeds", "5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == 5
        assert payload["ok"] == 5
        assert payload["failed"] == 0
        assert payload["mean_rounds"] >= 1.0

    def test_sweep_cold_then_warm_cache(self, capsys, tmp_path):
        argv = ["sweep", "--algorithm", "ranking", "--graph", "cycle:20",
                "--weights", "unit", "--seeds", "4", "--jobs", "2",
                "--cache", str(tmp_path / "cache"), "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cached"] == 0
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cached"] == 4
        assert warm["total_bits"] == cold["total_bits"]
        assert warm["mean_weight"] == cold["mean_weight"]


class TestVerifyCommand:
    def test_verify_small_uses_exact(self, capsys):
        rc = main(["verify", "--algorithm", "thm1", "--graph", "gnp:35,0.15",
                   "--weights", "uniform:1,10", "--eps", "0.5", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "exact OPT" in out
        assert "HOLDS" in out

    def test_verify_large_falls_back_to_fraction(self, capsys):
        rc = main(["verify", "--algorithm", "thm2", "--graph", "gnp:150,0.05",
                   "--weights", "integers:50", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "too large for exact" in out
        assert "HOLDS" in out

    def test_verify_exact_limit_flag(self, capsys):
        rc = main(["verify", "--algorithm", "thm8", "--graph", "gnp:35,0.15",
                   "--weights", "unit", "--exact-limit", "10"])
        assert rc == 0
        assert "too large" in capsys.readouterr().out

    def test_experiments_json_dir(self, capsys, tmp_path):
        rc = main(["experiments", "E3", "--json-dir", str(tmp_path)])
        assert rc == 0
        saved = (tmp_path / "E3.json").read_text()
        from repro.bench import ExperimentReport

        rep = ExperimentReport.from_json(saved)
        assert rep.experiment == "E3"
        assert rep.findings["stack_property_holds"]

    def test_verify_reports_violation_with_exit_code(self, capsys, tmp_path):
        # One-round ranking ignores weights; on a heavy-hub star it misses
        # the hub for seed 0 and cannot meet a (1+eps)Δ certificate.
        from repro.graphs import star
        from repro.graphs.io import save

        g = star(5).with_weights({0: 1000.0, **{i: 1.0 for i in range(1, 6)}})
        p = tmp_path / "hub.wg"
        save(g, p)
        rc = main(["verify", "--algorithm", "ranking", "--graph", f"file:{p}",
                   "--weights", "keep", "--eps", "0.5", "--seed", "0"])
        assert rc == 1
        assert "VIOLATED" in capsys.readouterr().out


class TestObservabilityCli:
    def _record(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        rc = main(["run", "--algorithm", "thm2", "--graph", "gnp:30,0.12",
                   "--weights", "uniform:1,20", "--seed", "3",
                   "--record", str(path), "--json"])
        assert rc == 0
        capsys.readouterr()
        return path

    def test_run_record_writes_meta_events_result(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys)
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        types = [r["type"] for r in records]
        assert types[0] == "meta"
        assert types[-1] == "result"
        assert "event" in types and "round_profile" in types
        assert records[-1]["metrics"]["span"]["name"] == "theorem2"

    def test_run_phases_prints_span_table(self, capsys):
        rc = main(["run", "--algorithm", "thm1", "--graph", "gnp:25,0.15",
                   "--weights", "uniform:1,10", "--seed", "2", "--phases"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "theorem1" in out
        assert "boost" in out
        assert "share" in out

    def test_run_phases_without_span(self, capsys):
        rc = main(["run", "--algorithm", "mis-luby", "--graph", "cycle:12",
                   "--weights", "unit", "--phases"])
        assert rc == 0
        # MIS black boxes carry a single leaf span, so a table still prints.
        assert "mis[" in capsys.readouterr().out

    def test_inspect_phases(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys)
        rc = main(["inspect", str(path), "--format", "phases"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "theorem2" in out and "boost" in out

    def test_inspect_timeline(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys)
        rc = main(["inspect", str(path), "--format", "timeline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "round 0:" in out and "msgs" in out

    def test_inspect_chrome_trace_sums_to_rounds(self, tmp_path, capsys):
        path = self._record(tmp_path, capsys)
        result = [json.loads(ln) for ln in path.read_text().splitlines()][-1]
        rc = main(["inspect", str(path), "--format", "chrome-trace"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        root = doc["traceEvents"][0]
        assert root["dur"] == result["metrics"]["rounds"]
        # Depth-1 sequential slices tile the root exactly.
        depth1 = [e for e in doc["traceEvents"] if e["tid"] == 1]
        assert max(e["ts"] + e["dur"] for e in depth1) == root["dur"]

    def test_inspect_missing_file_and_empty(self, tmp_path):
        with pytest.raises((SystemExit, OSError)):
            main(["inspect", str(tmp_path / "nope.jsonl")])
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no records"):
            main(["inspect", str(empty)])

    def test_sweep_emit_metrics_round_trip(self, tmp_path, capsys):
        emit = tmp_path / "jobs.jsonl"
        rc = main(["sweep", "--algorithm", "ranking", "--graph", "gnp:40,0.1",
                   "--weights", "uniform:1,20", "--seeds", "5", "--jobs", "2",
                   "--emit-metrics", str(emit), "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        records = [json.loads(ln) for ln in emit.read_text().splitlines()]
        assert len(records) == 5
        assert all(r["type"] == "job" for r in records)
        assert all("fingerprint" in r["graph"] for r in records)

        rc = main(["inspect", str(emit), "--format", "sweep", "--json"])
        assert rc == 0
        cells = json.loads(capsys.readouterr().out)
        assert len(cells) == 1
        assert cells[0]["jobs"] == 5
        assert cells[0]["p50_rounds"] >= 1.0
        assert summary["cells"][0]["p50_bits"] == cells[0]["p50_bits"]

    def test_experiments_emit_metrics(self, tmp_path, capsys):
        emit = tmp_path / "e5.jsonl"
        rc = main(["experiments", "E5", "--emit-metrics", str(emit)])
        assert rc == 0
        capsys.readouterr()
        records = [json.loads(ln) for ln in emit.read_text().splitlines()]
        assert records
        assert all(r["type"] == "job" for r in records)
        labels = {r["label"] for r in records}
        assert len(labels) >= 1


class TestFaultCli:
    def test_run_with_loss_reports_fault_counters(self, capsys):
        rc = main(["run", "--algorithm", "mis-luby", "--graph", "gnp:30,0.1",
                   "--weights", "unit", "--seed", "4", "--loss", "0.2",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults"] == "loss(0.2)"
        assert payload["fault_dropped_messages"] > 0
        # Under faults independence is reported, not asserted.
        assert payload["independent"] in (True, False)

    def test_run_with_crash_spec(self, capsys):
        rc = main(["run", "--algorithm", "mis-luby", "--graph", "cycle:12",
                   "--weights", "unit", "--seed", "0", "--crash", "2@1",
                   "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["crashed_nodes"] == 1

    def test_run_rejects_bad_fault_flag(self):
        with pytest.raises(SystemExit, match="bad fault flag"):
            main(["run", "--algorithm", "mis-luby", "--graph", "cycle:12",
                  "--weights", "unit", "--loss", "1.5"])

    def test_run_record_carries_fault_meta(self, tmp_path, capsys):
        path = tmp_path / "faulty.jsonl"
        rc = main(["run", "--algorithm", "thm2", "--graph", "gnp:25,0.12",
                   "--weights", "uniform:1,20", "--seed", "3",
                   "--loss", "0.15", "--record", str(path), "--json"])
        assert rc == 0
        capsys.readouterr()
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert records[0]["faults"] == "loss(0.15)"
        kinds = {r.get("kind") for r in records if r.get("type") == "event"}
        assert "fault_drop" in kinds

    def test_inspect_phases_shows_fault_columns(self, tmp_path, capsys):
        path = tmp_path / "faulty.jsonl"
        rc = main(["run", "--algorithm", "thm2", "--graph", "gnp:25,0.12",
                   "--weights", "uniform:1,20", "--seed", "3",
                   "--loss", "0.15", "--record", str(path), "--json"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["inspect", str(path), "--format", "phases"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lost" in out and "theorem2" in out

    def test_resilience_table_and_exit_code(self, capsys):
        rc = main(["resilience", "--algorithm", "mis-luby",
                   "--graph", "gnp:25,0.1", "--weights", "uniform:1,10",
                   "--loss", "0,0.1", "--trials", "2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loss(0.1)" in out and "retention" in out

    def test_resilience_emit_metrics_feeds_inspect_sweep(self, tmp_path,
                                                         capsys):
        emit = tmp_path / "res.jsonl"
        rc = main(["resilience", "--algorithm", "mis-luby",
                   "--graph", "gnp:25,0.1", "--weights", "uniform:1,10",
                   "--loss", "0,0.1", "--trials", "2", "--seed", "1",
                   "--emit-metrics", str(emit), "--json"])
        assert rc == 0
        cells_doc = json.loads(capsys.readouterr().out)
        assert [c["plan"] for c in cells_doc] == ["none", "loss(0.1)"]

        records = [json.loads(ln) for ln in emit.read_text().splitlines()]
        assert sum(r["type"] == "job" for r in records) == 4
        assert sum(r["type"] == "resilience_cell" for r in records) == 2

        # The per-job stream aggregates into one sweep cell per
        # (algorithm, fault plan): the plan is part of the identity.
        rc = main(["inspect", str(emit), "--format", "sweep", "--json"])
        assert rc == 0
        cells = json.loads(capsys.readouterr().out)
        names = {c["algorithm"] for c in cells}
        assert names == {"mis-luby", "mis-luby+loss(0.1)"}
        assert all(c["jobs"] == 2 for c in cells)

    def test_resilience_unknown_algorithm(self):
        with pytest.raises(SystemExit, match="unknown algorithms"):
            main(["resilience", "--algorithm", "nope", "--loss", "0,0.1",
                  "--trials", "1"])

    def test_inspect_truncated_jsonl_fails_gracefully(self, tmp_path):
        bad = tmp_path / "truncated.jsonl"
        bad.write_text('{"type": "job", "ok": true}\n{"type": "jo')
        with pytest.raises(SystemExit, match="malformed JSONL"):
            main(["inspect", str(bad), "--format", "sweep"])

    def test_inspect_non_object_record_fails_gracefully(self, tmp_path):
        bad = tmp_path / "list.jsonl"
        bad.write_text("[1, 2, 3]\n")
        with pytest.raises(SystemExit, match="expected a JSON object"):
            main(["inspect", str(bad), "--format", "sweep"])

    def test_run_reports_algorithm_failure_under_faults(self, capsys):
        # Delay makes thm2's phase-typed sparsify inbox mix payload
        # types; the CLI reports the failure instead of tracebacking.
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "thm2", "--graph", "gnp:80,0.06",
                  "--weights", "integers:50", "--seed", "5",
                  "--loss", "0.1", "--delay", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is True
        assert payload["faults"] == "loss(0.1)+delay(1)"
        assert "TypeError" in payload["error"]


class TestBench:
    def test_bench_tiny_measures_and_writes(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "bench.json"
        rc = main(["bench", "--tiny", "--repeats", "1",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "gnp60/thm8" in text and "gnp60/coloring" in text
        import json as _json

        doc = _json.loads(out.read_text())
        assert doc["matrix"] == "tiny"
        assert len(doc["cells"]) == 4

    def test_bench_gate_passes_against_itself(self, capsys, tmp_path):
        from repro.cli import main

        base = tmp_path / "base.json"
        assert main(["bench", "--tiny", "--repeats", "1",
                     "--out", str(base)]) == 0
        capsys.readouterr()
        rc = main(["bench", "--tiny", "--repeats", "1",
                   "--baseline", str(base), "--tolerance", "10"])
        assert rc == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_bench_missing_baseline_skips_gate(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(["bench", "--tiny", "--repeats", "1",
                   "--baseline", str(tmp_path / "nope.json")])
        assert rc == 0
        assert "gate skipped" in capsys.readouterr().out


class TestAlgorithmsCommand:
    def test_lists_registry_with_signatures(self, capsys):
        from repro.cli import main

        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "thm2(seed=None, policy=None, eps=0.5, **params)" in out
        assert "mis-luby(" in out

    def test_json_output_matches_registry(self, capsys):
        import json as _json

        from repro.cli import main
        from repro.registry import algorithm_registry

        assert main(["algorithms", "--json"]) == 0
        entries = _json.loads(capsys.readouterr().out)
        assert {e["name"] for e in entries} == set(algorithm_registry())
