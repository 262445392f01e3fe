"""Tests for the batch-execution engine (simulator/batch.py)."""

import json
import os
import sys
import threading

import pytest

from repro.core import assert_independent
from repro.graphs import gnp, star, uniform_weights
from repro.simulator import (
    BatchJob,
    batch_run,
    derive_job_seeds,
)
from repro.registry import algorithm_registry
from repro.graphs.store import atomic_write
from repro.simulator.batch import _cache_load, _cache_store, job_cache_key
from repro.simulator.models import BandwidthPolicy


def _fail_on_even_seed(graph, seed=None, **params):
    """Module-level (hence picklable) algorithm that fails half the time."""
    if seed % 2 == 0:
        raise RuntimeError(f"planted failure for seed {seed}")
    from repro.core import boppana_is

    return boppana_is(graph, seed=seed)


@pytest.fixture(scope="module")
def graph():
    return uniform_weights(gnp(50, 0.08, seed=3), 1, 20, seed=4)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_job_seeds(7, 16)
        assert a == derive_job_seeds(7, 16)
        assert len(set(a)) == 16

    def test_prefix_stable(self):
        # Job i's seed does not depend on how many jobs follow it.
        assert derive_job_seeds(7, 16)[:4] == derive_job_seeds(7, 4)

    def test_explicit_seed_wins(self, graph):
        res = batch_run([BatchJob(graph, "ranking", seed=123)], master_seed=0)
        assert res.outcomes[0].seed == 123


class TestDeterminism:
    def test_parallel_matches_serial(self, graph):
        jobs = [BatchJob(graph, "ranking") for _ in range(8)]
        serial = batch_run(jobs, master_seed=42, n_jobs=1)
        parallel = batch_run(jobs, master_seed=42, n_jobs=4)
        assert serial.signature() == parallel.signature()
        assert serial.total_bits == parallel.total_bits
        assert serial.mean_rounds == parallel.mean_rounds

    def test_outputs_are_valid_solutions(self, graph):
        res = batch_run([BatchJob(graph, "ranking") for _ in range(4)],
                        master_seed=1, n_jobs=2)
        for outcome in res.outcomes:
            assert outcome.ok
            assert_independent(graph, set(outcome.independent_set))
            assert outcome.weight == pytest.approx(
                graph.total_weight(outcome.independent_set)
            )

    def test_master_seed_changes_results(self, graph):
        jobs = [BatchJob(graph, "ranking") for _ in range(6)]
        a = batch_run(jobs, master_seed=1)
        b = batch_run(jobs, master_seed=2)
        assert [o.seed for o in a.outcomes] != [o.seed for o in b.outcomes]


class TestFailureCapture:
    def test_one_crash_does_not_kill_the_sweep(self, graph):
        jobs = [BatchJob(graph, _fail_on_even_seed, seed=s, label=f"s{s}")
                for s in (1, 2, 3, 4)]
        res = batch_run(jobs, n_jobs=2)
        assert res.jobs == 4
        assert len(res.failures) == 2
        assert len(res.completed) == 2
        failed = {o.seed for o in res.failures}
        assert failed == {2, 4}
        assert "planted failure" in res.failures[0].error
        assert res.failures[0].label in ("s2", "s4")

    def test_unknown_algorithm_is_captured(self, graph):
        res = batch_run([BatchJob(graph, "no-such-algorithm")])
        assert not res.outcomes[0].ok
        assert "no-such-algorithm" in res.outcomes[0].error

    def test_summary_lists_errors(self, graph):
        res = batch_run([BatchJob(graph, _fail_on_even_seed, seed=2)])
        summary = res.summary()
        assert summary["failed"] == 1
        assert summary["errors"][0]["seed"] == 2
        json.dumps(summary)  # must be JSON-clean for the CLI


class TestCache:
    def test_warm_cache_skips_completed_jobs(self, graph, tmp_path):
        jobs = [BatchJob(graph, "ranking") for _ in range(5)]
        cache = str(tmp_path / "cache")
        cold = batch_run(jobs, master_seed=9, cache_dir=cache)
        assert cold.cached_jobs == 0
        warm = batch_run(jobs, master_seed=9, cache_dir=cache)
        assert warm.cached_jobs == 5
        assert warm.signature() == cold.signature()

    def test_cache_key_separates_seeds_and_policies(self, graph):
        job = BatchJob(graph, "ranking")
        assert job_cache_key(job, 1, None) != job_cache_key(job, 2, None)
        assert (job_cache_key(job, 1, None)
                != job_cache_key(job, 1, BandwidthPolicy.local()))

    def test_cache_key_separates_graphs(self, tmp_path):
        a = uniform_weights(star(6), 1, 5, seed=1)
        b = a.with_weights({v: a.weight(v) + 1 for v in a.nodes})
        job_a, job_b = BatchJob(a, "ranking"), BatchJob(b, "ranking")
        assert job_cache_key(job_a, 3, None) != job_cache_key(job_b, 3, None)

    def test_failures_are_not_cached(self, graph, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = [BatchJob(graph, _fail_on_even_seed, seed=2)]
        batch_run(jobs, cache_dir=cache)
        rerun = batch_run(jobs, cache_dir=cache)
        assert rerun.cached_jobs == 0  # failed job was recomputed
        assert not rerun.outcomes[0].ok

    def test_corrupt_entry_is_recomputed(self, graph, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = [BatchJob(graph, "ranking", seed=5)]
        first = batch_run(jobs, cache_dir=cache)
        entries = os.listdir(cache)
        assert len(entries) == 1
        with open(os.path.join(cache, entries[0]), "w") as fh:
            fh.write("{ not json")
        again = batch_run(jobs, cache_dir=cache)
        assert again.cached_jobs == 0
        assert again.signature() == first.signature()


class TestAggregates:
    def test_result_statistics(self, graph):
        res = batch_run([BatchJob(graph, "ranking") for _ in range(3)],
                        master_seed=5)
        rounds = [o.metrics.rounds for o in res.outcomes]
        assert res.mean_rounds == pytest.approx(sum(rounds) / 3)
        assert res.max_rounds == max(rounds)
        assert res.total_bits == sum(o.metrics.total_bits for o in res.outcomes)
        merged = res.metrics_parallel()
        assert merged.rounds == max(rounds)      # sweep runs side by side
        assert merged.total_bits == res.total_bits

    def test_registry_covers_cli_algorithms(self):
        from repro.cli import _algorithms

        assert set(algorithm_registry()) == set(_algorithms())


class TestObservability:
    def test_span_trees_ship_back_from_workers(self, graph):
        from repro.obs import check_span

        jobs = [BatchJob(graph, "thm2", params={"eps": 0.5})
                for _ in range(2)]
        res = batch_run(jobs, master_seed=1, n_jobs=2)
        for o in res.outcomes:
            assert o.metrics.span is not None
            assert o.metrics.span.name == "theorem2"
            assert o.metrics.span.rounds == o.metrics.rounds
            check_span(o.metrics.span)

    def test_span_survives_the_disk_cache(self, graph, tmp_path):
        jobs = [BatchJob(graph, "thm2", params={"eps": 0.5})]
        cache = str(tmp_path / "cache")
        cold = batch_run(jobs, master_seed=2, cache_dir=cache)
        warm = batch_run(jobs, master_seed=2, cache_dir=cache)
        assert warm.outcomes[0].cached
        assert warm.outcomes[0].metrics.span == cold.outcomes[0].metrics.span

    def test_summary_reports_percentile_cells(self, graph):
        res = batch_run([BatchJob(graph, "ranking") for _ in range(5)],
                        master_seed=3)
        cells = res.summary()["cells"]
        assert len(cells) == 1
        cell = cells[0]
        assert cell["algorithm"] == "ranking"
        assert cell["jobs"] == cell["ok"] == 5
        assert cell["p50_rounds"] <= cell["p95_rounds"]
        assert cell["p50_seconds"] > 0.0

    def test_outcome_emitter_receives_graph_identity(self, graph):
        from repro.simulator.instrument import install_outcome_emitter

        seen = []
        with install_outcome_emitter(seen.append):
            batch_run([BatchJob(graph, "ranking") for _ in range(3)],
                      master_seed=4)
        assert len(seen) == 3
        assert [d["index"] for d in seen] == [0, 1, 2]
        for doc in seen:
            assert doc["type"] == "job"
            assert doc["graph"]["fingerprint"] == graph.fingerprint()
            assert doc["graph"]["n"] == graph.n
            assert doc["metrics"]["rounds"] >= 1

    def test_no_emission_without_emitter(self, graph):
        # Plain runs must not pay for (or crash on) emission plumbing.
        res = batch_run([BatchJob(graph, "ranking")], master_seed=5)
        assert res.outcomes[0].ok


class TestGraphRefJobs:
    """BatchJob.graph may be a GraphRef: workers attach the shared
    store entry instead of unpickling the whole graph per job."""

    def test_ref_jobs_match_graph_jobs(self, graph, tmp_path):
        from repro.graphs.store import GraphStore

        with GraphStore(tmp_path / "graphs") as store:
            ref = store.put(graph)
            by_graph = batch_run(
                [BatchJob(graph, "ranking") for _ in range(4)],
                master_seed=5)
            by_ref = batch_run(
                [BatchJob(ref, "ranking") for _ in range(4)],
                master_seed=5)
            for a, b in zip(by_graph.outcomes, by_ref.outcomes):
                da, db = a.to_doc(), b.to_doc()
                # The ref path adds a graph_attach stage; everything
                # else — the report proper — must be byte-identical.
                (da.get("stages") or {}).pop("graph_attach", None)
                (db.get("stages") or {}).pop("graph_attach", None)
                da.pop("seconds", None), db.pop("seconds", None)
                da["metrics"].pop("span", None)
                db["metrics"].pop("span", None)
                assert json.dumps(da, sort_keys=True) == json.dumps(
                    db, sort_keys=True)

    def test_ref_jobs_share_cache_keys_with_graph_jobs(self, graph,
                                                       tmp_path):
        from repro.graphs.store import GraphStore

        with GraphStore(tmp_path / "graphs") as store:
            ref = store.put(graph)
            assert (job_cache_key(BatchJob(graph, "ranking"), 3, None)
                    == job_cache_key(BatchJob(ref, "ranking"), 3, None))

    def test_ref_jobs_across_processes(self, graph, tmp_path):
        from repro.graphs.store import GraphStore

        with GraphStore(tmp_path / "graphs") as store:
            ref = store.put(graph)
            serial = batch_run([BatchJob(ref, "ranking")
                                for _ in range(4)], master_seed=7, n_jobs=1)
            parallel = batch_run([BatchJob(ref, "ranking")
                                  for _ in range(4)], master_seed=7,
                                 n_jobs=2)
            assert ([sorted(o.independent_set) for o in serial.outcomes]
                    == [sorted(o.independent_set)
                        for o in parallel.outcomes])


class TestConcurrentWriters:
    """Threads of one process storing the same key (in-process fleet
    workers share a cache dir and a graph store dir) must each write
    through their own temp file."""

    THREADS, TRIALS = 8, 20

    def _hammer(self, write):
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def writer():
            barrier.wait(timeout=30)
            for _ in range(self.TRIALS):
                try:
                    write()
                except Exception as exc:  # noqa: BLE001 — collected
                    errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer)
                       for _ in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_cache_store_same_key(self, graph, tmp_path):
        outcome = batch_run([BatchJob(graph, "ranking")],
                            master_seed=5).outcomes[0]
        key = "ab" * 32
        cache = str(tmp_path)
        self._hammer(lambda: _cache_store(cache, key, outcome))
        loaded = _cache_load(cache, key, 0)
        assert loaded is not None
        assert loaded.signature() == outcome.signature()
        # One disk entry per key: the JSON file and nothing beside it.
        assert os.listdir(cache) == [f"{key}.json"]

    def test_atomic_write_same_path(self, tmp_path):
        path = tmp_path / "entry.rwg"
        data = bytes(range(256)) * 64
        self._hammer(lambda: atomic_write(path, data))
        assert path.read_bytes() == data
        assert os.listdir(tmp_path) == ["entry.rwg"]
