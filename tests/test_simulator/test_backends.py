"""The pluggable execution-backend layer.

Pins three things:

* selection — ``run(backend=...)``, ambient :func:`install_backend`,
  name normalization, custom backend objects, and the columnar default;
* equivalence — for every protocol with a fleet kernel, the columnar
  backend's outputs *and* metrics match the per-node reference exactly,
  including on empty / edgeless / isolated-node graphs;
* fallback — faults, event sinks, codec checks, unregistered programs,
  and kernel :class:`FleetFallback` all reach the per-node scheduler
  with unchanged results, each handover counted with its reason.

Every reference side names ``"per-node"``: with no backend given, the
columnar default would run on both sides of a comparison.
"""

import pytest

from repro.coloring.random_trial import RandomTrialColoring
from repro.core.good_nodes import GoodNodesProtocol
from repro.core.sparsify import SamplingProtocol
from repro.graphs import gnp
from repro.graphs.weighted_graph import WeightedGraph
from repro.graphs.weights import integer_weights
from repro.mis.deterministic import LocalMinimaMIS
from repro.mis.ghaffari import GhaffariMIS
from repro.mis.luby import LubyMIS
from repro.simulator.backends import (
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    PerNodeBackend,
    get_backend,
    normalize_backend_name,
)
from repro.simulator.instrument import ambient_backend, install_backend
from repro.simulator.models import BandwidthPolicy
from repro.simulator.runner import run
from repro.simulator.tracing import Trace


def _graph(n=30, p=0.15, seed=5):
    return integer_weights(gnp(n, p, seed=seed), 50, seed=seed + 1)


FACTORIES = [
    GoodNodesProtocol,
    SamplingProtocol,
    lambda: SamplingProtocol(lamb=1.5, uniform_only=True),
    LubyMIS,
    GhaffariMIS,
    LocalMinimaMIS,
    RandomTrialColoring,
]

GRAPHS = [
    WeightedGraph.empty(0),                    # no nodes at all
    WeightedGraph.empty(5),                    # edgeless
    _graph(1, 0.0, seed=1),                    # single node
    WeightedGraph.from_edges(
        [0, 3, 9], [(0, 3)]),                  # isolated node besides an edge
    _graph(),                                  # general gnp
]


def _signature(res):
    return (res.outputs, res.metrics.to_dict(), res.n_bound)


def _equivalent(graph, factory, seed=7, **kwargs):
    base = run(graph, factory, seed=seed, backend="per-node", **kwargs)
    col = run(graph, factory, seed=seed, backend="columnar", **kwargs)
    assert _signature(col) == _signature(base)
    return base, col


class TestSelection:
    def test_normalize_defaults_to_columnar(self):
        assert DEFAULT_BACKEND == "columnar"
        assert normalize_backend_name(None) == "columnar"
        assert normalize_backend_name("") == "columnar"
        assert normalize_backend_name("per-node") == "per-node"

    def test_normalize_known_names(self):
        for name in BACKEND_NAMES:
            assert normalize_backend_name(name) == name
        assert normalize_backend_name(" Columnar ") == "columnar"

    def test_normalize_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            normalize_backend_name("gpu")

    def test_normalize_accepts_instances(self):
        assert normalize_backend_name(PerNodeBackend()) == "per-node"

    def test_get_backend_caches_singletons(self):
        assert get_backend("columnar") is get_backend("columnar")
        assert get_backend("per-node") is get_backend("per-node")
        assert get_backend(None) is get_backend("columnar")
        assert get_backend("per-node").name == "per-node"

    def test_get_backend_passes_through_custom_objects(self):
        class Custom:
            name = "custom"

            def execute(self, *a, **k):  # pragma: no cover - never called
                raise AssertionError

        c = Custom()
        assert get_backend(c) is c

    def test_run_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run(_graph(6), LocalMinimaMIS, seed=0, backend="gpu")

    def test_install_backend_is_scoped(self):
        assert ambient_backend() is None
        with install_backend("columnar"):
            assert ambient_backend() == "columnar"
            with install_backend("per-node"):
                assert ambient_backend() == "per-node"
            assert ambient_backend() == "columnar"
        assert ambient_backend() is None

    def test_explicit_backend_beats_ambient(self):
        # A bespoke backend proves which path executed.
        calls = []

        class Probe:
            name = "probe"

            def execute(self, network, factory, **kwargs):
                calls.append(1)
                return PerNodeBackend().execute(network, factory, **kwargs)

        with install_backend("columnar"):
            run(_graph(8), LocalMinimaMIS, seed=0, backend=Probe())
        assert calls == [1]


class TestEquivalence:
    @pytest.mark.parametrize("fi", range(len(FACTORIES)))
    @pytest.mark.parametrize("gi", range(len(GRAPHS)))
    def test_outputs_and_metrics_match(self, fi, gi):
        _equivalent(GRAPHS[gi], FACTORIES[fi])

    @pytest.mark.parametrize("fi", range(len(FACTORIES)))
    def test_matches_across_seeds(self, fi):
        g = _graph(24, 0.2, seed=9)
        for seed in (0, 1, 123):
            _equivalent(g, FACTORIES[fi], seed=seed)

    def test_registry_algorithms_match_under_ambient_backend(self):
        from repro.registry import algorithm_registry

        g = _graph(40, 0.1, seed=3)
        for name, fn in sorted(algorithm_registry().items()):
            with install_backend("per-node"):
                base = fn(g, seed=11)
            with install_backend("columnar"):
                col = fn(g, seed=11)
            assert sorted(col.independent_set) == sorted(base.independent_set), name
            assert col.metrics.as_tuple() == base.metrics.as_tuple(), name


class TestFallback:
    def test_sinks_force_per_node(self):
        # Sinks need per-message events, which only the reference path
        # emits; the columnar backend must hand over, not go silent.
        g = _graph(12, 0.3, seed=2)
        t1, t2 = Trace(), Trace()
        run(g, LocalMinimaMIS, seed=4, trace=t1, backend="per-node")
        run(g, LocalMinimaMIS, seed=4, trace=t2, backend="columnar")
        assert [e.kind for e in t2.events] == [e.kind for e in t1.events]
        assert t2.events  # and there were events to see

    def test_faults_force_per_node(self):
        from repro.faults import MessageLoss

        g = _graph(14, 0.3, seed=6)
        base = run(g, LubyMIS, seed=4, faults=MessageLoss(0.5),
                   backend="per-node")
        col = run(g, LubyMIS, seed=4, faults=MessageLoss(0.5),
                  backend="columnar")
        assert _signature(col) == _signature(base)
        assert col.metrics.fault_dropped_messages > 0

    def test_codec_check_forces_per_node(self):
        g = _graph(10, 0.3, seed=8)
        _equivalent(g, GoodNodesProtocol, codec_check=True)

    def test_unregistered_program_falls_back(self):
        from repro.simulator.algorithm import NodeAlgorithm

        class Noop(NodeAlgorithm):
            def on_start(self, ctx):
                ctx.halt(output=True)

            def on_round(self, ctx, inbox):  # pragma: no cover
                ctx.halt(output=True)

        _equivalent(_graph(9, 0.2, seed=3), Noop)

    def test_tight_budget_falls_back_to_reference_raise(self):
        from repro.exceptions import BandwidthExceeded

        g = _graph(10, 0.4, seed=5)
        # factor=1 gives an 8-bit budget; Luby's (tag, value) pairs need
        # ~25 bits, so the kernel defers and the reference path raises.
        policy = BandwidthPolicy.congest(factor=1, strict=True)
        with pytest.raises(BandwidthExceeded):
            run(g, LubyMIS, seed=0, policy=policy, backend="columnar")


class TestFallbackReasons:
    """Every columnar→per-node handover is a first-class telemetry
    signal: counted per (algorithm, reason), never silent."""

    def _reasons(self, graph, algorithm, **run_kwargs):
        from repro.obs.telemetry import collect_run_telemetry

        with collect_run_telemetry() as col:
            run(graph, algorithm, backend="columnar", **run_kwargs)
        return col

    def test_fleet_fallback_carries_a_reason(self):
        from repro.fleet.base import FleetFallback

        assert FleetFallback().reason == "kernel"
        assert FleetFallback("why", reason="faults").reason == "faults"

    def test_sinks_reason(self):
        col = self._reasons(_graph(12, 0.3, seed=2), LocalMinimaMIS,
                            seed=4, trace=Trace())
        assert list(col.fallbacks) == [("LocalMinimaMIS", "sinks")]

    def test_faults_reason(self):
        from repro.faults import MessageLoss

        col = self._reasons(_graph(14, 0.3, seed=6), LubyMIS, seed=4,
                            faults=MessageLoss(0.5))
        assert list(col.fallbacks) == [("LubyMIS", "faults")]

    def test_codec_check_reason(self):
        col = self._reasons(_graph(10, 0.3, seed=8), GoodNodesProtocol,
                            seed=7, codec_check=True)
        assert list(col.fallbacks) == [("GoodNodesProtocol", "codec-check")]

    def test_no_kernel_reason_includes_detail(self):
        from repro.simulator.algorithm import NodeAlgorithm

        class Noop(NodeAlgorithm):
            def on_start(self, ctx):
                ctx.halt(output=True)

            def on_round(self, ctx, inbox):  # pragma: no cover
                ctx.halt(output=True)

        col = self._reasons(_graph(9, 0.2, seed=3), Noop, seed=7)
        assert list(col.fallbacks) == [("Noop", "no-kernel")]

    def test_over_budget_reason(self):
        policy = BandwidthPolicy.congest(factor=1, strict=False)
        col = self._reasons(_graph(10, 0.4, seed=5), LubyMIS, seed=0,
                            policy=policy)
        assert ("LubyMIS", "over-budget") in col.fallbacks

    def test_successful_kernel_records_no_fallback_and_times_kernel(self):
        col = self._reasons(_graph(), GhaffariMIS, seed=7)
        assert col.fallbacks == {}
        assert col.kernels["GhaffariMIS"]["runs"] == 1
        assert col.kernels["GhaffariMIS"]["seconds"] > 0
        assert col.backend_runs == {"columnar": 1}

    def test_per_node_backend_counts_runs_without_fallbacks(self):
        from repro.obs.telemetry import collect_run_telemetry

        with collect_run_telemetry() as col:
            run(_graph(), GhaffariMIS, seed=7, backend="per-node")
        assert col.backend_runs == {"per-node": 1}
        assert col.fallbacks == {}
        assert col.kernels == {}

    def test_unnamed_backend_runs_the_columnar_default(self):
        from repro.faults import MessageLoss
        from repro.obs.telemetry import collect_run_telemetry

        with collect_run_telemetry() as col:
            run(_graph(), GhaffariMIS, seed=7)
            # A fault plan still reaches the reference scheduler, and the
            # handover is counted with its reason.
            run(_graph(14, 0.3, seed=6), LubyMIS, seed=4,
                faults=MessageLoss(0.5))
        assert col.backend_runs == {"columnar": 2}
        assert col.kernels["GhaffariMIS"]["runs"] == 1
        assert col.fallbacks == {("LubyMIS", "faults"): 1}


class TestBatchAndCache:
    # Computed at the commit before the backend left the disk key:
    # per-node keys must never move, so existing caches stay warm.
    PER_NODE_JOB_KEY = (
        "0e4385e854dd0a1f92da56c8f97586341f73ef675faa7569f803c53148941a09")

    def test_job_cache_key_ignores_backend(self):
        from repro.simulator.batch import BatchJob, job_cache_key

        g = _graph(10, 0.2, seed=1)
        for backend in (None, "per-node", "columnar"):
            job = BatchJob(g, "mis-det", seed=3, backend=backend)
            assert job_cache_key(job, 3, None) == self.PER_NODE_JOB_KEY

    def test_cross_backend_requests_share_one_cache_entry(self, tmp_path):
        import os

        from repro.api import SolveReport
        from repro.simulator.batch import BatchJob, run_job

        g = _graph(16, 0.2, seed=2)
        cache = str(tmp_path)
        first = run_job(BatchJob(g, "mis-det", seed=5, backend="per-node"),
                        cache_dir=cache)
        assert not first.cached
        assert first.algorithm == "mis-det@per-node"
        # Same computation through the other backend: a hit on the
        # per-node entry, relabelled for the job that asked ...
        col = run_job(BatchJob(g, "mis-det", seed=5, backend="columnar"),
                      cache_dir=cache)
        assert col.cached
        assert col.algorithm == "mis-det"
        assert col.signature()[2:] == first.signature()[2:]
        # ... with the same report bytes, from one entry on disk.
        reports = [SolveReport.from_outcome(o, graph=g, algorithm="mis-det",
                                            params={}).to_json()
                   for o in (first, col)]
        assert reports[0] == reports[1]
        assert len(os.listdir(cache)) == 1

    def test_backend_name_reaches_algorithm_label(self):
        from repro.simulator.batch import BatchJob

        # Only a backend other than the default tags the label.
        job = BatchJob(_graph(6), "mis-det", backend="per-node")
        assert job.algorithm_name == "mis-det@per-node"
        for backend in (None, "columnar"):
            job = BatchJob(_graph(6), "mis-det", backend=backend)
            assert job.algorithm_name == "mis-det"

    def test_solve_reports_byte_identical_across_backends(self):
        from repro.api import solve

        g = _graph(30, 0.12, seed=4)
        a = solve(g, "thm8", seed=9, backend="per-node")
        b = solve(g, "thm8", seed=9)
        assert a.to_json() == b.to_json()
