"""Runner-level fault injection: delivery semantics and accounting."""

import json
from typing import Any, Mapping

from repro.faults import (CrashSchedule, MessageDelay, MessageDuplication,
                          MessageLoss, composite)
from repro.graphs import cycle, path, star
from repro.simulator import (NodeAlgorithm, NodeContext, Trace, install_faults,
                             run)

FAULT_KINDS = {"fault_drop", "fault_delay", "fault_dup", "crash", "restart"}
LEGACY_METRIC_KEYS = {"rounds", "messages", "total_bits", "max_message_bits",
                      "dropped_messages", "dropped_bits", "violations"}


class Collector(NodeAlgorithm):
    """Gathers every (round, sender, payload) it receives for ``rounds``."""

    def __init__(self, rounds: int):
        self._target = rounds
        self.seen = []

    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast(("hello", ctx.node_id))

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        for sender, payload in sorted(inbox.items()):
            self.seen.append((ctx.round_index, sender, payload))
        if ctx.round_index >= self._target:
            ctx.halt(tuple(self.seen))
        else:
            ctx.broadcast(("hello", ctx.node_id))


class CountRounds(NodeAlgorithm):
    def __init__(self, rounds: int):
        self._target = rounds

    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast(0)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        if ctx.round_index >= self._target:
            ctx.halt(ctx.round_index)
        else:
            ctx.broadcast(0)


class EchoNeighborSum(NodeAlgorithm):
    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast(ctx.node_id)

    def on_round(self, ctx: NodeContext, inbox: Mapping[int, Any]) -> None:
        ctx.halt(sum(inbox.values()))


def _identity_holds(metrics) -> bool:
    return (metrics.total_bits == metrics.delivered_bits
            + metrics.dropped_bits + metrics.fault_dropped_bits)


class TestFaultFreeByteIdentity:
    """Acceptance: with faults=None everything matches pre-fault behavior."""

    def test_metrics_dict_has_exactly_legacy_keys(self):
        res = run(cycle(6), lambda: CountRounds(4), seed=3)
        assert set(res.metrics.to_dict()) == LEGACY_METRIC_KEYS

    def test_report_json_fixed_seed_golden(self):
        # A frozen report of the exact JSON a pre-fault build produced
        # for this (graph, algorithm, seed); any byte drift here is a
        # regression of the faults=None path.
        res = run(path(4), EchoNeighborSum, seed=11)
        report = json.dumps(
            {"outputs": res.outputs, "metrics": res.metrics.to_dict()},
            sort_keys=True,
        )
        assert report == (
            '{"metrics": {"dropped_bits": 0, "dropped_messages": 0, '
            '"max_message_bits": 3, "messages": 6, "rounds": 1, '
            '"total_bits": 15, "violations": []}, '
            '"outputs": {"0": 1, "1": 2, "2": 4, "3": 2}}'
        )

    # One algorithm per theorem family, frozen as sha256 over the full
    # fixed-seed report (chosen set + metrics + weight).  The hashes were
    # captured on the pre-CSR, pre-slot-scheduler build: the hot-path
    # rewrite must keep every one of these runs byte-identical.
    FAMILY_GOLDENS = {
        "thm1": "341a47364a7f3cf3e0a262c62d8ba3a561f1bfc9c84c2275b1196eed4e8b7fe5",
        "thm2": "7e4452f5e2ee51645bf5775b0970f4661afe4b11aed7540d838677aa4862c6b3",
        "thm3": "3f43412805e5c3917f93a5d95372f70198c9702dd56038ccaa93b57f79097f05",
        "thm8": "ce2bf693babfb50ba8a3ef2b5a60d980ab3020175f9e7575d767c55af5fe869a",
        "thm9": "f55d9812839c892ff433365234630bdd8c1514d3e3215e0dbca278690392ab21",
    }

    def _assert_family_goldens(self):
        import hashlib

        from repro.graphs import gnp
        from repro.graphs.weights import integer_weights
        from repro.registry import algorithm_registry

        def strip_wall(obj):
            # The span tree carries nondeterministic wall-clock timings;
            # everything else in the report must be frozen.
            if isinstance(obj, dict):
                return {k: strip_wall(v) for k, v in obj.items()
                        if k != "wall_seconds"}
            if isinstance(obj, list):
                return [strip_wall(x) for x in obj]
            return obj

        g = integer_weights(gnp(60, 0.1, seed=5), 100, seed=6)
        registry = algorithm_registry()
        for name, want in self.FAMILY_GOLDENS.items():
            res = registry[name](g, seed=42)
            doc = {
                "independent_set": sorted(int(v) for v in res.independent_set),
                "metrics": strip_wall(res.metrics.to_dict()),
                "weight": g.total_weight(res.independent_set),
            }
            blob = json.dumps(doc, sort_keys=True).encode()
            got = hashlib.sha256(blob).hexdigest()
            assert got == want, f"{name} report drifted: {got}"

    def test_theorem_family_reports_fixed_seed_golden(self):
        # The per-node reference scheduler, named: with no backend given
        # the columnar default would run instead.
        from repro.simulator.instrument import install_backend

        with install_backend("per-node"):
            self._assert_family_goldens()

    def test_theorem_family_goldens_hold_under_columnar_backend(self):
        # The columnar backend must reproduce the per-node scheduler's
        # reports *byte for byte* — same hashes, not merely same sets.
        from repro.simulator.instrument import install_backend

        with install_backend("columnar"):
            self._assert_family_goldens()

    def test_theorem_family_goldens_hold_with_telemetry_enabled(self):
        # Telemetry is pure provenance: an installed run collector must
        # not perturb a single canonical byte, on either backend — and it
        # must actually have observed the runs (non-empty collection).
        from repro.obs.telemetry import collect_run_telemetry
        from repro.simulator.instrument import install_backend

        with install_backend("per-node"):
            with collect_run_telemetry() as per_node:
                self._assert_family_goldens()
        assert set(per_node.backend_runs) == {"per-node"}
        assert not per_node.fallbacks

        # No backend named: every run goes to the columnar default.
        with collect_run_telemetry() as default:
            self._assert_family_goldens()
        assert set(default.backend_runs) == {"columnar"}
        assert default.kernels  # kernel timings were recorded

    def test_no_fault_events_without_plan(self):
        trace = Trace()
        run(cycle(5), lambda: CountRounds(3), seed=0, trace=trace)
        assert not any(e.kind in FAULT_KINDS for e in trace.events)

    def test_zero_rate_plan_matches_no_plan(self):
        # p=0 plans short-circuit without drawing from the fault stream,
        # so even the RNG-cursor side effects match the fault-free run.
        base = run(cycle(6), lambda: CountRounds(4), seed=5)
        plan = composite(MessageLoss(0.0), MessageDelay(0),
                         MessageDuplication(0.0))
        faulted = run(cycle(6), lambda: CountRounds(4), seed=5, faults=plan)
        assert faulted.outputs == base.outputs
        assert faulted.metrics.as_tuple() == base.metrics.as_tuple()
        assert faulted.metrics.to_dict() == base.metrics.to_dict()


class TestSingleMeasurementPerMessage:
    """Each charged message is measured by ``payload_bits`` at most once.

    The pre-overhaul runner re-measured payloads on the fault-scheduling
    and deferred-flush paths (up to three times per delayed message);
    the scheduler now threads the measured bits alongside the payload.
    The broadcast memo can make the call count *lower* than the message
    count (one measurement per distinct payload object), hence <=.
    """

    def _count_calls(self, monkeypatch):
        from repro.simulator import runner as runner_mod

        real = runner_mod.payload_bits
        calls = {"n": 0}

        def counting(payload):
            calls["n"] += 1
            return real(payload)

        monkeypatch.setattr(runner_mod, "payload_bits", counting)
        return calls

    def test_fault_free_path(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        res = run(cycle(8), lambda: Collector(4), seed=9)
        assert res.metrics.messages > 0
        assert calls["n"] <= res.metrics.messages

    def test_delay_faults_never_remeasure(self, monkeypatch):
        # Delays exercise the deferred schedule: the end-of-run flush and
        # halted-receiver sweeps charge the *stored* bits.
        calls = self._count_calls(monkeypatch)
        res = run(cycle(8), lambda: Collector(4), seed=9,
                  faults=composite(MessageDelay(3), MessageLoss(0.2)))
        assert res.metrics.messages > 0
        assert calls["n"] <= res.metrics.messages
        assert _identity_holds(res.metrics)


class TestMessageLoss:
    def test_full_loss_silences_the_network(self):
        res = run(path(3), EchoNeighborSum, seed=0,
                  faults=MessageLoss(1.0))
        assert res.outputs == {0: 0, 1: 0, 2: 0}
        m = res.metrics
        assert m.fault_dropped_messages == m.messages
        assert m.delivered_bits == 0
        assert _identity_holds(m)

    def test_partial_loss_deterministic(self):
        plan = MessageLoss(0.3)
        a = run(cycle(8), lambda: CountRounds(5), seed=9, faults=plan)
        b = run(cycle(8), lambda: CountRounds(5), seed=9, faults=plan)
        assert a.metrics.as_tuple() == b.metrics.as_tuple()
        assert a.outputs == b.outputs
        assert a.metrics.fault_dropped_messages > 0
        assert _identity_holds(a.metrics)

    def test_fault_drop_events_recorded(self):
        trace = Trace()
        res = run(cycle(8), lambda: CountRounds(5), seed=9,
                  faults=MessageLoss(0.3), trace=trace)
        drops = trace.events_of("fault_drop")
        assert len(drops) == res.metrics.fault_dropped_messages
        assert sum(e.detail[1] for e in drops) == res.metrics.fault_dropped_bits

    def test_node_coins_unperturbed_by_faults(self):
        # Same seed, with and without loss: node private draws must
        # match, so any output difference comes from delivery alone.
        class DrawAndTell(NodeAlgorithm):
            def on_start(self, ctx):
                self.coin = int(ctx.rng.integers(0, 2**31))
                ctx.broadcast(0)

            def on_round(self, ctx, inbox):
                ctx.halt(self.coin)

        base = run(cycle(5), DrawAndTell, seed=21)
        lossy = run(cycle(5), DrawAndTell, seed=21, faults=MessageLoss(0.5))
        assert base.outputs == lossy.outputs


class TestMessageDelay:
    def test_delayed_copy_arrives_later_intact(self):
        plan = MessageDelay(2)
        res = run(path(2), lambda: Collector(6), seed=4, faults=plan)
        m = res.metrics
        assert m.fault_delayed_messages > 0
        assert m.fault_duplicated_messages == 0
        # Every delivered payload is well-formed, just possibly late.
        for out in res.outputs.values():
            for round_index, sender, payload in out:
                assert payload[0] == "hello"
                assert payload[1] == sender
        assert _identity_holds(m)

    def test_delay_events_carry_the_offset(self):
        trace = Trace()
        run(path(2), lambda: Collector(6), seed=4,
            faults=MessageDelay(2), trace=trace)
        for e in trace.events_of("fault_delay"):
            assert 1 <= e.detail[1] <= 2

    def test_copies_in_flight_at_halt_are_flushed_as_drops(self):
        # EchoNeighborSum halts at round 1; a delayed copy scheduled for
        # round >= 2 can never be read and must be accounted as lost.
        res = run(star(4), EchoNeighborSum, seed=2, faults=MessageDelay(4))
        assert _identity_holds(res.metrics)


class TestMessageDuplication:
    def test_duplicate_arrives_one_round_later(self):
        # A one-shot sender: node broadcasts once at start, then only
        # listens, so the duplicate's slot is never overwritten by a
        # fresher message and the receiver sees the payload twice.
        class OneShot(NodeAlgorithm):
            def on_start(self, ctx):
                ctx.broadcast(("hello", ctx.node_id))
                self.seen = []

            def on_round(self, ctx, inbox):
                for sender, payload in sorted(inbox.items()):
                    self.seen.append((ctx.round_index, sender, payload))
                if ctx.round_index >= 4:
                    ctx.halt(tuple(self.seen))

        res = run(path(2), OneShot, seed=0, faults=MessageDuplication(1.0))
        m = res.metrics
        assert m.fault_duplicated_messages == 2   # one per original message
        assert m.messages == 2 * m.fault_duplicated_messages
        assert _identity_holds(m)
        for out in res.outputs.values():
            assert [(r, p) for r, _s, p in out] == [
                (1, ("hello", 1 - out[0][1])), (2, ("hello", 1 - out[0][1])),
            ] or len(out) == 2

    def test_duplication_charged_on_the_wire(self):
        base = run(cycle(6), lambda: CountRounds(4), seed=3)
        duped = run(cycle(6), lambda: CountRounds(4), seed=3,
                    faults=MessageDuplication(1.0))
        assert duped.metrics.messages == 2 * base.metrics.messages
        assert _identity_holds(duped.metrics)


class TestCrashes:
    def test_fail_stop_node_never_outputs(self):
        plan = CrashSchedule(crashes={1: 2})
        res = run(cycle(5), lambda: CountRounds(6), seed=0, faults=plan)
        assert res.outputs[1] is None
        assert all(res.outputs[v] == 6 for v in (0, 2, 3, 4))
        assert res.metrics.crashed_nodes == 1
        assert res.metrics.restarted_nodes == 0

    def test_messages_to_down_node_are_fault_drops(self):
        trace = Trace()
        res = run(cycle(5), lambda: CountRounds(6), seed=0,
                  faults=CrashSchedule(crashes={1: 2}), trace=trace)
        assert res.metrics.fault_dropped_messages > 0
        assert trace.events_of("crash")[0].node == 1
        assert _identity_holds(res.metrics)

    def test_restart_resumes_with_state(self):
        # Node 1 pauses rounds 2-3 and resumes at 4: it misses inboxes
        # while down but still halts with its program state intact.
        plan = CrashSchedule(crashes={1: 2}, restarts={1: 4})
        res = run(cycle(5), lambda: CountRounds(6), seed=0, faults=plan)
        assert res.outputs[1] == 6
        assert res.metrics.crashed_nodes == 1
        assert res.metrics.restarted_nodes == 1

    def test_crash_events_once_per_node(self):
        trace = Trace()
        run(cycle(5), lambda: CountRounds(6), seed=0,
            faults=CrashSchedule(crashes={1: 2}, restarts={1: 4}),
            trace=trace)
        assert len(trace.events_of("crash")) == 1
        assert len(trace.events_of("restart")) == 1

    def test_crash_of_unknown_node_is_ignored(self):
        plan = CrashSchedule(crashes={99: 2})
        res = run(cycle(4), lambda: CountRounds(3), seed=0, faults=plan)
        assert res.metrics.crashed_nodes == 0


class TestAmbientInstallation:
    def test_install_faults_reaches_run(self):
        with install_faults(MessageLoss(1.0)):
            res = run(path(3), EchoNeighborSum, seed=0)
        assert res.metrics.fault_dropped_messages == res.metrics.messages

    def test_explicit_argument_wins_over_ambient(self):
        with install_faults(MessageLoss(1.0)):
            res = run(path(3), EchoNeighborSum, seed=0,
                      faults=MessageLoss(0.0))
        assert res.metrics.fault_dropped_messages == 0

    def test_registry_empties_after_block(self):
        with install_faults(MessageLoss(1.0)):
            pass
        res = run(path(3), EchoNeighborSum, seed=0)
        assert res.metrics.fault_dropped_messages == 0


class TestSerializationRoundTrip:
    def test_faulted_metrics_dict_round_trip(self):
        from repro.simulator import RunMetrics

        res = run(cycle(8), lambda: CountRounds(5), seed=9,
                  faults=composite(MessageLoss(0.2), MessageDuplication(0.1)))
        doc = res.metrics.to_dict()
        assert doc["fault_dropped_messages"] > 0
        back = RunMetrics.from_dict(json.loads(json.dumps(doc)))
        assert back.as_tuple() == res.metrics.as_tuple()
