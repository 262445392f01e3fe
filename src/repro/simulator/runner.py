"""The synchronous round scheduler.

``run`` executes one :class:`~repro.simulator.algorithm.NodeAlgorithm` per
node of a network until every node halts (or a round limit trips), through
an execution backend (:mod:`repro.simulator.backends`; columnar unless the
caller names one).  This module's ``_execute_per_node`` is the per-node
reference scheduler every backend is pinned to and falls back on.  Message
delivery is the standard synchronous model: everything queued in round ``r``
is delivered at the start of round ``r + 1``; bandwidth is checked per
message against the :class:`~repro.simulator.models.BandwidthPolicy`.

An optional fault plan (``run(..., faults=...)`` or an ambient
:func:`~repro.simulator.instrument.install_faults` block) relaxes the
reliable-delivery assumption: each queued message is routed through the
plan, which may drop it, defer it a few rounds (still round-synchronous),
or duplicate it, and nodes may fail-stop on a schedule.  The fault-free
path is byte-identical to a build without this feature — with
``faults=None`` no fault stream is ever created and the delivery loop is
untouched.  See :mod:`repro.faults` and ``docs/faults.md``.

Internally the scheduler is *slot-indexed*: node ids are mapped once to
positions ``0..n-1`` in sorted id order, and contexts/programs/inboxes
live in flat lists addressed by slot.  Per-receiver inbox dicts are
reused between rounds (cleared, never reallocated), each message's
``payload_bits`` is computed exactly once and threaded through delivery,
fault scheduling, and the end-of-run flush, and the sink-free fault-free
path runs a specialized collect loop with per-round (not per-message)
metric writes.  None of this is observable: iteration orders, outputs,
metrics, and event streams are byte-identical to the per-node-dict
scheduler this replaced — see ``docs/performance.md`` for the exact
invariants the slot layout must preserve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.exceptions import BandwidthExceeded, RoundLimitExceeded
from repro.graphs.weighted_graph import WeightedGraph
from repro.simulator.algorithm import NodeAlgorithm
from repro.simulator.context import NodeContext
from repro.simulator.codec import decode_payload, encode_payload
from repro.simulator.instrument import (RoundProfile, ambient_backend,
                                        ambient_fault_plan, gather_sinks)
from repro.simulator.message import payload_bits
from repro.simulator.metrics import BandwidthViolation, RunMetrics
from repro.simulator.models import BandwidthPolicy
from repro.simulator.network import Network
from repro.simulator.randomness import spawn_node_seeds
from repro.simulator.tracing import Trace

__all__ = ["RunResult", "run"]

AlgorithmFactory = Callable[[], NodeAlgorithm]

_EMPTY_INBOX: Dict[int, Any] = {}
_NO_PAYLOAD = object()  # sentinel for the one-slot payload_bits memo


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulation.

    Attributes:
        outputs: per-node halt outputs.
        metrics: round/message/bit accounting.
        n_bound: the knowledge bound that was handed to nodes.
    """

    outputs: Dict[int, Any]
    metrics: RunMetrics
    n_bound: int


def run(
    graph_or_network: Union[WeightedGraph, Network],
    algorithm_factory: AlgorithmFactory,
    *,
    policy: Optional[BandwidthPolicy] = None,
    seed: Union[int, None, np.random.SeedSequence] = None,
    max_rounds: int = 100_000,
    trace: Optional[Trace] = None,
    sink: Optional[Any] = None,
    codec_check: bool = False,
    faults: Optional[Any] = None,
    backend: Optional[Any] = None,
) -> RunResult:
    """Run a distributed algorithm to completion.

    Args:
        graph_or_network: the communication graph (wrapped into a
            :class:`Network` with the default ``n_bound`` if bare).
        algorithm_factory: zero-argument callable producing a fresh
            :class:`NodeAlgorithm` for each node.
        policy: bandwidth policy; defaults to strict CONGEST.
        seed: master seed; per-node independent streams are derived from it.
        max_rounds: safety limit; exceeding it raises
            :class:`~repro.exceptions.RoundLimitExceeded`.
        trace: optional :class:`Trace` to record sends and halts.
        sink: optional extra event sink (see
            :mod:`repro.simulator.instrument`); sinks installed ambiently
            with :func:`~repro.simulator.instrument.install_sink` receive
            events too.  Sinks exposing ``on_round_profile`` additionally
            get per-round compute/delivery wall-clock profiles.
        codec_check: round-trip every payload through the real binary
            codec (:mod:`repro.simulator.codec`) before delivery, so
            receivers see exactly what would arrive on the wire (lists
            become tuples, unsupported values fail loudly).  Off by
            default for speed; the conformance tests switch it on.
        faults: optional :class:`repro.faults.FaultPlan` routing every
            queued message through injected loss/delay/duplication and
            applying fail-stop crash schedules.  When ``None`` (the
            default) the innermost plan installed with
            :func:`~repro.simulator.instrument.install_faults` applies,
            if any; with no plan at all the run is byte-identical to the
            reliable model.  Fault randomness comes from a dedicated
            stream derived from ``seed``, so node programs draw exactly
            the same private coins either way.
        backend: execution backend — a name (``"per-node"`` or
            ``"columnar"``), an
            :class:`~repro.simulator.backends.ExecutionBackend` instance,
            or ``None`` to use the innermost backend installed with
            :func:`~repro.simulator.instrument.install_backend`, else
            :data:`~repro.simulator.backends.DEFAULT_BACKEND` (columnar).
            The columnar backend vectorizes whole rounds over the CSR
            structure for supported algorithms and produces
            byte-identical results; it defers to the per-node scheduler,
            counting the fallback with its reason, whenever exact
            per-event semantics are required (faults, sinks, codec
            checks, algorithms without a kernel).  ``"per-node"`` names
            the reference scheduler.

    Returns:
        A :class:`RunResult` with per-node outputs and metrics.
    """
    network = (
        graph_or_network
        if isinstance(graph_or_network, Network)
        else Network.of(graph_or_network)
    )
    from repro.obs.telemetry import record_backend_run
    from repro.simulator.backends import get_backend

    chosen = backend if backend is not None else ambient_backend()
    resolved = get_backend(chosen)
    record_backend_run(getattr(resolved, "name", str(chosen)))
    return resolved.execute(
        network,
        algorithm_factory,
        policy=policy,
        seed=seed,
        max_rounds=max_rounds,
        trace=trace,
        sink=sink,
        codec_check=codec_check,
        faults=faults,
    )


def _execute_per_node(
    network: Network,
    algorithm_factory: AlgorithmFactory,
    *,
    policy: Optional[BandwidthPolicy] = None,
    seed: Union[int, None, np.random.SeedSequence] = None,
    max_rounds: int = 100_000,
    trace: Optional[Trace] = None,
    sink: Optional[Any] = None,
    codec_check: bool = False,
    faults: Optional[Any] = None,
) -> RunResult:
    """The reference per-node scheduler (exact semantics for everything)."""
    graph = network.graph
    policy = policy or BandwidthPolicy.congest()
    budget = policy.budget_bits(network.n_bound)
    strict = policy.strict
    check_budget = budget >= 0

    # ---- slot layout: id <-> position in the sorted id order ---------- #
    nodes = graph.nodes  # memoized sorted tuple
    n = len(nodes)
    slot_of: Dict[int, int] = {v: s for s, v in enumerate(nodes)}
    n_bound = network.n_bound
    seed_children = spawn_node_seeds(seed, nodes)
    ctxs = [
        NodeContext(
            node_id=v,
            neighbors=graph.neighbors(v),
            weight=graph.weight(v),
            rng=seed_children[v],
            n_bound=n_bound,
            nbr_set=graph.neighbor_set(v),
        )
        for v in nodes
    ]
    programs = [algorithm_factory() for _ in range(n)]

    metrics = RunMetrics()
    active: set = set()  # slots of nodes that have not halted
    # Reliable-delivery buffers: one reused inbox dict per receiver slot,
    # plus the slots filled since the last delivery (clear only those).
    next_bufs = [{} for _ in range(n)]
    filled = []
    # Faulty-delivery schedule: delivery_round -> receiver id -> sender id
    # -> (payload, bits).  Only used when a fault session is open; the
    # fault-free path keeps the flat slot buffers above.
    deferred: Dict[int, Dict[int, Dict[int, Any]]] = {}

    plan = faults if faults is not None else ambient_fault_plan()
    if plan is not None:
        from repro.faults.plans import fault_generator
        session = plan.begin(fault_generator(seed))
    else:
        session = None

    sinks = gather_sinks(trace, sink)
    has_sinks = bool(sinks)
    profiled = tuple(s for s in sinks
                     if getattr(s, "on_round_profile", None) is not None)

    def schedule_faulty(round_index: int, v: int, to: int,
                        payload: Any, bits: int) -> None:
        """Route one queued message through the fault session.

        Draws the message's fate (loss / extra delay / duplicate copies)
        from the dedicated fault stream, charges injected copies, and
        schedules the survivors.  A copy addressed to a receiver that is
        down at its delivery round is lost (the schedule is static, so
        this is decidable at send time).  Two copies of the same
        (sender, receiver) pair landing in the same round collapse to the
        newest-sent payload, matching the one-slot-per-sender inbox.
        The message's ``bits`` ride along with the payload so drops of
        deferred copies never re-measure it.
        """
        fates = session.message_fate(round_index, v, to)
        if not fates:
            metrics.record_fault_drop(bits)
            if has_sinks:
                for s in sinks:
                    s.record(round_index, "fault_drop", v, (to, bits))
            return
        if codec_check:
            payload = decode_payload(encode_payload(payload))
        for k, delay in enumerate(fates):
            if k > 0:
                # An injected duplicate crosses the wire like any message.
                metrics.record_fault_duplicate(bits)
                if has_sinks:
                    for s in sinks:
                        s.record(round_index, "fault_dup", v, (to, bits))
            delivery_round = round_index + 1 + delay
            if session.down_at(to, delivery_round):
                metrics.record_fault_drop(bits)
                if has_sinks:
                    for s in sinks:
                        s.record(round_index, "fault_drop", v, (to, bits))
                continue
            if delay > 0:
                metrics.record_fault_delay()
                if has_sinks:
                    for s in sinks:
                        s.record(round_index, "fault_delay", v, (to, delay))
            if k == 0 and has_sinks:
                for s in sinks:
                    s.record(round_index, "send", v, (to, bits))
            deferred.setdefault(delivery_round, {}).setdefault(to, {})[v] = \
                (payload, bits)

    def collect_faulty(round_index: int, sender_slots) -> None:
        """Drain outboxes through the fault session (general path)."""
        for s in sender_slots:
            ctx = ctxs[s]
            outbox = ctx._outbox
            if not outbox:
                continue
            ctx._outbox = {}
            v = nodes[s]
            for to, payload in outbox.items():
                bits = payload_bits(payload)
                if check_budget and bits > budget:
                    if strict:
                        raise BandwidthExceeded(v, to, bits, budget, round_index)
                    metrics.violations.append(
                        BandwidthViolation(round_index, v, to, bits, budget)
                    )
                metrics.record_message(bits)
                if ctxs[slot_of[to]]._halted:
                    # Receiver halted this very round: the message was put
                    # on the wire (and charged above) but is never read.
                    metrics.record_drop(bits)
                    if has_sinks:
                        for s_ in sinks:
                            s_.record(round_index, "drop", v, (to, bits))
                else:
                    schedule_faulty(round_index, v, to, payload, bits)

    def collect(round_index: int, sender_slots) -> None:
        """Drain outboxes into next round's inboxes, charging bandwidth.

        Reliable-delivery fast path: only ``sender_slots`` (the nodes
        that executed this round) can have queued messages.  Accounting
        accumulates in locals and hits ``metrics`` once per round; a
        one-slot memo reuses the ``payload_bits`` of the previous
        message object, so a broadcast is measured once, not once per
        neighbour (the value is identical — it is the same object).
        """
        msgs = 0
        tbits = 0
        maxb = metrics.max_message_bits
        dmsgs = 0
        dbits = 0
        last_payload: Any = _NO_PAYLOAD
        last_bits = 0
        for s in sender_slots:
            ctx = ctxs[s]
            outbox = ctx._outbox
            if not outbox:
                continue
            ctx._outbox = {}
            v = nodes[s]
            for to, payload in outbox.items():
                if payload is last_payload:
                    bits = last_bits
                else:
                    bits = last_bits = payload_bits(payload)
                    last_payload = payload
                if check_budget and bits > budget:
                    if strict:
                        # Flush the accounting of everything already on
                        # the wire before aborting, exactly like the
                        # per-message writes did.
                        metrics.messages += msgs
                        metrics.total_bits += tbits
                        metrics.max_message_bits = maxb
                        metrics.dropped_messages += dmsgs
                        metrics.dropped_bits += dbits
                        raise BandwidthExceeded(v, to, bits, budget, round_index)
                    metrics.violations.append(
                        BandwidthViolation(round_index, v, to, bits, budget)
                    )
                msgs += 1
                tbits += bits
                if bits > maxb:
                    maxb = bits
                to_s = slot_of[to]
                if ctxs[to_s]._halted:
                    dmsgs += 1
                    dbits += bits
                    if has_sinks:
                        for s_ in sinks:
                            s_.record(round_index, "drop", v, (to, bits))
                else:
                    if has_sinks:
                        for s_ in sinks:
                            s_.record(round_index, "send", v, (to, bits))
                    if codec_check:
                        payload = decode_payload(encode_payload(payload))
                    buf = next_bufs[to_s]
                    if not buf:
                        filled.append(to_s)
                    buf[v] = payload
        metrics.messages += msgs
        metrics.total_bits += tbits
        metrics.max_message_bits = maxb
        if dmsgs:
            metrics.dropped_messages += dmsgs
            metrics.dropped_bits += dbits

    def profile(round_index: int, t_start: float, t_compute: float,
                msgs0: int, bits0: int, drops0: int, halts: int,
                executed: int) -> None:
        p = RoundProfile(
            round_index=round_index,
            compute_seconds=t_compute - t_start,
            delivery_seconds=time.perf_counter() - t_compute,
            messages=metrics.messages - msgs0,
            bits=metrics.total_bits - bits0,
            drops=metrics.dropped_messages - drops0,
            halts=halts,
            active_nodes=executed,
        )
        for s in profiled:
            s.on_round_profile(p)

    # Round 0: local initialisation.
    t_start = time.perf_counter() if profiled else 0.0
    halts_this_round = 0
    for s in range(n):
        ctx = ctxs[s]
        programs[s].on_start(ctx)
        if ctx._halted:
            halts_this_round += 1
            if has_sinks:
                for snk in sinks:
                    snk.record(0, "halt", nodes[s], ctx._output)
        else:
            active.add(s)
    t_compute = time.perf_counter() if profiled else 0.0
    if session is None:
        collect(0, range(n))
    else:
        collect_faulty(0, range(n))
    if profiled:
        profile(0, t_start, t_compute, 0, 0, 0, halts_this_round, n)

    round_index = 0
    while active:
        round_index += 1
        if round_index > max_rounds:
            raise RoundLimitExceeded(max_rounds, len(active))
        metrics.rounds = round_index
        if has_sinks:
            for snk in sinks:
                snk.record(round_index, "round", -1)
        msgs0, bits0, drops0 = (metrics.messages, metrics.total_bits,
                                metrics.dropped_messages)
        if session is None:
            # Fast path: deliver from the reused slot buffers.
            executed = sorted(active)
            t_start = time.perf_counter() if profiled else 0.0
            for s in executed:
                ctx = ctxs[s]
                ctx._round += 1
                programs[s].on_round(ctx, next_bufs[s] or _EMPTY_INBOX)
            # Every filled buffer was just read (receivers are always
            # active at delivery time); clear for the next collect.
            if filled:
                for s in filled:
                    next_bufs[s].clear()
                filled.clear()
            t_compute = time.perf_counter() if profiled else 0.0
            collect(round_index, executed)
        else:
            arrivals = deferred.pop(round_index, {})
            if session.has_crashes:
                for v in session.crashed_this_round(round_index):
                    s = slot_of.get(v)
                    if s is not None and not ctxs[s]._halted:
                        metrics.record_crash()
                        if has_sinks:
                            for snk in sinks:
                                snk.record(round_index, "crash", v)
                        if session.never_returns(v, round_index):
                            active.discard(s)
                for v in session.restarted_this_round(round_index):
                    s = slot_of.get(v)
                    if s is not None and not ctxs[s]._halted:
                        metrics.record_restart()
                        # Fast-forward the local round counter over the
                        # downtime so round_index stays consistent.
                        ctxs[s]._round = round_index - 1
                        if has_sinks:
                            for snk in sinks:
                                snk.record(round_index, "restart", v)
                executed = sorted(s for s in active
                                  if not session.down_at(nodes[s], round_index))
            else:
                executed = sorted(active)
            # A receiver may have halted while a delayed copy was in
            # flight; the copy arrives at a program that no longer exists.
            # The bits stored at scheduling time are charged verbatim.
            for to in sorted(arrivals):
                if ctxs[slot_of[to]]._halted:
                    for sender, (_payload, bits) in arrivals.pop(to).items():
                        metrics.record_fault_drop(bits)
                        if has_sinks:
                            for snk in sinks:
                                snk.record(round_index, "fault_drop", sender,
                                           (to, bits))
            t_start = time.perf_counter() if profiled else 0.0
            for s in executed:
                ctx = ctxs[s]
                ctx._round += 1
                entry = arrivals.get(nodes[s])
                if entry is None:
                    inbox = _EMPTY_INBOX
                else:
                    inbox = {sender: pb[0] for sender, pb in entry.items()}
                programs[s].on_round(ctx, inbox)
            t_compute = time.perf_counter() if profiled else 0.0
            collect_faulty(round_index, executed)
        halts_this_round = 0
        for s in executed:
            if ctxs[s]._halted:
                active.discard(s)
                halts_this_round += 1
                if has_sinks:
                    for snk in sinks:
                        snk.record(round_index, "halt", nodes[s],
                                   ctxs[s]._output)
        if profiled:
            profile(round_index, t_start, t_compute, msgs0, bits0, drops0,
                    halts_this_round, len(executed))

    if session is not None and deferred:
        # Copies still in flight when every node halted: charged on the
        # wire, never read.  Flush them as fault drops — at the bit sizes
        # recorded when they were scheduled — so the audit identity
        # total == delivered + dropped + fault_dropped holds.
        for delivery_round in sorted(deferred):
            for to in sorted(deferred[delivery_round]):
                for sender, (_payload, bits) in \
                        deferred[delivery_round][to].items():
                    metrics.record_fault_drop(bits)
                    if has_sinks:
                        for snk in sinks:
                            snk.record(delivery_round, "fault_drop", sender,
                                       (to, bits))

    outputs = {nodes[s]: ctxs[s]._output for s in range(n)}
    return RunResult(outputs=outputs, metrics=metrics, n_bound=network.n_bound)
