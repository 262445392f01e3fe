"""Fleet kernels for the hot protocol families.

One kernel per registered node-program class, each reproducing the
per-node scheduler byte for byte (outputs, metrics, RNG draw sequences,
float summation order).  The semantics each kernel must honour:

* Round 0 runs ``on_start`` on every node; later rounds run ``on_round``
  on the still-active set, in ascending slot order.
* Halts take effect at *collect* time: a message addressed to a node
  that halted in the same round is charged, then dropped.
* The round limit trips before ``metrics.rounds`` advances, with the
  pre-round active count.
* Payload sizes follow :func:`repro.simulator.message.payload_bits`:
  a tuple costs ``8 + Σ (2 + field)``, an int field ``1 + max(1, bl)``,
  a float 64, a bool 1.
"""

from __future__ import annotations

import numpy as np

from repro.core.good_nodes import GoodNodesProtocol
from repro.core.sparsify import SamplingProtocol
from repro.coloring.random_trial import RandomTrialColoring
from repro.fleet.base import (MAX_DENSE_CELLS, FleetFallback, FleetRun,
                              bit_lengths, register_fleet_kernel)
from repro.mis.deterministic import LocalMinimaMIS
from repro.mis.ghaffari import GhaffariMIS
from repro.mis.luby import LubyMIS
from repro.simulator.runner import RunResult

__all__ = []  # kernels are reached through the registry, not imported


def _pair_bits(values: np.ndarray) -> np.ndarray:
    """``payload_bits`` of ``(small_tag, v)`` int pairs: 15 + max(1, bl(v))."""
    return 15 + np.maximum(1, bit_lengths(values))


def _deg_weight_bits(degrees: np.ndarray) -> np.ndarray:
    """``payload_bits`` of ``(degree, weight)``: 77 + max(1, bl(deg))."""
    return 77 + np.maximum(1, bit_lengths(degrees))


_IN_BITS = 12  # payload_bits of the one-field announcement tuple (1,)


# ---------------------------------------------------------------------- #
# Theorem 8: good-nodes selection
# ---------------------------------------------------------------------- #

@register_fleet_kernel(GoodNodesProtocol)
def good_nodes_kernel(probe, network, *, policy, seed, max_rounds) -> RunResult:
    fr = FleetRun(network, policy=policy, seed=seed, max_rounds=max_rounds)
    n = fr.n
    if n == 0:
        return fr.result({})
    deg, W = fr.degrees, fr.weights
    bits0 = _deg_weight_bits(deg)
    fr.require_budget(int(bits0.max()))

    # Round 0: everyone broadcasts (degree, weight); nobody halts.
    fr.charge_broadcast(np.arange(n), bits0)

    # Round 1: inclusive max degree, inclusive weight sum, halt(good).
    fr.begin_round(n)
    counts, starts = fr.full_rows()
    delta = deg.copy()
    fr.row_reduce(counts, starts, deg[fr.indices], np.maximum, delta)
    s = np.zeros(n, dtype=np.float64)
    fr.seq_sum(counts, starts, W[fr.indices], s)
    s = s + W  # own weight folded last, as the node program does
    good = W >= s / (2.0 * (delta + 1))

    outputs = {v: bool(g) for v, g in zip(fr.ids, good)}
    return fr.result(outputs)


# ---------------------------------------------------------------------- #
# Theorem 9: sampling / sparsification
# ---------------------------------------------------------------------- #

@register_fleet_kernel(SamplingProtocol)
def sampling_kernel(probe, network, *, policy, seed, max_rounds) -> RunResult:
    import math

    fr = FleetRun(network, policy=policy, seed=seed, max_rounds=max_rounds)
    n = fr.n
    if n == 0:
        return fr.result({})
    lamb = probe._lamb
    uniform_only = probe._uniform_only
    deg, W = fr.degrees, fr.weights
    iso = deg == 0
    noniso = np.flatnonzero(~iso)
    out_joined = np.zeros(n, dtype=bool)
    out_p = np.zeros(n, dtype=np.float64)
    out_joined[iso] = True
    out_p[iso] = 1.0
    if len(noniso):
        bits0 = _deg_weight_bits(deg[noniso])
        fr.require_budget(max(int(bits0.max()), 64))
        # Round 0: isolated nodes halt((True, 1.0)); the rest broadcast.
        fr.halted |= iso
        fr.charge_broadcast(noniso, bits0)

        # Round 1: inclusive max degree + weighted degree, broadcast wdeg.
        fr.begin_round(len(noniso))
        counts, starts = fr.full_rows()
        delta = deg.copy()
        fr.row_reduce(counts, starts, deg[fr.indices], np.maximum, delta)
        wdeg = np.zeros(n, dtype=np.float64)
        fr.seq_sum(counts, starts, W[fr.indices], wdeg)
        fr.charge_broadcast(noniso, 64)

        # Round 2: wmax over the inclusive neighbourhood, sample, halt.
        fr.begin_round(len(noniso))
        wmax = wdeg.copy()
        fr.row_reduce(counts, starts, wdeg[fr.indices], np.maximum, wmax)
        c = lamb * math.log(max(2, fr.n_bound))
        dt = np.ones(n, dtype=np.float64)  # non-isolated ⇒ δ ≥ own deg ≥ 1
        np.divide(1.0, delta, out=dt, where=delta > 0)
        if uniform_only:
            wt = np.zeros(n, dtype=np.float64)
        else:
            wt = np.zeros(n, dtype=np.float64)
            np.divide(W, wmax, out=wt, where=wmax > 0.0)
        p = np.minimum(c * (dt + wt), 1.0)
        out_joined[noniso] = fr.streams.random(noniso) < p[noniso]
        out_p[noniso] = p[noniso]
        fr.halted[noniso] = True

    outputs = {
        v: (bool(out_joined[s]), float(out_p[s]))
        for s, v in enumerate(fr.ids)
    }
    return fr.result(outputs)


# ---------------------------------------------------------------------- #
# Luby-style random-priority MIS
# ---------------------------------------------------------------------- #

@register_fleet_kernel(LubyMIS)
def luby_kernel(probe, network, *, policy, seed, max_rounds) -> RunResult:
    fr = FleetRun(network, policy=policy, seed=seed, max_rounds=max_rounds)
    n = fr.n
    if n == 0:
        return fr.result({})
    deg = fr.degrees
    hi = max(2, fr.n_bound) ** 3
    fr.require_budget(15 + max(1, (hi - 1).bit_length()))
    slots = np.arange(n, dtype=np.int64)
    in_mis = deg == 0  # isolated nodes join immediately
    active = deg > 0
    fr.halted |= ~active
    vals = np.zeros(n, dtype=np.int64)

    def draw_and_charge() -> None:
        act = np.flatnonzero(active)
        vals[act] = fr.streams.integers(act, hi)
        fr.charge_broadcast(act, _pair_bits(vals[act]))

    draw_and_charge()  # round 0
    winners = np.zeros(n, dtype=bool)
    while active.any():
        r = fr.begin_round(int(active.sum()))
        if r % 2 == 1:
            # Decide: win iff (value, id) beats every active neighbour's.
            senders, counts, starts = fr.compact(active)
            vmax = np.full(n, -1, dtype=np.int64)
            fr.row_reduce(counts, starts, vals[senders], np.maximum, vmax)
            tie = vals[senders] == np.repeat(vmax, counts)
            smax = np.full(n, -1, dtype=np.int64)
            fr.row_reduce(counts, starts, np.where(tie, senders, -1),
                          np.maximum, smax)
            win = active & ((vals > vmax) | ((vals == vmax) & (slots > smax)))
            in_mis |= win
            winners = win
            fr.halted |= win
            active &= ~win
            fr.charge_broadcast(np.flatnonzero(win), _IN_BITS)
        else:
            # Value round: neighbours of last round's winners halt out,
            # survivors redraw and broadcast.
            losers = active & (fr.row_counts(winners) > 0)
            fr.halted |= losers
            active &= ~losers
            draw_and_charge()

    outputs = {v: bool(in_mis[s]) for s, v in enumerate(fr.ids)}
    return fr.result(outputs)


# ---------------------------------------------------------------------- #
# Ghaffari's desire-level MIS
# ---------------------------------------------------------------------- #

@register_fleet_kernel(GhaffariMIS)
def ghaffari_kernel(probe, network, *, policy, seed, max_rounds) -> RunResult:
    fr = FleetRun(network, policy=policy, seed=seed, max_rounds=max_rounds)
    n = fr.n
    if n == 0:
        return fr.result({})
    deg = fr.degrees
    fr.require_budget(24)  # (_MARK, bool, exp ≤ 60) is at most 24 bits
    in_mis = deg == 0
    active = deg > 0
    fr.halted |= ~active
    exps = np.ones(n, dtype=np.int64)
    marked = np.zeros(n, dtype=bool)

    def mark_and_charge() -> None:
        act = np.flatnonzero(active)
        # ldexp(1, -e) is 2.0 ** -e exactly (e ≤ 60).
        marked[act] = fr.streams.random(act) < np.ldexp(1.0, -exps[act])
        fr.charge_broadcast(act, 18 + np.maximum(1, bit_lengths(exps[act])))

    mark_and_charge()  # round 0
    winners = np.zeros(n, dtype=bool)
    while active.any():
        r = fr.begin_round(int(active.sum()))
        if r % 2 == 1:
            # Decide: marked with no marked active neighbour joins;
            # everyone else updates the desire level from the effective
            # degree over *pre-update* exponents (winners included).
            nbr_marked = fr.row_counts(active & marked) > 0
            win = active & marked & ~nbr_marked
            senders, counts, starts = fr.compact(active)
            eff = np.zeros(n, dtype=np.float64)
            fr.seq_sum(counts, starts, np.ldexp(1.0, -exps[senders]), eff)
            upd = active & ~win
            exps[upd] = np.where(eff[upd] >= 2.0,
                                 np.minimum(exps[upd] + 1, 60),
                                 np.maximum(exps[upd] - 1, 1))
            in_mis |= win
            winners = win
            fr.halted |= win
            active &= ~win
            fr.charge_broadcast(np.flatnonzero(win), _IN_BITS)
        else:
            losers = active & (fr.row_counts(winners) > 0)
            fr.halted |= losers
            active &= ~losers
            mark_and_charge()

    outputs = {v: bool(in_mis[s]) for s, v in enumerate(fr.ids)}
    return fr.result(outputs)


# ---------------------------------------------------------------------- #
# Deterministic local-minima MIS
# ---------------------------------------------------------------------- #

@register_fleet_kernel(LocalMinimaMIS)
def local_minima_kernel(probe, network, *, policy, seed, max_rounds) -> RunResult:
    fr = FleetRun(network, policy=policy, seed=seed, max_rounds=max_rounds)
    n = fr.n
    if n == 0:
        return fr.result({})
    deg = fr.degrees
    id_bits = _pair_bits(fr.ids_np)
    if n:
        fr.require_budget(int(id_bits.max()))
    slots = np.arange(n, dtype=np.int64)
    in_mis = deg == 0
    active = deg > 0
    fr.halted |= ~active

    fr.charge_broadcast(np.flatnonzero(active), id_bits[active])  # round 0
    winners = np.zeros(n, dtype=bool)
    while active.any():
        r = fr.begin_round(int(active.sum()))
        if r % 2 == 1:
            # Decide: ids ascend with slots, so "id smaller than every
            # active neighbour's" is a slot comparison.
            senders, counts, starts = fr.compact(active)
            smin = np.full(n, n, dtype=np.int64)
            fr.row_reduce(counts, starts, senders, np.minimum, smin)
            win = active & (slots < smin)
            in_mis |= win
            winners = win
            fr.halted |= win
            active &= ~win
            fr.charge_broadcast(np.flatnonzero(win), _IN_BITS)
        else:
            losers = active & (fr.row_counts(winners) > 0)
            fr.halted |= losers
            active &= ~losers
            fr.charge_broadcast(np.flatnonzero(active), id_bits[active])

    outputs = {v: bool(in_mis[s]) for s, v in enumerate(fr.ids)}
    return fr.result(outputs)


# ---------------------------------------------------------------------- #
# Random-trial (deg+1)-list colouring
# ---------------------------------------------------------------------- #

@register_fleet_kernel(RandomTrialColoring)
def random_trial_kernel(probe, network, *, policy, seed, max_rounds) -> RunResult:
    fr = FleetRun(network, policy=policy, seed=seed, max_rounds=max_rounds)
    n = fr.n
    if n == 0:
        return fr.result({})
    deg = fr.degrees
    width = int(deg.max()) + 1
    if n * width > MAX_DENSE_CELLS:
        raise FleetFallback(
            f"dense forbidden-colour state {n}x{width} exceeds the gate",
            reason="dense-state",
        )
    fr.require_budget(15 + max(1, (width - 1).bit_length()))
    colors = np.zeros(n, dtype=np.int64)
    active = deg > 0
    fr.halted |= ~active  # isolated nodes halt(0) in round 0
    forbidden = np.zeros((n, width), dtype=bool)
    col_range = np.arange(width, dtype=np.int64)
    row_of_entry = np.repeat(np.arange(n, dtype=np.int64), deg)
    proposals = np.zeros(n, dtype=np.int64)

    def propose_and_charge() -> None:
        act = np.flatnonzero(active)
        if len(act) == 0:
            return
        allowed = ~forbidden[act] & (col_range <= deg[act, None])
        sizes = allowed.sum(axis=1)
        # Same generator call as palette[rng.integers(0, len(palette))].
        picks = fr.streams.integers(act, sizes)
        cum = np.cumsum(allowed, axis=1)
        proposals[act] = np.argmax(cum == (picks + 1)[:, None], axis=1)
        fr.charge_broadcast(act, _pair_bits(proposals[act]))

    propose_and_charge()  # round 0
    finalized = np.zeros(n, dtype=bool)
    while active.any():
        r = fr.begin_round(int(active.sum()))
        if r % 2 == 1:
            # Decide: no active neighbour proposed the same colour.
            senders, counts, starts = fr.compact(active)
            eq = proposals[senders] == np.repeat(proposals, counts)
            prefix = np.zeros(len(eq) + 1, dtype=np.int64)
            np.cumsum(eq, out=prefix[1:])
            conflict = (prefix[starts + counts] - prefix[starts]) > 0
            win = active & ~conflict
            colors[win] = proposals[win]
            finalized = win
            # Adjacent nodes can finalise (different colours) in the same
            # round: fold the halts in before charging so their mutual
            # announcements count as drops, like the scheduler's collect.
            fr.halted |= win
            active &= ~win
            fr.charge_broadcast(np.flatnonzero(win), _pair_bits(colors[win]))
        else:
            # Propose: absorb last round's finalised colours, redraw.
            sel = finalized[fr.indices] & active[row_of_entry]
            if sel.any():
                forbidden[row_of_entry[sel], colors[fr.indices[sel]]] = True
            propose_and_charge()

    outputs = {v: int(colors[s]) for s, v in enumerate(fr.ids)}
    return fr.result(outputs)
