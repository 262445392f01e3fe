"""Shared machinery for fleet kernels.

The helpers here encode the per-node scheduler's observable semantics in
array form so every kernel reproduces them bit for bit:

* **Charging** — a broadcast by node ``v`` is one message per neighbour,
  all of the same size; ``max_message_bits`` only sees senders with
  ``deg > 0`` (an isolated broadcast leaves an empty outbox).  Messages
  to receivers that halted *by collect time of the same round* are
  charged, then counted as drops.
* **Summation order** — Python programs fold their inbox left-to-right in
  ascending sender-slot order (inboxes are filled in sorted sender-slot
  order).  :meth:`FleetRun.seq_sum` replays exactly that order of float
  adds per row, so sums match to the last ulp.  Order-insensitive
  reductions (max/min) go through ``ufunc.reduceat``.
* **Randomness** — each node owns an independent ``PCG64`` stream spawned
  from the master seed exactly as
  :func:`~repro.simulator.randomness.spawn_node_seeds` does; kernels draw
  through :attr:`FleetRun.streams`, one column of all N streams, making
  the *same generator calls in the same per-node order* as the node
  program, so draws are identical.

Integer bit lengths are vectorized with ``np.frexp`` (exact below 2⁵³,
with a Python fallback above) to reproduce
:func:`~repro.simulator.message.payload_bits` for the payload shapes the
kernels emit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.exceptions import RoundLimitExceeded
from repro.simulator.metrics import RunMetrics
from repro.simulator.models import BandwidthPolicy
from repro.simulator.network import Network
from repro.simulator.randomness import NodeStreams, spawn_node_seeds
from repro.simulator.runner import RunResult

__all__ = [
    "FleetFallback",
    "FleetRun",
    "bit_lengths",
    "int_field_bits",
    "register_fleet_kernel",
    "kernel_for",
]

# Nodes × palette-width bool cells the colouring kernel may allocate
# before deferring to the per-node scheduler instead.
MAX_DENSE_CELLS = 200_000_000


class FleetFallback(Exception):
    """Raised by a kernel that cannot guarantee byte-identical semantics
    for this input (over-budget payload possible, dense state too large).
    The columnar backend catches it and reruns per-node.

    ``reason`` is a short machine-readable code (``"over-budget"``,
    ``"dense-state"``, ...) that telemetry counts fallbacks by — the
    human-readable detail stays in the exception message."""

    def __init__(self, detail: str = "", reason: str = "kernel") -> None:
        super().__init__(detail)
        self.reason = reason


_KERNELS: Dict[type, Callable[..., RunResult]] = {}


def register_fleet_kernel(cls: Type) -> Callable:
    """Class decorator target: register ``fn`` as the kernel for exact
    instances of ``cls`` (subclasses intentionally do not inherit — their
    overridden behaviour would silently be ignored)."""

    def deco(fn: Callable[..., RunResult]) -> Callable[..., RunResult]:
        _KERNELS[cls] = fn
        return fn

    return deco


def kernel_for(program: Any) -> Optional[Callable[..., RunResult]]:
    """The registered kernel for ``type(program)``, or ``None``."""
    return _KERNELS.get(type(program))


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """``int.bit_length()`` of each value (of ``abs(v)`` for negatives,
    matching Python ints)."""
    a = np.asarray(values, dtype=np.int64)
    if a.size == 0:
        return np.zeros(0, dtype=np.int64)
    mag = np.abs(a)
    # np.abs(int64 min) overflows negative; >= 2**53 floats round.
    if int(mag.min()) < 0 or int(mag.max()) >= 2 ** 53:
        return np.fromiter((abs(int(v)).bit_length() for v in a),
                           dtype=np.int64, count=a.size)
    exp = np.frexp(mag.astype(np.float64))[1]
    return exp.astype(np.int64)


def int_field_bits(values: np.ndarray) -> np.ndarray:
    """``payload_bits`` of a bare int field: ``1 + max(1, bit_length)``."""
    return 1 + np.maximum(1, bit_lengths(values))


class FleetRun:
    """Per-run state and accounting shared by every kernel."""

    def __init__(
        self,
        network: Network,
        *,
        policy: Optional[BandwidthPolicy],
        seed: Union[int, None, np.random.SeedSequence],
        max_rounds: int,
    ) -> None:
        graph = network.graph
        csr = graph.csr
        self.ids: List[int] = csr._id_list
        self.ids_np = csr.ids
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.degrees = csr.degrees
        self.weights = csr.weights
        self.n = csr.n
        self.m = int(len(csr.indices))
        self.n_bound = network.n_bound
        self.max_rounds = max_rounds
        policy = policy or BandwidthPolicy.congest()
        self.budget = policy.budget_bits(self.n_bound)
        self.check_budget = self.budget >= 0
        self.metrics = RunMetrics()
        self.halted = np.zeros(self.n, dtype=bool)
        self.round_index = 0
        # One root for gen() and streams alike (a None seed draws its
        # OS entropy once, here).
        self._seed = (seed if isinstance(seed, np.random.SeedSequence)
                      else np.random.SeedSequence(seed))
        self._nodes = graph.nodes
        self._seed_children: Optional[Dict[int, np.random.SeedSequence]] = None
        self._gens: List[Optional[np.random.Generator]] = [None] * self.n
        self._streams: Optional[NodeStreams] = None
        # Scratch for the (m+1)-long prefix sums row_counts/compact
        # rebuild every round.  Safe to reuse: slot 0 is never written
        # after this zero-fill, cumsum overwrites [1:] fully each call,
        # and both callers only return fancy-indexed *copies* of it.
        self._prefix_scratch = np.zeros(self.m + 1, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # randomness
    # ------------------------------------------------------------------ #

    @property
    def streams(self) -> NodeStreams:
        """Every node's private stream as one column (slot ``i`` draws
        what :meth:`gen` ``(i)`` would).  Built on the first draw, so
        RNG-free kernels never pay for it."""
        streams = self._streams
        if streams is None:
            try:
                streams = self._streams = NodeStreams(self._seed, self.n)
            except (OverflowError, TypeError) as exc:
                # A seed the column does not mirror: per-node draws it.
                raise FleetFallback(str(exc), reason="rng") from None
        return streams

    def gen(self, slot: int) -> np.random.Generator:
        """Node ``slot``'s private stream as a numpy Generator (identical
        construction to :attr:`NodeContext.rng`: built on first use), the
        reference :attr:`streams` is checked against.  The whole spawn is
        deferred until the first call."""
        g = self._gens[slot]
        if g is None:
            if self._seed_children is None:
                self._seed_children = spawn_node_seeds(self._seed, self._nodes)
            child = self._seed_children[self.ids[slot]]
            g = self._gens[slot] = np.random.Generator(np.random.PCG64(child))
        return g

    # ------------------------------------------------------------------ #
    # round / budget bookkeeping
    # ------------------------------------------------------------------ #

    def begin_round(self, active_count: int) -> int:
        """Advance to the next round exactly like the scheduler loop:
        the limit trips *before* ``metrics.rounds`` moves."""
        self.round_index += 1
        if self.round_index > self.max_rounds:
            raise RoundLimitExceeded(self.max_rounds, active_count)
        self.metrics.rounds = self.round_index
        return self.round_index

    def require_budget(self, max_bits: int) -> None:
        """Defer to per-node if any message *could* exceed the bandwidth
        budget — the reference path owns strict raises and audit-mode
        violation records."""
        if self.check_budget and max_bits > self.budget:
            raise FleetFallback(
                f"payload up to {max_bits} bits may exceed budget {self.budget}",
                reason="over-budget",
            )

    # ------------------------------------------------------------------ #
    # row-wise reductions over the CSR structure
    # ------------------------------------------------------------------ #

    def row_counts(self, mask: np.ndarray) -> np.ndarray:
        """Per row: how many neighbour entries fall in ``mask``."""
        prefix = self._prefix_scratch
        np.cumsum(mask[self.indices], out=prefix[1:])
        return prefix[self.indptr[1:]] - prefix[self.indptr[:-1]]

    def compact(self, sender_mask: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compact the adjacency to entries whose *sender* (neighbour) is
        in ``sender_mask``: ``(senders, counts, starts)`` where row ``r``'s
        surviving senders are ``senders[starts[r]:starts[r]+counts[r]]``,
        in ascending slot order (CSR rows are sorted — the same order the
        per-node inbox dict is filled in)."""
        entry = sender_mask[self.indices]
        senders = self.indices[entry]
        prefix = self._prefix_scratch
        np.cumsum(entry, out=prefix[1:])
        counts = prefix[self.indptr[1:]] - prefix[self.indptr[:-1]]
        starts = prefix[self.indptr[:-1]]
        return senders, counts, starts

    def full_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(counts, starts)`` for the uncompacted adjacency."""
        return self.degrees, self.indptr[:-1]

    def seq_sum(self, counts: np.ndarray, starts: np.ndarray,
                values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Left-to-right per-row float sum, accumulated into ``out``.

        Replays Python's ``sum(inbox.values())`` exactly: the k-th
        neighbour value is added k-th, so rounding matches the per-node
        fold bit for bit.  Work is O(m) gathered adds in at most
        ``max(counts)`` numpy calls (rows sorted by length, longest
        first, so pass ``k`` touches only rows still alive)."""
        if values.size == 0:
            return out
        kmax = int(counts.max())
        if kmax == 0:
            return out
        order = np.argsort(-counts, kind="stable")
        below = np.cumsum(np.bincount(counts, minlength=kmax + 1))
        starts_ord = starts[order]
        nrows = len(counts)
        for k in range(kmax):
            t = nrows - int(below[k])
            if t <= 0:
                break
            rows = order[:t]
            out[rows] += values[starts_ord[:t] + k]
        return out

    def row_reduce(self, counts: np.ndarray, starts: np.ndarray,
                   values: np.ndarray, ufunc: np.ufunc,
                   out: np.ndarray) -> np.ndarray:
        """Order-insensitive per-row reduction combined into ``out``.

        Non-empty rows form contiguous segments of the compacted value
        array, so one ``reduceat`` over their start offsets covers them
        all; empty rows keep their ``out`` initial value."""
        nz = counts > 0
        if not nz.any():
            return out
        red = ufunc.reduceat(values, starts[nz])
        out[nz] = ufunc(out[nz], red)
        return out

    # ------------------------------------------------------------------ #
    # traffic accounting
    # ------------------------------------------------------------------ #

    def charge_broadcast(self, senders: np.ndarray,
                         bits: Union[int, np.ndarray]) -> None:
        """Charge one broadcast per sender slot (``deg`` messages of
        ``bits`` each), then count copies to already-halted receivers as
        drops.  Call *after* folding this round's halts into
        :attr:`halted` — the scheduler collects once every node of the
        round has executed."""
        if len(senders) == 0:
            return
        deg = self.degrees[senders]
        total_msgs = int(deg.sum())
        if total_msgs == 0:
            return
        m = self.metrics
        m.messages += total_msgs
        if isinstance(bits, np.ndarray):
            m.total_bits += int((deg * bits).sum())
            nz = bits[deg > 0]
            maxb = int(nz.max())
        else:
            m.total_bits += total_msgs * int(bits)
            maxb = int(bits)
        if maxb > m.max_message_bits:
            m.max_message_bits = maxb
        if self.halted.any():
            hn = self.row_counts(self.halted)[senders]
            dm = int(hn.sum())
            if dm:
                m.dropped_messages += dm
                m.dropped_bits += int((hn * bits).sum())

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def result(self, outputs: Dict[int, Any]) -> RunResult:
        return RunResult(outputs=outputs, metrics=self.metrics,
                         n_bound=self.n_bound)
