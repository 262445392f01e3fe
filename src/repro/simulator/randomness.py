"""Per-node randomness streams.

Distributed algorithms assume each node flips *independent private* coins.
We derive one ``numpy`` Generator per node from a single master seed with
``SeedSequence.spawn``, which guarantees statistical independence between
streams and bit-for-bit reproducibility of every run.

:class:`NodeStreams` is the same family of streams as one column: the
state of all N ``Generator(PCG64(child))`` objects held in uint64
arrays, built and advanced with whole-array integer operations.  Every
draw is bit-identical to the per-node Generator's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

__all__ = ["NodeStreams", "seed_sequence", "spawn_node_rngs",
           "spawn_node_seeds", "derive_seed"]

SeedLike = Union[int, None, np.random.SeedSequence]


def seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """``seed`` as a SeedSequence the caller does not share.

    A SeedSequence argument is copied, so spawning from the result never
    moves the caller's ``n_children_spawned``: a seed is a value, and
    the same object gives the same streams every time it is passed.
    Every entry point that spawns from a caller's seed goes through here.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned)
    return np.random.SeedSequence(seed)


def spawn_node_seeds(seed: SeedLike, node_ids: Sequence[int]) -> Dict[int, np.random.SeedSequence]:
    """One child :class:`~numpy.random.SeedSequence` per node, keyed by id.

    The mapping is by *position in the sorted id list*, so the same
    ``(seed, node set)`` pair always produces the same per-node streams
    regardless of input order.  The runner hands these to
    :class:`~repro.simulator.context.NodeContext`, which only pays for
    Generator construction if the node actually draws randomness.
    A SeedSequence ``seed`` is left unchanged (see :func:`seed_sequence`).
    """
    ordered = sorted(node_ids)
    return dict(zip(ordered, seed_sequence(seed).spawn(len(ordered))))


def spawn_node_rngs(seed: SeedLike, node_ids: Sequence[int]) -> Dict[int, np.random.Generator]:
    """One independent Generator per node, keyed by node id.

    Same streams as :func:`spawn_node_seeds` fed through
    ``np.random.default_rng`` (``Generator(PCG64(child))`` is the same
    construction, spelled without the dispatch overhead).
    """
    return {
        v: np.random.Generator(np.random.PCG64(child))
        for v, child in spawn_node_seeds(seed, node_ids).items()
    }


def derive_seed(seed: SeedLike, index: int) -> np.random.SeedSequence:
    """A child SeedSequence for sub-phase ``index`` of a composed algorithm.

    Phase-based algorithms (boosting, the arboricity peeling) run many
    sub-simulations; deriving each phase's seed from the master seed keeps
    the whole composition reproducible from one integer.  A SeedSequence
    ``seed`` is left unchanged, so ``derive_seed(ss, i)`` is the same
    child however often it is called.
    """
    return seed_sequence(seed).spawn(index + 1)[index]


# --------------------------------------------------------------------- #
# the column: N PCG64 streams as uint64 arrays
# --------------------------------------------------------------------- #

_M32 = 0xFFFFFFFF

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier as (hi, lo) words.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)

_U32 = np.uint64(_M32)
_S11 = np.uint64(11)
_S32 = np.uint64(32)
_S58 = np.uint64(58)
_S63 = np.uint64(63)
_ONE = np.uint64(1)
_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)
_TWO_32 = np.uint64(1 << 32)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def _words(x: Any) -> List[int]:
    """Entropy as little-endian uint32 words, the way SeedSequence reads
    it: an int is split into 32-bit words (0 is one word), a sequence is
    the concatenation of its items' words.  Raises :class:`TypeError`
    for a string, which numpy versions read differently."""
    if isinstance(x, str):
        raise TypeError(f"string entropy {x!r} is not mirrored")
    if isinstance(x, (int, np.integer)):
        x = int(x)
        out = [x & _M32]
        x >>= 32
        while x:
            out.append(x & _M32)
            x >>= 32
        return out
    if isinstance(x, np.ndarray) and x.dtype == np.uint32:
        return [int(w) for w in x]
    return [w for item in x for w in _words(item)]


def _hashmix(value: int, h: int) -> Tuple[int, int]:
    """SeedSequence's ``hashmix`` on scalars: ``(mixed, next hash const)``."""
    value ^= h
    h = h * _MULT_A & _M32
    value = value * h & _M32
    return value ^ (value >> 16), h


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ (r >> 16)


def _mulhi64(a: np.ndarray, b: Union[np.ndarray, np.uint64]) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b`` (32-bit limbs)."""
    a0, a1 = a & _U32, a >> _S32
    b0, b1 = b & _U32, b >> _S32
    t = a0 * b0
    mid1 = a1 * b0 + (t >> _S32)
    mid2 = a0 * b1 + (mid1 & _U32)
    return a1 * b1 + (mid1 >> _S32) + (mid2 >> _S32)


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One PCG64 step, ``state * MULT + inc`` mod 2**128, on (hi, lo)."""
    new_lo = lo * _PCG_MULT_LO
    new_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    out_lo = new_lo + inc_lo
    carry = (out_lo < new_lo).astype(np.uint64)
    return new_hi + inc_hi + carry, out_lo


class NodeStreams:
    """The streams of ``Generator(PCG64(child))`` for ``n`` sorted slots.

    Slot ``i`` holds the stream of the ``i``-th child of ``seed``'s
    SeedSequence, spawn key ``spawn_key + (n_children_spawned + i,)``:
    the same child :func:`spawn_node_seeds` gives the ``i``-th node in
    sorted-id order.  A SeedSequence ``seed`` is read, never advanced.

    Per slot the column keeps PCG64's 128-bit state and increment as
    uint64 ``(hi, lo)`` pairs, plus its buffered upper 32-bit half-word.
    Draws take an array of *distinct* slots and advance only those.
    Raises :class:`OverflowError` when a child index would not fit one
    32-bit spawn-key word (numpy spends two words on it), and
    :class:`TypeError` for string entropy.
    """

    def __init__(self, seed: SeedLike, n: int) -> None:
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        start = int(ss.n_children_spawned)
        if start + n > 1 << 32:
            raise OverflowError(
                f"child indices up to {start + n - 1} need two spawn-key words")
        pool_size = int(ss.pool_size)
        run = _words(ss.entropy)
        run += [0] * (pool_size - len(run))
        shared = run + _words(ss.spawn_key)
        with np.errstate(over="ignore"):
            pool = self._mixed_pools(shared, pool_size, start, n)
            # generate_state(4, uint64): eight words cycled from the pool,
            # paired little-endian into (initstate hi, lo, initseq hi, lo).
            h = _INIT_B
            words = []
            for i in range(8):
                v = pool[i % pool_size] ^ np.uint32(h)
                h = h * _MULT_B & _M32
                v = v * np.uint32(h)
                words.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
            seed_hi = words[0] | (words[1] << _S32)
            seed_lo = words[2] | (words[3] << _S32)
            seq_hi = words[4] | (words[5] << _S32)
            seq_lo = words[6] | (words[7] << _S32)
            # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1, step from
            # state 0 (leaves state == inc), add initstate, step again.
            self.inc_hi = (seq_hi << _ONE) | (seq_lo >> _S63)
            self.inc_lo = (seq_lo << _ONE) | _ONE
            lo = self.inc_lo + seed_lo
            hi = self.inc_hi + seed_hi + (lo < seed_lo).astype(np.uint64)
            self.hi, self.lo = _lcg_step(hi, lo, self.inc_hi, self.inc_lo)
        self.has_uint32 = np.zeros(n, dtype=bool)
        self.uinteger = np.zeros(n, dtype=np.uint64)

    @staticmethod
    def _mixed_pools(shared: List[int], pool_size: int, start: int,
                     n: int) -> List[np.ndarray]:
        """SeedSequence ``mix_entropy`` for every child at once.

        Children differ only in the last entropy word, their index, so
        every step before it runs once on scalars; only the last word's
        ``pool_size`` mixes run on arrays."""
        h = _INIT_A
        mixer = []
        for i in range(pool_size):
            v, h = _hashmix(shared[i], h)
            mixer.append(v)
        for i_src in range(pool_size):
            for i_dst in range(pool_size):
                if i_src != i_dst:
                    v, h = _hashmix(mixer[i_src], h)
                    mixer[i_dst] = _mix(mixer[i_dst], v)
        for word in shared[pool_size:]:
            for i_dst in range(pool_size):
                v, h = _hashmix(word, h)
                mixer[i_dst] = _mix(mixer[i_dst], v)
        child = np.arange(start, start + n, dtype=np.uint64).astype(np.uint32)
        pool = []
        for i_dst in range(pool_size):
            v = child ^ np.uint32(h)
            h = h * _MULT_A & _M32
            v = v * np.uint32(h)
            v = v ^ (v >> np.uint32(16))
            r = np.uint32(_MIX_MULT_L * mixer[i_dst] & _M32) - np.uint32(_MIX_MULT_R) * v
            pool.append(r ^ (r >> np.uint32(16)))
        return pool

    # ------------------------------------------------------------------ #
    # the bit generator
    # ------------------------------------------------------------------ #

    def _next64(self, slots: np.ndarray) -> np.ndarray:
        """``pcg64_next64``: step, then the XSL-RR output of the new state."""
        with np.errstate(over="ignore"):
            hi, lo = _lcg_step(self.hi[slots], self.lo[slots],
                               self.inc_hi[slots], self.inc_lo[slots])
        self.hi[slots] = hi
        self.lo[slots] = lo
        x = hi ^ lo
        rot = hi >> _S58
        return (x >> rot) | (x << ((-rot) & _S63))

    def _next32(self, slots: np.ndarray) -> np.ndarray:
        """``pcg64_next32``: the buffered upper half-word if there is one,
        else the lower half of a fresh 64-bit output (buffering its upper
        half).  Returned as uint64."""
        out = np.empty(len(slots), dtype=np.uint64)
        has = self.has_uint32[slots]
        buffered = slots[has]
        out[has] = self.uinteger[buffered]
        self.has_uint32[buffered] = False
        fresh = slots[~has]
        x = self._next64(fresh)
        out[~has] = x & _U32
        self.uinteger[fresh] = x >> _S32
        self.has_uint32[fresh] = True
        return out

    # ------------------------------------------------------------------ #
    # Generator draws
    # ------------------------------------------------------------------ #

    def random(self, slots: np.ndarray) -> np.ndarray:
        """``Generator.random()`` once per slot, as float64."""
        slots = np.asarray(slots, dtype=np.intp)
        return (self._next64(slots) >> _S11) * _DOUBLE_UNIT

    def integers(self, slots: np.ndarray,
                 hi: Union[int, np.ndarray]) -> np.ndarray:
        """``Generator.integers(0, hi)`` once per slot, as int64.

        ``hi`` is an int or a per-slot array, each at least 1 and at most
        2**63.  Ranges that fit 32 bits draw Lemire's method on the
        buffered half-words, wider ones on full 64-bit outputs; ``hi ==
        1`` yields 0 and consumes nothing, like numpy.
        """
        slots = np.asarray(slots, dtype=np.intp)
        if isinstance(hi, (int, np.integer)):
            if not 1 <= int(hi) <= 1 << 63:
                raise ValueError(f"high {int(hi)} out of bounds for int64")
            rng = np.full(len(slots), int(hi) - 1, dtype=np.uint64)
        else:
            hi = np.asarray(hi)
            if hi.size and int(hi.min()) < 1:
                raise ValueError("high <= 0")
            rng = hi.astype(np.uint64) - _ONE
        out = np.zeros(len(slots), dtype=np.uint64)
        narrow = (rng > 0) & (rng <= _U32)
        if narrow.any():
            out[narrow] = self._lemire32(slots[narrow], rng[narrow] + _ONE)
        wide = rng > _U32
        if wide.any():
            out[wide] = self._lemire64(slots[wide], rng[wide] + _ONE)
        return out.astype(np.int64)

    def _lemire32(self, slots: np.ndarray, excl: np.ndarray) -> np.ndarray:
        """``buffered_bounded_lemire_uint32``; ``excl`` ≤ 2**32, so every
        32×32 product fits a uint64."""
        m = self._next32(slots) * excl
        threshold = (_TWO_32 - excl) % excl
        redo = np.flatnonzero((m & _U32) < threshold)
        while len(redo):
            m[redo] = self._next32(slots[redo]) * excl[redo]
            redo = redo[(m[redo] & _U32) < threshold[redo]]
        return m >> _S32

    def _lemire64(self, slots: np.ndarray, excl: np.ndarray) -> np.ndarray:
        """``bounded_lemire_uint64`` on the full 64×64→128 product."""
        with np.errstate(over="ignore"):
            x = self._next64(slots)
            low = x * excl
            threshold = (_U64_MAX - (excl - _ONE)) % excl
            redo = np.flatnonzero(low < threshold)
            while len(redo):
                x[redo] = self._next64(slots[redo])
                low[redo] = x[redo] * excl[redo]
                redo = redo[low[redo] < threshold[redo]]
            return _mulhi64(x, excl)
