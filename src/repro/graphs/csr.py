"""Compressed-sparse-row (CSR) index over a :class:`WeightedGraph`.

The dict-of-tuples adjacency of :class:`~repro.graphs.weighted_graph.
WeightedGraph` is the canonical representation — deterministic iteration
order, arbitrary node ids, friendly to the per-node view of the simulator.
It is, however, a poor shape for the whole-graph kernels the phase-based
algorithms hammer: repeated ``induced_subgraph`` calls, degree scans, and
fingerprints over the same physical graph.

:class:`CSRIndex` is a *derived, lazily built* view: contiguous numpy
``indptr``/``indices`` arrays over node *slots* (positions in the sorted
id order), a contiguous weight array, and the id↔slot maps needed to
translate back.  Because slots are assigned in ascending id order, sorted
slot sequences map back to sorted id sequences — which is what lets the
CSR kernels reproduce the dict API's iteration orders byte for byte.

The index never escapes the graph API: callers keep using ``neighbors``/
``induced_subgraph``/``fingerprint`` and get the same answers, just
faster.  See ``docs/performance.md``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

__all__ = ["CSRIndex"]


class CSRIndex:
    """Immutable CSR adjacency over node slots.

    Attributes:
        ids: node ids in ascending order; ``ids[slot]`` is the id of a slot.
        slot_of: inverse map, node id -> slot.
        indptr: ``indptr[s]:indptr[s+1]`` delimits the neighbour slots of
            slot ``s`` inside ``indices``.
        indices: neighbour *slots*, sorted ascending within each row (a
            consequence of slot order following id order).
        degrees: per-slot degree, ``indptr[1:] - indptr[:-1]``.
        weights: per-slot node weight, float64.
    """

    __slots__ = ("ids", "slot_of", "indptr", "indices", "degrees", "weights",
                 "_id_list")

    def __init__(self, adjacency: Mapping[int, Tuple[int, ...]],
                 weights: Mapping[int, float]):
        ids = sorted(adjacency)
        n = len(ids)
        self.ids = np.asarray(ids, dtype=np.int64)
        self._id_list = ids  # python ints, shared with kernels below
        slot_of: Dict[int, int] = {v: s for s, v in enumerate(ids)}
        self.slot_of = slot_of
        degrees = np.fromiter((len(adjacency[v]) for v in ids),
                              dtype=np.int64, count=n)
        self.degrees = degrees
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        self.indptr = indptr
        indices = np.empty(int(indptr[n]), dtype=np.int64)
        pos = 0
        for v in ids:
            for u in adjacency[v]:
                indices[pos] = slot_of[u]
                pos += 1
        self.indices = indices
        self.weights = np.fromiter((weights[v] for v in ids),
                                   dtype=np.float64, count=n)

    @classmethod
    def from_arrays(cls, ids: np.ndarray, indptr: np.ndarray,
                    indices: np.ndarray, weights: np.ndarray) -> "CSRIndex":
        """Rehydrate an index from already-canonical CSR arrays.

        ``ids`` must be strictly ascending int64, ``indptr``/``indices``
        a valid CSR adjacency over slots with each row sorted ascending,
        and ``weights`` float64 per slot — exactly what ``__init__``
        produces and what the binary graph codec / graph store persist.
        The arrays are adopted as-is (they may be read-only views into a
        mapped blob file); only the derived ``degrees``/``slot_of``/id list
        are materialized here.
        """
        self = object.__new__(cls)
        self.ids = ids
        self._id_list = ids.tolist()
        self.slot_of = {v: s for s, v in enumerate(self._id_list)}
        self.indptr = indptr
        self.indices = indices
        self.degrees = indptr[1:] - indptr[:-1]
        self.weights = weights
        return self

    @property
    def n(self) -> int:
        return len(self._id_list)

    @property
    def max_degree(self) -> int:
        """``Δ`` over slots; 0 for the empty graph (``degrees.max()``
        would raise on a zero-length array)."""
        return int(self.degrees.max()) if len(self.degrees) else 0

    def neighbor_slots(self, slot: int) -> np.ndarray:
        """Neighbour slots of ``slot`` (a view into ``indices``)."""
        return self.indices[self.indptr[slot]:self.indptr[slot + 1]]

    def induced_rows(self, kept_slots: np.ndarray):
        """Mask-filter the adjacency to the rows/columns in ``kept_slots``.

        Returns ``(ordered_kept_slots, counts, kept_neighbor_slots)``:
        the kept slots in ascending order, the number of surviving
        neighbours per kept slot (aligned with the first array), and the
        surviving neighbour slots concatenated in row order.  Rows stay
        internally sorted, so translating slots back through ``ids``
        reproduces the dict implementation's sorted tuples exactly.
        """
        # Callers pass slot arrays from many sources; an *empty* selection
        # often arrives as float64 (numpy's default for `np.array([])`),
        # which is not a legal index dtype.
        kept_slots = np.asarray(kept_slots, dtype=np.int64)
        mask = np.zeros(self.n, dtype=bool)
        mask[kept_slots] = True
        entry_kept = np.repeat(mask, self.degrees) & mask[self.indices]
        kept_neighbors = self.indices[entry_kept]
        # Prefix sums over the kept-entry mask give exact per-row counts,
        # including empty rows (reduceat mishandles those).
        prefix = np.zeros(len(self.indices) + 1, dtype=np.int64)
        np.cumsum(entry_kept, out=prefix[1:])
        row_counts = prefix[self.indptr[1:]] - prefix[self.indptr[:-1]]
        ordered = np.flatnonzero(mask)
        return ordered, row_counts[ordered], kept_neighbors
