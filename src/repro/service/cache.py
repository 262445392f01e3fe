"""The bounded LRU of the service layer.

It backs the server's parse cache, the fleet router's routing cache,
and — its main job — the in-memory tier of the two-tier result cache.
Tier 1 is this per-worker LRU: completed canonical reports keyed by the
request's coalescing key, served straight from the event-loop thread
with no dispatch-thread handoff, no file I/O, and no graph
re-materialization.  Tier 2 is the shared JSON disk cache of the batch
engine (:mod:`repro.simulator.batch`), which persists across restarts
and is shared by every worker and every sweep.  A disk hit falls
through into the LRU, so a worker's steady state serves repeats from
memory even after a restart.

The cache counts hits, misses, and evictions; the engine exports them
through its :class:`~repro.obs.telemetry.MetricRegistry` (see
``repro_service_cache_tier_hits_total``).  All access happens on the
event-loop thread, matching the rest of the engine state — the
structure itself is a plain :class:`~collections.OrderedDict` with no
locking.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional

__all__ = ["LruCache"]

_MISSING = object()


class LruCache:
    """Bounded mapping with least-recently-used eviction and counters."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str, default: Optional[Any] = None) -> Optional[Any]:
        """Look up ``key``, marking it most-recently-used on a hit."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Insert/refresh ``key``, evicting the LRU entry past capacity."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Counters + occupancy for ``/v1/metrics``."""
        total = self.hits + self.misses
        return {
            "maxsize": self.maxsize,
            "size": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }
