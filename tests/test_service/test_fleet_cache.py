"""The two-tier result cache: LRU semantics and tier interplay.

Tier 1 is the per-worker in-memory :class:`LruCache`; tier 2 the shared
JSON disk cache.  The invariants: eviction respects ``maxsize`` in LRU
order, a disk hit falls through to populate the memory tier, and the
canonical report bytes are identical to ``repro.solve`` no matter which
tier served them.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import SolveRequest, solve
from repro.graphs import gnp, uniform_weights
from repro.service import SolverEngine
from repro.service.cache import LruCache


@pytest.fixture
def instance():
    return uniform_weights(gnp(24, 0.15, seed=1), 1, 10, seed=2)


def run(coro):
    return asyncio.run(coro)


class TestLruCache:
    def test_get_put_roundtrip(self):
        cache = LruCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=-1) == -1

    def test_eviction_respects_maxsize_in_lru_order(self):
        cache = LruCache(3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        cache.put("d", "D")  # evicts "a", the least recently used
        assert len(cache) == 3
        assert "a" not in cache
        assert [k for k in ("b", "c", "d") if k in cache] == ["b", "c", "d"]

    def test_get_refreshes_recency(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")       # "b" is now the eviction candidate
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes_recency_and_overwrites(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)   # refresh + overwrite, no growth
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache
        assert len(cache) == 2

    def test_never_exceeds_maxsize(self):
        cache = LruCache(5)
        for i in range(100):
            cache.put(f"k{i}", i)
            assert len(cache) <= 5
        assert cache.snapshot()["evictions"] == 95

    def test_snapshot_counters(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("nope")
        snap = cache.snapshot()
        assert snap["maxsize"] == 2
        assert snap["size"] == 1
        assert snap["hits"] == 2
        assert snap["misses"] == 1
        assert snap["hit_rate"] == pytest.approx(2 / 3)

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            LruCache(0)
        with pytest.raises(ValueError):
            LruCache(-1)


class TestTwoTierEngine:
    """SolverEngine with both tiers enabled, driven directly."""

    def _request(self, instance, seed=7):
        return SolveRequest(graph=instance, algorithm="thm2", seed=seed,
                            params={"eps": 0.5})

    def test_memory_tier_serves_repeat_without_dispatch(self, instance):
        async def scenario():
            engine = SolverEngine(memory_cache=8)
            await engine.start()
            first = await engine.submit(self._request(instance))
            second = await engine.submit(self._request(instance))
            snap = engine.metrics_snapshot()
            await engine.aclose()
            return first, second, snap

        first, second, snap = run(scenario())
        assert first.cache_tier == ""
        assert second.cache_tier == "memory"
        assert second.cached
        assert snap["memory_cache_hits"] == 1
        assert snap["executed"] == 1
        assert snap["batches"] == 1, "the repeat never reached dispatch"
        assert snap["memory_cache"]["hits"] == 1

    def test_disk_hit_falls_through_into_memory_tier(self, instance,
                                                     tmp_path):
        cache_dir = str(tmp_path / "disk")

        async def warm():
            engine = SolverEngine(cache_dir=cache_dir)
            await engine.start()
            served = await engine.submit(self._request(instance))
            await engine.aclose()
            return served

        async def cold_worker():
            # A fresh worker (empty LRU) sharing the disk tier: first
            # request is a disk hit that must populate the LRU, second
            # is a memory hit.
            engine = SolverEngine(cache_dir=cache_dir, memory_cache=8)
            await engine.start()
            first = await engine.submit(self._request(instance))
            second = await engine.submit(self._request(instance))
            snap = engine.metrics_snapshot()
            await engine.aclose()
            return first, second, snap

        computed = run(warm())
        first, second, snap = run(cold_worker())
        assert not computed.cached
        assert first.cache_tier == "disk"
        assert second.cache_tier == "memory"
        assert snap["cache_hits"] == 1
        assert snap["memory_cache_hits"] == 1
        assert snap["executed"] == 0, "the cold worker never ran the solver"

    def test_byte_identity_across_tiers_and_api_solve(self, instance,
                                                      tmp_path):
        request = self._request(instance)
        reference = solve(instance, "thm2", seed=7, eps=0.5).to_json()

        async def scenario():
            engine = SolverEngine(cache_dir=str(tmp_path / "disk"),
                                  memory_cache=8)
            await engine.start()
            served = [await engine.submit(request) for _ in range(3)]
            await engine.aclose()
            return served

        served = run(scenario())
        tiers = [s.cache_tier for s in served]
        assert tiers == ["", "memory", "memory"]
        for s in served:
            assert s.report.to_json() == reference

        async def disk_then_memory():
            engine = SolverEngine(cache_dir=str(tmp_path / "disk"),
                                  memory_cache=8)
            await engine.start()
            served = [await engine.submit(request) for _ in range(2)]
            await engine.aclose()
            return served

        second_worker = run(disk_then_memory())
        assert [s.cache_tier for s in second_worker] == ["disk", "memory"]
        for s in second_worker:
            assert s.report.to_json() == reference

    def test_memory_tier_bounded_by_maxsize(self, instance):
        async def scenario():
            engine = SolverEngine(memory_cache=2)
            await engine.start()
            for seed in range(5):
                await engine.submit(self._request(instance, seed=seed))
            snap = engine.metrics_snapshot()
            await engine.aclose()
            return snap

        snap = run(scenario())
        assert snap["memory_cache"]["size"] == 2
        assert snap["memory_cache"]["evictions"] == 3

    def test_memory_cache_disabled_by_default(self, instance):
        async def scenario():
            engine = SolverEngine()
            await engine.start()
            await engine.submit(self._request(instance))
            snap = engine.metrics_snapshot()
            ready = engine.ready
            await engine.aclose()
            return snap, ready

        snap, ready = run(scenario())
        assert snap["memory_cache"] is None
        assert snap["memory_cache_hits"] == 0
        assert ready
