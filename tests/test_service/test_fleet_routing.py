"""Shard assignment: sha256-based, pinned, and hash()-independent.

The regression pins here are the fleet's placement contract: if they
ever move, restarted routers would shard keys differently than running
workers' caches expect, and cross-version fleets would split coalescing
for the same key.  They must never depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.api import SolveRequest
from repro.graphs import gnp, uniform_weights
from repro.service.fleet import routing_key, shard_for_key, shard_for_request

# (key, shards) -> expected placement, computed once from the spec
# (first 8 big-endian bytes of sha256(key) mod shards) and frozen.
PINNED = {
    ("", 2): 0, ("", 4): 0, ("", 8): 4, ("", 16): 4,
    ("a", 2): 0, ("a", 4): 2, ("a", 8): 2, ("a", 16): 10,
    ("deadbeef", 2): 1, ("deadbeef", 4): 1, ("deadbeef", 8): 1,
    ("deadbeef", 16): 1,
    ("8a2f6f9c6d5e4b3a2f1e0d9c8b7a6f5e4d3c2b1a0f9e8d7c6b5a4f3e2d1c0b9a",
     2): 0,
    ("8a2f6f9c6d5e4b3a2f1e0d9c8b7a6f5e4d3c2b1a0f9e8d7c6b5a4f3e2d1c0b9a",
     4): 0,
    ("8a2f6f9c6d5e4b3a2f1e0d9c8b7a6f5e4d3c2b1a0f9e8d7c6b5a4f3e2d1c0b9a",
     8): 0,
    ("8a2f6f9c6d5e4b3a2f1e0d9c8b7a6f5e4d3c2b1a0f9e8d7c6b5a4f3e2d1c0b9a",
     16): 8,
}


class TestShardForKey:
    def test_pinned_placements(self):
        for (key, shards), expected in PINNED.items():
            assert shard_for_key(key, shards) == expected, (key, shards)

    def test_single_shard_is_always_zero(self):
        for key in ("", "a", "anything-at-all"):
            assert shard_for_key(key, 1) == 0

    def test_matches_sha256_spec(self):
        key = "some-request-fingerprint"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        expected = int.from_bytes(digest[:8], "big") % 5
        assert shard_for_key(key, 5) == expected

    def test_never_python_hash(self):
        # Python hash() of a str is salted per process; if the shard
        # function ever used it, this equality could only hold by
        # coincidence for *every* probe key at once.
        probes = [f"probe-{i}" for i in range(64)]
        for key in probes:
            digest = hashlib.sha256(key.encode("utf-8")).digest()
            assert (shard_for_key(key, 16)
                    == int.from_bytes(digest[:8], "big") % 16)

    def test_range_and_distribution(self):
        shards = 8
        placements = [shard_for_key(f"k{i}", shards) for i in range(800)]
        assert set(placements) <= set(range(shards))
        # sha256 spreads: every shard owns some keys at this volume.
        assert set(placements) == set(range(shards))

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            shard_for_key("x", 0)
        with pytest.raises(ValueError):
            shard_for_key("x", -3)


class TestShardForRequest:
    @pytest.fixture
    def request_(self):
        graph = uniform_weights(gnp(24, 0.15, seed=1), 1, 10, seed=2)
        return SolveRequest(graph=graph, algorithm="thm2", seed=7,
                            params={"eps": 0.5})

    def test_routing_key_is_request_key(self, request_):
        assert routing_key(request_) == request_.key()

    def test_pinned_request_placement(self, request_):
        # The full pipeline (graph fingerprint -> request key -> shard)
        # is deterministic; frozen from a reference run.
        assert request_.key() == (
            "b505646fcb7d669bc4bb2735eca7f7f2c7c6beff18ae88268e6f3f2609547fff"
        )
        assert shard_for_request(request_, 2) == 1
        assert shard_for_request(request_, 3) == 0
        assert shard_for_request(request_, 4) == 3

    def test_backend_twins_share_the_pinned_key(self, request_):
        # The backend chooses how a request runs, not what it computes:
        # a columnar twin keys, coalesces and shards like the original.
        for backend in ("per-node", "columnar"):
            twin = replace(request_, backend=backend)
            assert twin.key() == (
                "b505646fcb7d669bc4bb2735eca7f7f2c7c6beff18ae88268e6f3f2609547fff"
            )
            assert shard_for_request(twin, 4) == 3

    def test_equal_requests_share_a_shard(self, request_):
        graph = uniform_weights(gnp(24, 0.15, seed=1), 1, 10, seed=2)
        twin = SolveRequest(graph=graph, algorithm="thm2", seed=7,
                            params={"eps": 0.5})
        for shards in (2, 3, 4, 7):
            assert (shard_for_request(request_, shards)
                    == shard_for_request(twin, shards))
