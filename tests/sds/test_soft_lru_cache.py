"""Tests for SoftLRUCache."""

import pytest

from repro.core.pointer import DerefScope
from repro.core.sma import SoftMemoryAllocator
from repro.sds.soft_lru_cache import SoftLRUCache


@pytest.fixture
def sma():
    return SoftMemoryAllocator(name="lru-test", request_batch_pages=1)


class TestCacheApi:
    def test_put_get_hit(self, sma):
        c = SoftLRUCache(sma)
        c.put("k", "v")
        assert c.get("k") == "v"
        assert c.hits == 1 and c.misses == 0

    def test_miss_counted(self, sma):
        c = SoftLRUCache(sma)
        assert c.get("nope") is None
        assert c.misses == 1

    def test_get_default(self, sma):
        c = SoftLRUCache(sma)
        assert c.get("nope", "dflt") == "dflt"

    def test_hit_rate(self, sma):
        c = SoftLRUCache(sma)
        c.put("k", 1)
        c.get("k")
        c.get("x")
        assert c.hit_rate == 0.5

    def test_delete(self, sma):
        c = SoftLRUCache(sma)
        c.put("k", 1)
        assert c.delete("k")
        assert not c.delete("k")

    def test_capacity_eviction_lru(self, sma):
        c = SoftLRUCache(sma, max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # refresh a; b becomes LRU
        c.put("c", 3)
        assert "b" not in c
        assert "a" in c and "c" in c

    def test_overwrite_does_not_grow(self, sma):
        c = SoftLRUCache(sma, max_entries=2, entry_size=2048)
        c.put("a", 1)
        c.put("a", 2)
        assert len(c) == 1
        assert c.soft_bytes == 2048

    def test_bad_params(self, sma):
        with pytest.raises(ValueError):
            SoftLRUCache(sma, entry_size=0)
        with pytest.raises(ValueError):
            SoftLRUCache(sma, max_entries=0)


class TestReclamation:
    def test_lru_reclaimed_first(self, sma):
        """Section 3.2's alternative policy: infrequently-accessed
        elements are reclaimed first."""
        c = SoftLRUCache(sma, entry_size=2048)
        c.put("cold", 1)
        c.put("hot", 2)
        c.get("cold")
        c.get("hot")
        c.get("hot")  # hot is MRU... but recency, not frequency: touch cold last?
        c.get("cold")  # cold is now MRU, hot is LRU
        c.evict_one()
        assert "hot" not in c
        assert "cold" in c

    def test_sma_reclaim_shrinks_cache(self, sma):
        c = SoftLRUCache(sma, entry_size=2048)
        for i in range(10):
            c.put(i, i)
        stats = sma.reclaim(2)
        assert stats.pages_reclaimed == 2
        assert len(c) == 6

    def test_callback_on_reclaim_only(self, sma):
        seen = []
        c = SoftLRUCache(
            sma, callback=seen.append, entry_size=2048, max_entries=2
        )
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)  # capacity eviction: NO callback
        assert seen == []
        c.evict_one()  # reclamation: callback fires
        assert len(seen) == 1

    def test_pinned_survive(self, sma):
        c = SoftLRUCache(sma, entry_size=2048)
        lru_ptr = c.put("lru", 1)
        c.put("mru", 2)
        with DerefScope(lru_ptr):
            c.evict_one()
        assert "lru" in c
        assert "mru" not in c

    def test_evict_empty_returns_false(self, sma):
        assert not SoftLRUCache(sma).evict_one()

    def test_cache_usable_after_full_reclaim(self, sma):
        c = SoftLRUCache(sma, entry_size=2048)
        for i in range(4):
            c.put(i, i)
        while c.evict_one():
            pass
        assert len(c) == 0
        c.put("new", 1)
        assert c.get("new") == 1
