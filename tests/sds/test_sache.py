"""Tests for the Sache (compute-through soft cache)."""

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.sds.sache import Sache


@pytest.fixture
def sma():
    return SoftMemoryAllocator(name="sache-test", request_batch_pages=1)


def squares(calls):
    def compute(key):
        calls.append(key)
        return key * key

    return compute


class TestComputeThrough:
    def test_first_get_computes(self, sma):
        calls = []
        cache = Sache(sma, squares(calls))
        assert cache.get(4) == 16
        assert calls == [4]

    def test_second_get_hits(self, sma):
        calls = []
        cache = Sache(sma, squares(calls))
        cache.get(4)
        assert cache.get(4) == 16
        assert calls == [4]
        assert cache.hits == 1
        assert cache.recomputations == 1

    def test_peek_never_computes(self, sma):
        calls = []
        cache = Sache(sma, squares(calls))
        assert cache.peek(3) is None
        assert calls == []
        cache.get(3)
        assert cache.peek(3) == 9

    def test_invalidate(self, sma):
        calls = []
        cache = Sache(sma, squares(calls))
        cache.get(2)
        assert cache.invalidate(2)
        assert not cache.invalidate(2)
        cache.get(2)
        assert calls == [2, 2]

    def test_contains_and_len(self, sma):
        cache = Sache(sma, lambda k: k)
        cache.get("a")
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_per_value_sizing(self, sma):
        cache = Sache(
            sma, lambda k: "x" * k, size_of=len, entry_size=1
        )
        cache.get(2048)
        assert cache.soft_bytes == 2048

    def test_validation(self, sma):
        with pytest.raises(ValueError):
            Sache(sma, lambda k: k, entry_size=0)


class TestReclamationRecompute:
    def test_reclaimed_entry_recomputed_on_demand(self, sma):
        """The Sache contract: get() always answers; reclamation only
        costs a recomputation."""
        calls = []
        cache = Sache(sma, squares(calls), entry_size=2048)
        for i in range(10):
            cache.get(i)
        stats = sma.reclaim(2)
        assert stats.allocations_freed == 4
        # every key still answers correctly
        assert [cache.get(i) for i in range(10)] == [i * i for i in range(10)]
        assert cache.recomputations == 10 + 4

    def test_sweep_cleans_index_lazily(self, sma):
        cache = Sache(sma, lambda k: k, entry_size=2048)
        for i in range(10):
            cache.get(i)
        sma.reclaim(2)
        assert len(cache._cleared) == 4  # reclaimed, not yet swept
        assert len(cache) == 6  # any API call sweeps
        assert len(cache._cleared) == 0

    def test_oldest_entries_reclaimed_first(self, sma):
        cache = Sache(sma, lambda k: k, entry_size=2048)
        for i in range(10):
            cache.get(i)
        sma.reclaim(1)
        assert 0 not in cache and 1 not in cache
        assert 9 in cache

    def test_reinsert_after_reclaim_then_reclaim_again(self, sma):
        cache = Sache(sma, lambda k: k, entry_size=2048)
        for i in range(6):
            cache.get(i)
        sma.reclaim(1)
        cache.get(0)  # recompute, re-cache (now newest)
        sma.reclaim(1)  # takes keys 2,3 (oldest live)
        assert 0 in cache
        assert 2 not in cache and 3 not in cache

    def test_evictions_counted_as_sds(self, sma):
        cache = Sache(sma, lambda k: k, entry_size=2048)
        for i in range(6):
            cache.get(i)
        sma.reclaim(1)
        assert cache.evictions == 2


class TestNoneValues:
    def test_none_is_a_cacheable_value(self, sma):
        calls = []

        def compute(key):
            calls.append(key)
            return None  # legitimately absent upstream

        cache = Sache(sma, compute)
        assert cache.get("k") is None
        assert cache.get("k") is None  # cached, not recomputed
        assert calls == ["k"]
        assert cache.hits == 1

    def test_none_value_recomputed_after_reclaim(self, sma):
        calls = []
        cache = Sache(sma, lambda k: calls.append(k), entry_size=2048)
        cache.get("a")
        cache.get("b")
        sma.reclaim(sma.reclaimable_pages())
        assert cache.get("a") is None
        assert calls == ["a", "b", "a"]
