"""Tests for the data store (keyspace, TTL, reclamation integration)."""

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.resp import encode_command
from repro.kvstore.server import KvServer
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig
from repro.kvstore.values import WrongTypeError
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def store(clock):
    sma = SoftMemoryAllocator(name="store-test", request_batch_pages=1)
    return DataStore(sma, StoreConfig(time_fn=lambda: clock.now))


class TestStrings:
    def test_set_get(self, store):
        store.set(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_get_missing(self, store):
        assert store.get(b"nope") is None

    def test_delete(self, store):
        store.set(b"k", b"v")
        assert store.delete(b"k") == 1
        assert store.delete(b"k") == 0
        assert store.get(b"k") is None

    def test_multi_delete(self, store):
        store.set(b"a", b"1")
        store.set(b"b", b"2")
        assert store.delete(b"a", b"b", b"c") == 2

    def test_exists(self, store):
        store.set(b"a", b"1")
        assert store.exists(b"a") == 1
        assert store.exists(b"a", b"a", b"b") == 2

    def test_incr_decr(self, store):
        assert store.incrby(b"n", 1) == 1
        assert store.incrby(b"n", 5) == 6
        assert store.incrby(b"n", -2) == 4
        assert store.get(b"n") == b"4"

    def test_incr_non_numeric_raises(self, store):
        store.set(b"k", b"abc")
        with pytest.raises(ValueError):
            store.incrby(b"k", 1)

    def test_append_strlen(self, store):
        assert store.append(b"k", b"ab") == 2
        assert store.append(b"k", b"cd") == 4
        assert store.strlen(b"k") == 4
        assert store.strlen(b"missing") == 0

    def test_type_checking(self, store):
        with pytest.raises(TypeError):
            store.set("str", b"v")
        with pytest.raises(TypeError):
            store.set(b"k", 123)


class TestGetCounts:
    """``DataStore.get`` carries ``_read`` inline: what it returns and
    what it counts must be what the two calls returned and counted."""

    def counts(self, store):
        stats = store.stats
        return stats.hits, stats.misses, stats.expired_keys

    def test_hit_and_miss(self, store):
        store.set(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.get(b"nope") is None
        assert self.counts(store) == (1, 1, 0)

    def test_expired_key_is_a_miss_and_is_deleted(self, store, clock):
        store.set(b"k", b"v", ex=10)
        clock.advance(11)
        assert store.get(b"k") is None
        assert self.counts(store) == (0, 1, 1)
        assert store.dbsize() == 0
        assert store.get(b"k") is None  # gone, no longer "expired"
        assert self.counts(store) == (0, 2, 1)

    def test_compressed_entry_is_promoted_and_counted_as_a_hit(self, clock):
        sma = SoftMemoryAllocator(name="get-tier", request_batch_pages=1)
        config = StoreConfig(
            time_fn=lambda: clock.now, tier=TierConfig(enabled=True)
        )
        store = DataStore(sma, config)
        store.set(b"k", b"A" * 2000)
        assert store.keyspace.demote(b"k")
        tier_stats = store.keyspace.tier_stats
        assert (tier_stats.demotions, tier_stats.promotions) == (1, 0)
        assert store.get(b"k") == b"A" * 2000
        assert self.counts(store) == (1, 0, 0)
        assert (tier_stats.demotions, tier_stats.promotions) == (1, 1)
        assert store.keyspace.compressed_entries == 0
        assert store.get(b"k") == b"A" * 2000  # resident again
        assert self.counts(store) == (2, 0, 0)
        assert tier_stats.promotions == 1

    def test_list_value_is_wrongtype_and_still_a_hit(self, store):
        store.rpush(b"l", b"a")
        with pytest.raises(WrongTypeError):
            store.get(b"l")
        assert self.counts(store) == (1, 0, 0)
        server = KvServer(store)
        reply = server.feed(encode_command("GET", "l"))
        assert reply.startswith(b"-WRONGTYPE")
        assert self.counts(store) == (2, 0, 0)


class TestExpiry:
    def test_ttl_states(self, store, clock):
        store.set(b"k", b"v")
        assert store.ttl(b"k") == -1
        assert store.ttl(b"missing") == -2
        store.expire(b"k", 30)
        assert store.ttl(b"k") == 30

    def test_lazy_expiry(self, store, clock):
        store.set(b"k", b"v", ex=10)
        clock.advance(11)
        assert store.get(b"k") is None
        assert store.stats.expired_keys == 1

    def test_not_expired_before_deadline(self, store, clock):
        store.set(b"k", b"v", ex=10)
        clock.advance(9)
        assert store.get(b"k") == b"v"

    def test_set_clears_ttl_by_default(self, store, clock):
        store.set(b"k", b"v", ex=10)
        store.set(b"k", b"v2")
        clock.advance(11)
        assert store.get(b"k") == b"v2"

    def test_keep_ttl(self, store, clock):
        store.set(b"k", b"v", ex=10)
        store.set(b"k", b"v2", keep_ttl=True)
        clock.advance(11)
        assert store.get(b"k") is None

    def test_persist(self, store, clock):
        store.set(b"k", b"v", ex=10)
        assert store.persist(b"k")
        clock.advance(11)
        assert store.get(b"k") == b"v"
        assert not store.persist(b"k")  # no ttl to remove

    def test_expire_missing_key(self, store):
        assert not store.expire(b"missing", 10)

    def test_sweep_expired(self, store, clock):
        for i in range(5):
            store.set(str(i).encode(), b"v", ex=10)
        store.set(b"keeper", b"v")
        clock.advance(11)
        assert store.sweep_expired() == 5
        assert store.dbsize() == 1


class TestKeyspace:
    def test_keys_pattern(self, store):
        store.set(b"user:1", b"a")
        store.set(b"user:2", b"b")
        store.set(b"item:1", b"c")
        assert sorted(store.keys(b"user:*")) == [b"user:1", b"user:2"]
        assert len(store.keys()) == 3

    def test_dbsize_and_flush(self, store):
        for i in range(5):
            store.set(str(i).encode(), b"v")
        assert store.dbsize() == 5
        store.flushall()
        assert store.dbsize() == 0
        assert store.traditional_bytes == 0

    def test_memory_usage(self, store):
        store.set(b"key", b"value")
        usage = store.memory_usage(b"key")
        assert usage is not None
        assert usage > len(b"key") + len(b"value")
        assert store.memory_usage(b"missing") is None


class TestAccounting:
    def test_traditional_bytes_track_keys_values(self, store):
        store.set(b"abc", b"defg")
        assert store.traditional_bytes == 7
        store.set(b"abc", b"xy")  # overwrite
        assert store.traditional_bytes == 5
        store.delete(b"abc")
        assert store.traditional_bytes == 0

    def test_soft_bytes_grow_with_entries(self, store):
        before = store.soft_bytes
        store.set(b"k", b"v")
        assert store.soft_bytes > before

    def test_hit_miss_stats(self, store):
        store.set(b"k", b"v")
        store.get(b"k")
        store.get(b"x")
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.hit_rate == 0.5

    def test_info_fields(self, store):
        store.set(b"k", b"v")
        info = store.info()
        for field in (
            "keys", "soft_bytes", "traditional_bytes", "hits", "misses",
            "reclaimed_keys", "evictions",
        ):
            assert field in info


class TestReclamationIntegration:
    def test_reclaimed_keys_not_found(self, store):
        """Section 5: requests for reclaimed pairs return 'not found'."""
        for i in range(200):
            store.set(f"key:{i:04d}".encode(), b"x" * 40)
        sma = store.sma
        stats = sma.reclaim(2)
        assert stats.allocations_freed > 0
        assert store.get(b"key:0000") is None
        assert store.stats.reclaimed_keys == stats.allocations_freed

    def test_callback_cleans_traditional_memory(self, store):
        """The paper's measured bottleneck: the callback must free the
        traditional key/value bytes or they leak."""
        for i in range(200):
            store.set(f"key:{i:04d}".encode(), b"x" * 40)
        traditional_before = store.traditional_bytes
        stats = store.sma.reclaim(2)
        freed_pairs = stats.allocations_freed
        expected = traditional_before - freed_pairs * (8 + 40)
        assert store.traditional_bytes == expected

    def test_expires_cleaned_on_reclaim(self, store, clock):
        store.set(b"k0", b"v", ex=100)
        for i in range(100):
            store.set(f"key:{i:04d}".encode(), b"v")
        store.sma.reclaim(1)
        assert store.get(b"k0") is None
        assert store.ttl(b"k0") == -2
        # no stale deadline left behind
        assert b"k0" not in store._expires


class TestGlobFastPath:
    """KEYS/SCAN compile each glob once instead of per-key fnmatch."""

    def test_star_pattern_skips_matching_entirely(self, store):
        from repro.kvstore.store import _glob_regex

        assert _glob_regex(b"*") is None

    def test_glob_semantics_match_fnmatch(self, store):
        import fnmatch

        keys = [b"user:1", b"user:22", b"item:1", b"u?er:x", b"uXer:9"]
        for k in keys:
            store.set(k, b"v")
        for pattern in (b"user:*", b"u?er:?", b"*:1", b"u[sX]er:*", b"none*"):
            expected = sorted(
                k for k in keys
                if fnmatch.fnmatchcase(k.decode(), pattern.decode())
            )
            assert sorted(store.keys(pattern)) == expected

    def test_binary_unsafe_keys_no_longer_crash(self, store):
        """Keys that are not valid UTF-8 used to blow up the per-key
        decode; byte-wise matching handles them."""
        store.set(b"\xffbinary\xfe", b"v")
        store.set(b"plain", b"v")
        assert store.keys(b"\xff*") == [b"\xffbinary\xfe"]
        assert sorted(store.keys(b"*")) == [b"plain", b"\xffbinary\xfe"]

    def test_scan_match_uses_compiled_pattern(self, store):
        for i in range(25):
            store.set(f"k:{i:02d}".encode(), b"v")
        found = []
        cursor = 0
        while True:
            cursor, window = store.scan(cursor, match=b"k:1*", count=7)
            found.extend(window)
            if cursor == 0:
                break
        assert sorted(found) == [f"k:1{i}".encode() for i in range(10)]


class TestExpiryHeap:
    """sweep_expired pops a deadline heap; it never scans the dict."""

    def test_sweep_is_incremental_with_limit(self, store, clock):
        for i in range(20):
            store.set(f"k{i:02d}".encode(), b"v", ex=5)
        store.set(b"keeper", b"v")
        clock.advance(6)
        assert store.sweep_expired(limit=8) == 8
        assert store.sweep_expired(limit=8) == 8
        assert store.sweep_expired() == 4
        assert store.dbsize() == 1

    def test_stale_heap_entries_after_persist(self, store, clock):
        store.set(b"k", b"v", ex=5)
        store.persist(b"k")
        clock.advance(6)
        assert store.sweep_expired() == 0
        assert store.get(b"k") == b"v"

    def test_stale_heap_entries_after_reexpire(self, store, clock):
        store.set(b"k", b"v", ex=5)
        store.expire(b"k", 100)  # pushes a second heap entry
        clock.advance(6)
        assert store.sweep_expired() == 0  # first entry is stale
        assert store.get(b"k") == b"v"
        clock.advance(100)
        assert store.sweep_expired() == 1
        assert store.get(b"k") is None

    def test_heap_compaction_under_ttl_churn(self, store, clock):
        """Re-setting TTLs on hot keys strands stale entries; the heap
        must stay proportional to live TTLs, not to churn."""
        for round_ in range(100):
            for i in range(10):
                store.set(f"hot{i}".encode(), b"v", ex=1000 + round_)
        assert len(store._expiry_heap) < 100
        clock.advance(2000)
        assert store.sweep_expired() == 10
        assert store.dbsize() == 0

    def test_delete_leaves_no_live_deadline(self, store, clock):
        store.set(b"k", b"v", ex=5)
        store.delete(b"k")
        store.set(b"k", b"v2")  # no TTL this time
        clock.advance(6)
        store.sweep_expired()
        assert store.get(b"k") == b"v2"

    def test_flushall_clears_heap(self, store):
        for i in range(5):
            store.set(str(i).encode(), b"v", ex=10)
        store.flushall()
        assert store._expiry_heap == []
        assert store._expires == {}
