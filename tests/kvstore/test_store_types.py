"""Tests for typed values: hashes, lists, and the key-management ops."""

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.values import WrongTypeError
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def store(clock):
    sma = SoftMemoryAllocator(name="types-test", request_batch_pages=1)
    return DataStore(sma, StoreConfig(time_fn=lambda: clock.now))


class TestHashes:
    def test_hset_hget(self, store):
        assert store.hset(b"h", {b"f1": b"v1", b"f2": b"v2"}) == 2
        assert store.hget(b"h", b"f1") == b"v1"
        assert store.hget(b"h", b"missing") is None

    def test_hset_counts_only_new_fields(self, store):
        store.hset(b"h", {b"f": b"v"})
        assert store.hset(b"h", {b"f": b"v2", b"g": b"x"}) == 1
        assert store.hget(b"h", b"f") == b"v2"

    def test_hdel(self, store):
        store.hset(b"h", {b"a": b"1", b"b": b"2"})
        assert store.hdel(b"h", b"a", b"zz") == 1
        assert store.hlen(b"h") == 1

    def test_empty_hash_removed(self, store):
        store.hset(b"h", {b"a": b"1"})
        store.hdel(b"h", b"a")
        assert store.exists(b"h") == 0

    def test_hkeys_hvals_hgetall(self, store):
        store.hset(b"h", {b"a": b"1", b"b": b"2"})
        assert sorted(store.hkeys(b"h")) == [b"a", b"b"]
        assert sorted(store.hvals(b"h")) == [b"1", b"2"]
        assert store.hgetall(b"h") == {b"a": b"1", b"b": b"2"}

    def test_hexists(self, store):
        store.hset(b"h", {b"a": b"1"})
        assert store.hexists(b"h", b"a")
        assert not store.hexists(b"h", b"b")
        assert not store.hexists(b"missing", b"a")

    def test_hincrby(self, store):
        assert store.hincrby(b"h", b"n", 5) == 5
        assert store.hincrby(b"h", b"n", -2) == 3
        store.hset(b"h", {b"s": b"abc"})
        with pytest.raises(ValueError):
            store.hincrby(b"h", b"s", 1)

    def test_soft_bytes_track_hash_growth(self, store):
        store.hset(b"h", {b"f": b"x"})
        small = store.soft_bytes
        store.hset(b"h", {b"big": b"y" * 500})
        assert store.soft_bytes > small

    def test_wrongtype_on_string_key(self, store):
        store.set(b"s", b"v")
        with pytest.raises(WrongTypeError):
            store.hget(b"s", b"f")
        with pytest.raises(WrongTypeError):
            store.hset(b"s", {b"f": b"v"})


class TestLists:
    def test_push_pop_order(self, store):
        store.rpush(b"l", b"a", b"b")
        store.lpush(b"l", b"z")
        assert store.lrange(b"l", 0, -1) == [b"z", b"a", b"b"]
        assert store.lpop(b"l") == b"z"
        assert store.rpop(b"l") == b"b"

    def test_llen(self, store):
        assert store.llen(b"l") == 0
        store.rpush(b"l", b"a", b"b", b"c")
        assert store.llen(b"l") == 3

    def test_pop_empty(self, store):
        assert store.lpop(b"missing") is None
        assert store.rpop(b"missing") is None

    def test_empty_list_removed(self, store):
        store.rpush(b"l", b"only")
        store.lpop(b"l")
        assert store.exists(b"l") == 0

    def test_lrange_negative_indices(self, store):
        store.rpush(b"l", b"a", b"b", b"c", b"d")
        assert store.lrange(b"l", -2, -1) == [b"c", b"d"]
        assert store.lrange(b"l", 1, 2) == [b"b", b"c"]
        assert store.lrange(b"missing", 0, -1) == []

    def test_lindex(self, store):
        store.rpush(b"l", b"a", b"b")
        assert store.lindex(b"l", 0) == b"a"
        assert store.lindex(b"l", -1) == b"b"
        assert store.lindex(b"l", 9) is None

    def test_wrongtype(self, store):
        store.set(b"s", b"v")
        with pytest.raises(WrongTypeError):
            store.rpush(b"s", b"x")
        store.rpush(b"l", b"x")
        with pytest.raises(WrongTypeError):
            store.get(b"l")


class TestStringExtensions:
    def test_getdel(self, store):
        store.set(b"k", b"v")
        assert store.getdel(b"k") == b"v"
        assert store.get(b"k") is None
        assert store.getdel(b"missing") is None

    def test_getrange(self, store):
        store.set(b"k", b"Hello World")
        assert store.getrange(b"k", 0, 4) == b"Hello"
        assert store.getrange(b"k", 6, -1) == b"World"
        assert store.getrange(b"k", 0, -1) == b"Hello World"
        assert store.getrange(b"missing", 0, -1) == b""

    def test_setrange(self, store):
        store.set(b"k", b"Hello World")
        assert store.setrange(b"k", 6, b"Redis") == 11
        assert store.get(b"k") == b"Hello Redis"

    def test_setrange_zero_pads(self, store):
        assert store.setrange(b"k", 4, b"x") == 5
        assert store.get(b"k") == b"\x00\x00\x00\x00x"

    def test_setrange_negative_offset(self, store):
        with pytest.raises(ValueError):
            store.setrange(b"k", -1, b"x")

    def test_setrange_offset_cannot_size_an_allocation_past_512mb(self, store):
        # the padding is allocated before the soft allocator sees it:
        # 2**62 used to raise MemoryError out of the serving loop
        with pytest.raises(ValueError, match="512MB"):
            store.setrange(b"k", 2 ** 62, b"x")
        with pytest.raises(ValueError, match="512MB"):
            store.setrange(b"k", 512 * 1024 * 1024, b"x")
        assert store.get(b"k") is None


class TestKeyManagement:
    def test_type_of(self, store):
        store.set(b"s", b"v")
        store.hset(b"h", {b"f": b"v"})
        store.rpush(b"l", b"x")
        assert store.type_of(b"s") == b"string"
        assert store.type_of(b"h") == b"hash"
        assert store.type_of(b"l") == b"list"
        assert store.type_of(b"missing") is None

    def test_rename_moves_value_and_ttl(self, store, clock):
        store.set(b"a", b"v", ex=100)
        store.rename(b"a", b"b")
        assert store.get(b"a") is None
        assert store.get(b"b") == b"v"
        assert 98 <= store.ttl(b"b") <= 100

    def test_rename_missing_raises(self, store):
        with pytest.raises(KeyError):
            store.rename(b"missing", b"x")

    def test_renamenx(self, store):
        store.set(b"a", b"1")
        store.set(b"b", b"2")
        assert not store.renamenx(b"a", b"b")
        assert store.renamenx(b"a", b"c")
        assert store.get(b"c") == b"1"

    def test_randomkey(self, store):
        assert store.randomkey() is None
        store.set(b"only", b"v")
        assert store.randomkey() == b"only"

    def test_expireat_and_pttl(self, store, clock):
        store.set(b"k", b"v")
        store.expireat(b"k", 50.0)
        clock.advance(49.5)
        assert 400 <= store.pttl(b"k") <= 500
        clock.advance(1.0)
        assert store.get(b"k") is None

    def test_pttl_states(self, store):
        assert store.pttl(b"missing") == -2
        store.set(b"k", b"v")
        assert store.pttl(b"k") == -1


class TestScan:
    def test_full_iteration(self, store):
        for i in range(25):
            store.set(f"k{i:02d}".encode(), b"v")
        seen = []
        cursor = 0
        while True:
            cursor, keys = store.scan(cursor, count=7)
            seen.extend(keys)
            if cursor == 0:
                break
        assert sorted(seen) == sorted(store.keys())

    def test_match_filter(self, store):
        store.set(b"user:1", b"a")
        store.set(b"item:1", b"b")
        __, keys = store.scan(0, match=b"user:*", count=100)
        assert keys == [b"user:1"]

    def test_validation(self, store):
        with pytest.raises(ValueError):
            store.scan(-1)
        with pytest.raises(ValueError):
            store.scan(0, count=0)


class TestTypedReclamation:
    def test_hash_entry_reclaim_cleans_traditional(self, store):
        for i in range(100):
            store.hset(f"h{i:03d}".encode(), {b"f": b"x" * 30})
        before = store.traditional_bytes
        stats = store.sma.reclaim(1)
        assert stats.allocations_freed > 0
        assert store.traditional_bytes < before
        # reclaimed hashes are simply gone
        assert store.hgetall(b"h000") == {}

    def test_list_survives_reclaim_of_others(self, store):
        store.rpush(b"queue", b"job1", b"job2")
        for i in range(100):
            store.set(f"filler{i:03d}".encode(), b"x" * 50)
        store.sma.reclaim(1)
        # the queue was the oldest entry: reclaimed first
        assert store.llen(b"queue") == 0
        assert store.dbsize() < 101
