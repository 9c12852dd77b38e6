"""Tests for the Redis-style incremental-rehash dict."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ReclaimedMemoryError, SoftMemoryDenied
from repro.core.sma import SoftMemoryAllocator
from repro.daemon.smd import SoftMemoryDaemon
from repro.kvstore.dict import INITIAL_SIZE, SoftDict


@pytest.fixture
def sma():
    return SoftMemoryAllocator(name="dict-test", request_batch_pages=1)


@pytest.fixture
def d(sma):
    return SoftDict(sma)


class TestMappingSemantics:
    def test_put_get(self, d):
        d.put(b"k", "v")
        assert d.get(b"k") == "v"
        assert b"k" in d
        assert len(d) == 1

    def test_get_missing(self, d):
        assert d.get(b"nope") is None
        assert d.get(b"nope", 0) == 0

    def test_overwrite(self, d):
        d.put(b"k", 1)
        d.put(b"k", 2)
        assert d.get(b"k") == 2
        assert len(d) == 1

    def test_size_changing_overwrite_goes_through_the_handle(self, sma, d):
        for i in range(3):
            d.put(b"k%d" % i, i, size=100)
        ptr, table, slot = d._find(b"k0")
        again, old = d.upsert(b"k0", "grown", size=900)
        assert again is ptr and old == 0
        assert d._find(b"k0") == (ptr, table, slot)  # chain slot untouched
        assert (ptr.size, d.get(b"k0")) == (900, "grown")
        assert len(d) == 3
        assert list(d._by_age.values())[-1] is ptr  # age refreshed: newest
        assert (sma.stats.allocations, sma.stats.frees) == (4, 1)
        sma.check_invariants()

    def test_overwrite_lost_to_a_denial_is_reported_as_reclaimed(self):
        sma = SoftMemoryAllocator(name="tight", request_batch_pages=1)
        SoftMemoryDaemon(soft_capacity_pages=1).register(sma)
        seen = []
        d = SoftDict(sma, callback=seen.append)
        d.put(b"anchor", "a", size=3000)
        d.put(b"victim", "old", size=800)
        with pytest.raises(SoftMemoryDenied):
            d.upsert(b"victim", "new", size=3500)
        assert seen == [(b"victim", "old")] and d.evictions == 1
        assert b"victim" not in d and len(d) == 1
        assert d.get(b"anchor") == "a"
        assert [p.deref()[0] for p in d._by_age.values()] == [b"anchor"]
        sma.check_invariants()
        d.put(b"victim", "back", size=800)  # the slot is reusable
        assert d.get(b"victim") == "back"

    def test_delete(self, d):
        d.put(b"k", 1)
        assert d.delete(b"k")
        assert not d.delete(b"k")
        assert len(d) == 0

    def test_keys_and_items(self, d):
        for i in range(10):
            d.put(f"k{i}".encode(), i)
        assert sorted(d.keys()) == sorted(f"k{i}".encode() for i in range(10))
        assert dict(d.items())[b"k3"] == 3

    def test_clear(self, d):
        for i in range(10):
            d.put(str(i).encode(), i)
        d.clear()
        assert len(d) == 0
        assert d.table_sizes == (INITIAL_SIZE, 0)

    def test_non_bytes_key_rejected(self, d):
        with pytest.raises(TypeError):
            d.put("str-key", 1)
        for key in ("str-key", bytearray(b"k"), memoryview(b"k"), None):
            with pytest.raises(TypeError):
                d.get(key)


class TestIncrementalRehash:
    def test_rehash_starts_at_load_factor_one(self, d):
        for i in range(INITIAL_SIZE):
            d.put(str(i).encode(), i)
        d.put(b"overflow", 1)
        assert d.is_rehashing or d.rehashes_completed >= 1

    def test_rehash_finishes_eventually(self, d):
        for i in range(100):
            d.put(str(i).encode(), i)
        # keep operating; migration happens one bucket per op
        for i in range(100):
            d.get(str(i).encode())
        assert not d.is_rehashing
        assert d.rehashes_completed >= 1

    def test_lookups_correct_during_rehash(self, d):
        for i in range(INITIAL_SIZE + 1):
            d.put(str(i).encode(), i)
        assert d.is_rehashing
        for i in range(INITIAL_SIZE + 1):
            assert d.get(str(i).encode()) == i

    def test_get_finds_keys_in_either_table_mid_rehash(self, d):
        keys = [b"key:%d" % i for i in range(300)]
        for i, key in enumerate(keys):
            d.put(key, i)
        assert d.is_rehashing
        seen = set()
        for i, key in enumerate(keys):
            if not d.is_rehashing:
                break
            where = "ht0" if d._find(key)[1] is d._ht0 else "ht1"
            assert d.get(key) == i  # also migrates one bucket
            seen.add(where)
        assert seen == {"ht0", "ht1"}
        assert d.get(b"absent") is None

    def test_get_refuses_a_reclaimed_pointer_in_the_chain(self, d):
        # two keys in one bucket of the initial 4-bucket table
        by_slot: dict[int, list[bytes]] = {}
        for i in range(64):
            key = b"k%d" % i
            chain = by_slot.setdefault(hash(key) & (INITIAL_SIZE - 1), [])
            chain.append(key)
            if len(chain) == 2:
                break
        first, second = chain
        d.put(first, 1)
        d.put(second, 2)
        assert d.get(second) == 2
        # the allocation dies under the dict: a lookup walking the chain
        # must raise rather than compare against freed memory
        d._find(first)[0].allocation.valid = False
        with pytest.raises(ReclaimedMemoryError):
            d.get(first)
        with pytest.raises(ReclaimedMemoryError):
            d.get(second)

    def test_delete_during_rehash(self, d):
        for i in range(INITIAL_SIZE + 1):
            d.put(str(i).encode(), i)
        assert d.is_rehashing
        assert d.delete(b"0")
        assert d.get(b"0") is None

    def test_table_grows_power_of_two(self, d):
        for i in range(1000):
            d.put(str(i).encode(), i)
        for i in range(1000):
            d.get(str(i).encode())
        size0, size1 = d.table_sizes
        assert size0 >= 1024
        assert size0 & (size0 - 1) == 0

    def test_len_correct_during_rehash(self, d):
        n = INITIAL_SIZE * 4
        for i in range(n):
            d.put(str(i).encode(), i)
        assert len(d) == n


class TestReclamation:
    def test_oldest_first(self, sma):
        d = SoftDict(sma, entry_size=2048)
        for i in range(10):
            d.put(str(i).encode(), i)
        sma.reclaim(1)
        assert d.get(b"0") is None
        assert d.get(b"1") is None
        assert d.get(b"2") == 2
        assert len(d) == 8

    def test_callback_receives_entry(self, sma):
        seen = []
        d = SoftDict(sma, entry_size=2048, callback=seen.append)
        d.put(b"k", "v")
        d.put(b"k2", "v2")
        d.evict_one()
        assert seen == [(b"k", "v")]

    def test_age_index_stays_consistent(self, sma):
        d = SoftDict(sma, entry_size=2048)
        for i in range(10):
            d.put(str(i).encode(), i)
        d.delete(b"0")       # delete the would-be victim
        d.put(b"1", "new")   # overwrite refreshes age
        d.evict_one()        # should take key 2 (now oldest)
        assert d.get(b"2") is None
        assert d.get(b"1") == "new"

    def test_eviction_during_rehash(self, sma):
        d = SoftDict(sma, entry_size=2048)
        for i in range(INITIAL_SIZE + 1):
            d.put(str(i).encode(), i)
        assert d.is_rehashing
        assert d.evict_one()
        # table still fully functional
        survivors = sum(
            1 for i in range(INITIAL_SIZE + 1)
            if d.get(str(i).encode()) is not None
        )
        assert survivors == INITIAL_SIZE


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "del"]),
            st.integers(min_value=0, max_value=30),
        ),
        max_size=200,
    )
)
def test_dict_matches_model(ops):
    """Property: SoftDict agrees with a plain dict on any op sequence
    (without reclamation)."""
    sma = SoftMemoryAllocator(name="model")
    d = SoftDict(sma)
    model: dict[bytes, int] = {}
    for i, (op, keynum) in enumerate(ops):
        key = str(keynum).encode()
        if op == "put":
            d.put(key, i)
            model[key] = i
        elif op == "get":
            assert d.get(key) == model.get(key)
        else:
            assert d.delete(key) == (model.pop(key, None) is not None)
        assert len(d) == len(model)
    assert sorted(d.keys()) == sorted(model.keys())
