"""Tests for the soft keyspace dict: one index, soft entries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ReclaimedMemoryError, SoftMemoryDenied
from repro.core.sma import SoftMemoryAllocator
from repro.daemon.smd import SoftMemoryDaemon
from repro.kvstore.dict import SoftDict


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
        ptr = d._find(b"k0")
        again, old = d.upsert(b"k0", "grown", size=900)
        assert again is ptr and old == 0
        assert d._find(b"k0") is ptr  # index untouched
        assert (ptr.size, d.get(b"k0")) == (900, "grown")
        assert len(d) == 3
        assert list(d._index.values())[-1] is ptr  # age refreshed: newest
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
        assert list(d._index) == [b"anchor"] and not d._compressed_age
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
        assert len(d) == 0 and list(d.keys()) == []
        assert d.soft_bytes == 0 and not d._index
        d.put(b"1", "again")
        assert d.get(b"1") == "again" and len(d) == 1

    def test_get_refuses_a_reclaimed_pointer(self, d):
        d.put(b"first", 1)
        d.put(b"second", 2)
        # the allocation dies under the dict: a lookup must raise rather
        # than read freed memory, and a neighbour stays readable
        d._find(b"first").valid = False
        with pytest.raises(ReclaimedMemoryError):
            d.get(b"first")
        assert d.get(b"second") == 2

    def test_non_bytes_key_rejected(self, d):
        with pytest.raises(TypeError):
            d.put("str-key", 1)
        for key in ("str-key", bytearray(b"k"), memoryview(b"k"), None):
            with pytest.raises(TypeError):
                d.get(key)


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
        """Eviction from a dict grown well past its first index resize."""
        d = SoftDict(sma, entry_size=2048)
        n = 100
        for i in range(n):
            d.put(str(i).encode(), i)
        assert d.evict_one()
        assert d.get(b"0") is None  # the oldest went
        # the dict stays fully functional
        survivors = sum(
            1 for i in range(n) if d.get(str(i).encode()) is not None
        )
        assert survivors == len(d) == n - 1


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
