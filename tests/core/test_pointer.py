"""Tests for soft pointers, invalidation, and dereference scopes."""

import pytest

from repro.core.errors import ReclaimedMemoryError
from repro.core.pointer import DerefScope
from repro.core.sma import SoftMemoryAllocator
from repro.sds.soft_linked_list import SoftLinkedList


@pytest.fixture
def setup():
    sma = SoftMemoryAllocator(name="ptr-test")
    ctx = sma.create_context("sds")
    return sma, ctx


class TestSoftPtr:
    def test_deref_returns_payload(self, setup):
        sma, ctx = setup
        ptr = sma.soft_malloc(64, ctx, payload={"a": 1})
        assert ptr.deref() == {"a": 1}
        assert ptr.valid

    def test_store_overwrites_payload(self, setup):
        sma, ctx = setup
        ptr = sma.soft_malloc(64, ctx, payload=1)
        ptr.store(2)
        assert ptr.deref() == 2

    def test_deref_after_free_raises(self, setup):
        sma, ctx = setup
        ptr = sma.soft_malloc(64, ctx)
        sma.soft_free(ptr)
        assert not ptr.valid
        with pytest.raises(ReclaimedMemoryError) as exc:
            ptr.deref()
        assert exc.value.alloc_id == ptr.alloc_id

    def test_store_after_free_raises(self, setup):
        sma, ctx = setup
        ptr = sma.soft_malloc(64, ctx)
        sma.soft_free(ptr)
        with pytest.raises(ReclaimedMemoryError):
            ptr.store(1)

    def test_try_deref_idiom(self, setup):
        sma, ctx = setup
        ptr = sma.soft_malloc(64, ctx, payload="x")
        assert ptr.try_deref() == "x"
        sma.soft_free(ptr)
        assert ptr.try_deref() is None

    def test_payload_dropped_on_free(self, setup):
        # freed payloads must not be retained (they are "deleted content")
        sma, ctx = setup
        ptr = sma.soft_malloc(64, ctx, payload=object())
        sma.soft_free(ptr)
        assert ptr.payload is None

    def test_size_and_id_exposed(self, setup):
        sma, ctx = setup
        ptr = sma.soft_malloc(100, ctx)
        assert ptr.size == 100
        assert ptr.alloc_id > 0

    def test_alloc_id_is_monotone(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx)
        b = sma.soft_malloc(8, ctx)
        assert a.alloc_id < b.alloc_id


class TestDerefScope:
    def test_scope_yields_values(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx, payload=1)
        b = sma.soft_malloc(8, ctx, payload=2)
        with DerefScope(a, b) as (va, vb):
            assert (va, vb) == (1, 2)

    def test_scope_pins_and_unpins(self, setup):
        sma, ctx = setup
        ptr = sma.soft_malloc(8, ctx)
        assert not ptr.pinned
        with DerefScope(ptr):
            assert ptr.pinned
        assert not ptr.pinned

    def test_nested_scopes_count_pins(self, setup):
        sma, ctx = setup
        ptr = sma.soft_malloc(8, ctx)
        with DerefScope(ptr):
            with DerefScope(ptr):
                assert ptr.pins == 2
            assert ptr.pins == 1

    def test_unpins_on_exception(self, setup):
        sma, ctx = setup
        ptr = sma.soft_malloc(8, ctx)
        with pytest.raises(RuntimeError):
            with DerefScope(ptr):
                raise RuntimeError("boom")
        assert not ptr.pinned

    def test_enter_on_reclaimed_raises_and_leaks_no_pins(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx, payload=1)
        b = sma.soft_malloc(8, ctx, payload=2)
        sma.soft_free(b)
        with pytest.raises(ReclaimedMemoryError):
            with DerefScope(a, b):
                pass
        assert a.pins == 0

    def test_pinned_allocations_survive_reclamation(self):
        """The concurrency story: a pinned element must not be reclaimed
        out from under its dereference scope."""
        sma = SoftMemoryAllocator(name="pin-test")
        lst = SoftLinkedList(sma, element_size=2048)
        first = lst.append("oldest")
        for i in range(9):
            lst.append(i)
        with DerefScope(first) as (value,):
            stats = sma.reclaim(sma.reclaimable_pages())
            assert value == "oldest"
            assert first.valid
        # the rest of the list was fair game
        assert stats.allocations_freed >= 1
