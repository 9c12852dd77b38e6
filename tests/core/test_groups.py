"""Tests for allocation groups (composition-safe reclamation)."""

import pytest

from repro.core.sma import SoftMemoryAllocator


@pytest.fixture
def setup():
    sma = SoftMemoryAllocator(name="group-test")
    ctx = sma.create_context("c")
    return sma, ctx


class TestGroupRegistry:
    def test_group_creation(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx, "key")
        b = sma.soft_malloc(8, ctx, "value")
        gid = sma.groups.group(a, b)
        assert gid > 0
        assert a.group_id == gid
        assert b.group_id == gid

    def test_companions(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx)
        b = sma.soft_malloc(8, ctx)
        c = sma.soft_malloc(8, ctx)
        sma.groups.group(a, b, c)
        companions = sma.groups.companions(a)
        assert {x.alloc_id for x in companions} == {b.alloc_id, c.alloc_id}

    def test_ungrouped_has_no_companions(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx)
        assert sma.groups.companions(a) == []

    def test_cannot_join_two_groups(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx)
        sma.groups.group(a)
        with pytest.raises(ValueError):
            sma.groups.group(a)

    def test_dead_allocation_rejected(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx)
        sma.soft_free(a)
        with pytest.raises(ValueError):
            sma.groups.group(a)

    def test_unknown_group_rejected(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx)
        with pytest.raises(ValueError):
            sma.groups.add(424242, a)

    def test_normal_free_leaves_group(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx)
        b = sma.soft_malloc(8, ctx)
        sma.groups.group(a, b)
        sma.soft_free(a)
        assert b.valid  # normal free does NOT cascade
        assert sma.groups.companions(b) == []

    def test_empty_group_garbage_collected(self, setup):
        sma, ctx = setup
        a = sma.soft_malloc(8, ctx)
        sma.groups.group(a)
        before = len(sma.groups._members)
        sma.soft_free(a)
        assert len(sma.groups._members) == before - 1


class TestGroupedReclamation:
    def test_reclaim_cascades_to_companions(self, setup):
        """The section 7 composition fix: reclaiming the entry takes the
        key and value allocations with it, atomically."""
        sma, ctx = setup
        entry = sma.soft_malloc(16, ctx, "entry")
        key = sma.soft_malloc(16, ctx, "key")
        value = sma.soft_malloc(16, ctx, "value")
        sma.groups.group(entry, key, value)
        sma.reclaim_free(entry)
        assert not entry.valid and not key.valid and not value.valid

    def test_cascade_invokes_callbacks_for_all_members(self):
        freed = []
        sma = SoftMemoryAllocator(name="g")
        ctx = sma.create_context("c", callback=freed.append)
        a = sma.soft_malloc(8, ctx, "a")
        b = sma.soft_malloc(8, ctx, "b")
        sma.groups.group(a, b)
        sma.reclaim_free(b)
        assert sorted(freed) == ["a", "b"]

    def test_cascade_across_contexts(self):
        """Members can live in different SDS heaps (entry in the table,
        value in a separate blob SDS)."""
        sma = SoftMemoryAllocator(name="g")
        ctx1 = sma.create_context("table")
        ctx2 = sma.create_context("blobs")
        a = sma.soft_malloc(8, ctx1)
        b = sma.soft_malloc(8, ctx2)
        sma.groups.group(a, b)
        sma.reclaim_free(a)
        assert not b.valid
        assert ctx2.heap.live_allocations == 0
