"""``soft_resize``: free + malloc decisions, one operation, same handle.

Placement equivalence with the two-call spelling is pinned in
``test_placement_equivalence.py``; this file pins what identity reuse
means for everything that hangs off an allocation.
"""

import pytest

from repro.core.errors import ReclaimedMemoryError, SoftMemoryDenied
from repro.core.locking import LockedSoftMemoryAllocator
from repro.core.sma import SoftMemoryAllocator
from repro.core.softref import ReferenceQueue
from repro.daemon.policy import SelectionConfig
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon
from repro.kvstore.dict import SoftDict
from repro.mem.sizeclass import SizeClassPlacer
from repro.sds.soft_linked_list import SoftLinkedList
from repro.util.units import PAGE_SIZE


@pytest.fixture(params=[SoftMemoryAllocator, LockedSoftMemoryAllocator])
def sma(request):
    return request.param(name="resize-test", request_batch_pages=1)


def one_page_sma() -> SoftMemoryAllocator:
    sma = SoftMemoryAllocator(name="tight", request_batch_pages=1)
    SoftMemoryDaemon(soft_capacity_pages=1).register(sma)
    return sma


class TestIdentity:
    def test_same_pointer_new_size_and_payload(self, sma):
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(100, ctx, payload="old")
        alloc_id = ptr.alloc_id
        assert sma.soft_resize(ptr, 3000, "new") is ptr
        assert ptr.alloc_id == alloc_id
        assert (ptr.size, ptr.deref()) == (3000, "new")
        assert ctx.heap.live_bytes == 3000
        sma.check_invariants()

    def test_counts_one_free_and_one_allocation(self, sma):
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(100, ctx)
        sma.soft_resize(ptr, 200)
        assert (sma.stats.allocations, sma.stats.frees) == (2, 1)
        assert sma.live_allocations == 1

    def test_resized_allocation_becomes_the_newest(self, sma):
        # the heap keeps a count, not an age order: the kv's order is
        # ``SoftDict._index``, and a size-changing overwrite — one
        # ``soft_resize`` through the same handle — moves to its end
        keyspace = SoftDict(sma)
        a, b = keyspace.put(b"a", 1, size=64), keyspace.put(b"b", 2, size=64)
        assert keyspace.upsert(b"a", 3, size=128)[0] is a
        assert a.size == 128
        assert list(keyspace._index.values()) == [b, a]

    def test_multi_page_round_trip(self, sma):
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(64, ctx)
        sma.soft_resize(ptr, 3 * PAGE_SIZE)
        assert len(ptr.page) == 3 and ptr.offset == 0
        sma.soft_resize(ptr, 64)
        assert not isinstance(ptr.page, tuple)  # one page again
        sma.check_invariants()

    def test_dead_pointer_and_bad_size_rejected_untouched(self, sma):
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(64, ctx, payload="keep")
        with pytest.raises(ValueError):
            sma.soft_resize(ptr, 0)
        assert ptr.deref() == "keep" and ptr.size == 64
        sma.soft_free(ptr)
        with pytest.raises(ValueError):
            sma.soft_resize(ptr, 64)

    def test_size_class_placer_resizes_through_the_same_contract(self):
        sma = SoftMemoryAllocator(name="slab", placer_factory=SizeClassPlacer)
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(100, ctx, payload=1)
        assert sma.soft_resize(ptr, 1000, 2) is ptr
        assert (ptr.size, ptr.deref()) == (1000, 2)
        sma.soft_resize(ptr, 2 * PAGE_SIZE, 3)
        sma.check_invariants()
        sma.soft_free(ptr)
        assert sma.live_allocations == 0


class TestFollowTheHandle:
    """References and groups belong to the handle, not to the extent."""

    def test_soft_reference_sees_the_new_payload_then_the_reclaim(self, sma):
        queue = ReferenceQueue()
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(64, ctx, payload="old")
        ref = sma.soft_reference(ptr, queue=queue, tag="k")
        sma.soft_resize(ptr, 512, "new")
        assert ref.get() == "new" and not ref.cleared
        assert len(queue) == 0  # a resize is not a reclamation
        sma.reclaim_free(ptr)
        assert ref.get() is None and queue.poll() is ref

    def test_group_membership_survives(self, sma):
        ctx = sma.create_context("c")
        a, b = sma.soft_malloc(64, ctx), sma.soft_malloc(64, ctx)
        sma.groups.group(a, b)
        sma.soft_resize(a, 512)
        assert sma.groups.companions(b) == [a]
        sma.reclaim_free(b)  # companions still die together
        assert not a.valid and not b.valid
        sma.check_invariants()


class TestDeniedProvision:
    def test_old_allocation_is_gone_and_the_denial_propagates(self):
        sma = one_page_sma()
        ctx = sma.create_context("c")
        anchor = sma.soft_malloc(3000, ctx)
        ptr = sma.soft_malloc(800, ctx, payload="old")
        queue = ReferenceQueue()
        ref = sma.soft_reference(ptr, queue=queue)
        group = sma.groups.group(anchor, ptr)
        with pytest.raises(SoftMemoryDenied):
            sma.soft_resize(ptr, 3500, "new")
        assert not ptr.valid
        with pytest.raises(ReclaimedMemoryError):
            ptr.deref()
        # like a failed soft_malloc after a soft_free: one free counted,
        # references dropped without queue delivery, group left
        assert (sma.stats.allocations, sma.stats.frees) == (2, 1)
        assert ref.get() is None and len(queue) == 0
        assert sma.refs.tracked_count == 0
        assert sma.groups.companions(anchor) == []
        assert anchor.group_id == group
        assert ctx.heap.live_bytes == 3000 and sma.live_allocations == 1
        sma.check_invariants()

    def test_self_reclaim_while_provisioning_skips_the_allocation(self):
        """The daemon may answer the resize's own budget request with a
        demand on this very heap; the allocation in flight is pinned."""
        config = SmdConfig(selection=SelectionConfig(allow_self_reclaim=True))
        sma = SoftMemoryAllocator(name="self", request_batch_pages=1)
        SoftMemoryDaemon(soft_capacity_pages=2, config=config).register(sma)
        cache = SoftLinkedList(sma, element_size=2048)
        for i in range(3):
            cache.append(i)  # pages: [0, 1] [2, -]
        ctx = cache.context
        ptr = sma.soft_malloc(1024, ctx, payload="old")  # joins page 2
        assert sma.held_pages == 2
        sma.soft_resize(ptr, 4096, "new")  # needs a third page
        assert ptr.deref() == "new" and ptr.size == 4096
        assert cache.evictions > 0
        sma.check_invariants()
