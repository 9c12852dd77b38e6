"""The tier's two allocator moves stay inside pages the heap owns.

``soft_demote`` relocates an allocation to a smaller extent and cannot
fail; ``soft_promote`` relocates it to a larger one only where the heap
already has the room. Neither maps a page, draws on the pool, or talks
to the daemon — only ``soft_malloc``/``soft_resize`` grow a heap. Both
allocator cores must hold that under arbitrary op sequences.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ProtocolError
from repro.core.sma import SoftMemoryAllocator
from repro.mem.placer import PagePlacer
from repro.mem.sizeclass import SizeClassPlacer
from repro.util.units import PAGE_SIZE

PLACERS = {"extent": PagePlacer, "slab": SizeClassPlacer}


class SpyDaemon:
    """Grants everything and counts the asks."""

    def __init__(self) -> None:
        self.requests = 0

    def request(self, pages: int) -> int:
        self.requests += 1
        return pages

    def notify_release(self, pages: int) -> None:
        pass


def page_state(sma, daemon):
    """Everything a tier move must leave alone."""
    return (
        daemon.requests,
        sma.stats.daemon_requests,
        sma.stats.pages_mapped,
        sma.stats.pages_released,
        sma.budget.granted,
        sma.budget.held,
        sma.pool.page_count,
        tuple(c.heap.page_count for c in sma.contexts),
    )


@pytest.mark.parametrize("placer_name", sorted(PLACERS))
@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["malloc", "malloc", "free", "resize", "demote", "demote",
                 "promote", "reclaim"]
            ),
            st.integers(min_value=1, max_value=2 * PAGE_SIZE),
        ),
        max_size=120,
    ),
    rng=st.randoms(),
)
def test_tier_moves_never_fail_and_never_map_a_page(placer_name, ops, rng):
    daemon = SpyDaemon()
    sma = SoftMemoryAllocator(
        daemon,
        name="prop",
        request_batch_pages=2,
        placer_factory=PLACERS[placer_name],
    )
    ctxs = [sma.create_context(f"c{i}", priority=i) for i in range(2)]
    live = []
    for op, size in ops:
        if op == "malloc":
            live.append(sma.soft_malloc(size, rng.choice(ctxs), size))
        elif op == "reclaim":
            sma.reclaim(size % 6)  # no handlers: harvests free pages only
        elif not live:
            continue
        elif op == "free":
            sma.soft_free(live.pop(rng.randrange(len(live))))
        elif op == "resize":
            sma.soft_resize(rng.choice(live), size, size)
        elif op == "demote":
            ptr = rng.choice(live)
            if ptr.size == 1:
                continue
            new_size = 1 + size % (ptr.size - 1)
            alloc_id, before = ptr.alloc_id, page_state(sma, daemon)
            assert sma.soft_demote(ptr, new_size, new_size) is ptr
            assert page_state(sma, daemon) == before
            assert ptr.valid and ptr.alloc_id == alloc_id
            assert ptr.size == new_size and ptr.deref() == new_size
        else:
            ptr = rng.choice(live)
            old_size, new_size = ptr.size, ptr.size + size
            before = page_state(sma, daemon)
            grew = sma.soft_promote(ptr, new_size, new_size)
            assert page_state(sma, daemon) == before
            assert ptr.valid
            assert ptr.size == ptr.deref() == (new_size if grew else old_size)
        sma.check_invariants()
    assert sma.live_bytes == sum(p.size for p in live)
    assert sma.live_allocations == len(live)
    # page conservation: what was mapped is held or was released
    assert sma.stats.pages_mapped - sma.stats.pages_released == sma.budget.held


@pytest.mark.parametrize("placer_name", sorted(PLACERS))
def test_demoted_stubs_pack_so_victim_pages_free_wholly(placer_name):
    """Relocation, not shrink-in-place: a stub left where its victim was
    would pin the victim's page and nothing could be harvested."""
    sma = SoftMemoryAllocator(
        name="pack", request_batch_pages=1, placer_factory=PLACERS[placer_name]
    )
    ctx = sma.create_context("c")
    ptrs = [sma.soft_malloc(4000, ctx, i) for i in range(40)]  # a page each
    assert ctx.heap.page_count == 40 and ctx.heap.free_page_count == 0
    for ptr in ptrs[:30]:  # oldest first, like a reclamation wave
        sma.soft_demote(ptr, 200, "stub")
    # 30 stubs of 200 B need 2 pages; the other 28 victim pages are free
    assert ctx.heap.page_count == 40
    assert ctx.heap.free_page_count == 28
    assert sma.stats.pages_mapped == 40
    sma.check_invariants()
    assert sma.reclaim(28).pages_from_sds == 28
    assert all(ptr.deref() == "stub" for ptr in ptrs[:30])


@pytest.mark.parametrize("placer_name", sorted(PLACERS))
def test_demote_last_resort_is_the_hole_the_victim_left(placer_name):
    sma = SoftMemoryAllocator(
        name="hole", request_batch_pages=1, placer_factory=PLACERS[placer_name]
    )
    ctx = sma.create_context("c")
    # two to a page: no room for a stub beside them, no free page
    ptrs = [sma.soft_malloc(2000, ctx, i) for i in range(24)]
    assert ctx.heap.page_count == 12 and ctx.heap.free_page_count == 0
    victim = ptrs[0]
    page, offset = victim.page, victim.offset
    sma.soft_demote(victim, 200, "stub")
    assert victim.page is page
    assert victim.offset == offset
    assert ctx.heap.page_count == 12 and sma.live_bytes == 23 * 2000 + 200
    sma.check_invariants()
    sma.soft_free(ptrs[1])  # its page-mate
    sma.soft_free(victim)
    assert ctx.heap.free_page_count == 1
    sma.check_invariants()


@pytest.mark.parametrize("placer_name", sorted(PLACERS))
def test_promote_takes_owned_room_or_changes_nothing(placer_name):
    daemon = SpyDaemon()
    sma = SoftMemoryAllocator(
        daemon, name="grow", request_batch_pages=1,
        placer_factory=PLACERS[placer_name],
    )
    ctx = sma.create_context("c")
    stub = sma.soft_malloc(100, ctx, "stub")
    # no 3000-byte hole beside these two, no 4096-class slot in the slabs
    filler = sma.soft_malloc(3900, ctx, "filler")
    before = page_state(sma, daemon)
    assert sma.soft_promote(stub, 3000, "big") is False
    assert (stub.size, stub.deref()) == (100, "stub")
    assert page_state(sma, daemon) == before
    sma.soft_free(filler)  # a freed extent is room the heap owns
    before = page_state(sma, daemon)
    assert sma.soft_promote(stub, 3000, "big") is True
    assert (stub.size, stub.deref()) == (3000, "big")
    assert page_state(sma, daemon) == before
    assert sma.live_bytes == 3000
    sma.check_invariants()


def test_promote_of_a_reclaimed_allocation_is_a_no_op():
    """A wave on another thread may take the stub while its value is
    being inflated; the read is still served, nothing is re-admitted."""
    sma = SoftMemoryAllocator(name="gone")
    ctx = sma.create_context("c")
    ptr = sma.soft_malloc(100, ctx, "stub")
    sma.reclaim_free(ptr)
    assert sma.soft_promote(ptr, 3000, "big") is False
    with pytest.raises(ProtocolError):
        sma.soft_demote(ptr, 10, "x")
    sma.check_invariants()
