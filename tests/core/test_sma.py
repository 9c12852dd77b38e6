"""Tests for the Soft Memory Allocator: the paper's core mechanism."""

import pytest

from repro.core.errors import ProtocolError, SoftMemoryDenied
from repro.core.sma import SoftMemoryAllocator
from repro.mem.physical import PhysicalMemory
from repro.sds.soft_linked_list import SoftLinkedList
from repro.util.units import KIB, MIB, PAGE_SIZE


class TestContexts:
    def test_create_context(self, sma):
        ctx = sma.create_context("cache", priority=3)
        assert ctx.priority == 3
        assert ctx in sma.contexts

    def test_each_context_has_isolated_heap(self, sma):
        """Section 3.1: every SDS gets its own heap and pages."""
        a = sma.create_context("a")
        b = sma.create_context("b")
        sma.soft_malloc(64, a)
        sma.soft_malloc(64, b)
        pages_a = {p.page_id for p in a.heap._placer.pages}
        pages_b = {p.page_id for p in b.heap._placer.pages}
        assert pages_a.isdisjoint(pages_b)

    def test_remove_context_pools_pages(self, sma):
        ctx = sma.create_context("tmp")
        ptr = sma.soft_malloc(64, ctx)
        sma.soft_free(ptr)
        held_before = sma.held_pages
        sma.remove_context(ctx)
        assert ctx not in sma.contexts
        assert sma.pool.page_count >= 1
        assert sma.held_pages == held_before  # pages stay held, just pooled

    def test_remove_context_with_live_allocs_rejected(self, sma):
        ctx = sma.create_context("busy")
        sma.soft_malloc(64, ctx)
        with pytest.raises(ProtocolError):
            sma.remove_context(ctx)


class TestMallocFree:
    def test_malloc_returns_valid_ptr(self, sma):
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(KIB, ctx, payload=42)
        assert ptr.valid
        assert ptr.deref() == 42

    def test_allocation_consumes_budget_pages(self, sma):
        ctx = sma.create_context("c")
        sma.soft_malloc(KIB, ctx)
        assert sma.held_pages == 1
        assert sma.budget.held == 1

    def test_allocations_pack_into_pages(self, sma):
        ctx = sma.create_context("c")
        for _ in range(4):
            sma.soft_malloc(KIB, ctx)
        assert sma.held_pages == 1
        sma.soft_malloc(KIB, ctx)
        assert sma.held_pages == 2

    def test_free_keeps_pages_held(self, sma):
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(KIB, ctx)
        sma.soft_free(ptr)
        assert sma.held_pages == 1  # cached, not returned

    def test_slack_pages_move_to_pool(self, sma):
        ctx = sma.create_context("c")
        ptrs = [sma.soft_malloc(PAGE_SIZE, ctx) for _ in range(8)]
        for p in ptrs:
            sma.soft_free(p)
        assert sma.pool.page_count >= 4  # FREE_PAGE_SLACK threshold
        sma.check_invariants()

    def test_pool_pages_reused_before_mapping(self, sma):
        ctx = sma.create_context("a")
        ptrs = [sma.soft_malloc(PAGE_SIZE, ctx) for _ in range(8)]
        for p in ptrs:
            sma.soft_free(p)
        mapped_before = sma.stats.pages_mapped
        other = sma.create_context("b")
        sma.soft_malloc(PAGE_SIZE, other)
        assert sma.stats.pages_mapped == mapped_before

    def test_a_denied_provision_leaves_the_pool_whole(self, sma):
        """Pool pages taken toward an allocation whose budget is then
        denied go back to the pool, not off the books."""
        ctx = sma.create_context("a")
        for p in [sma.soft_malloc(PAGE_SIZE, ctx) for _ in range(8)]:
            sma.soft_free(p)
        pooled = sma.pool.page_count
        sma.mark_degraded(True)
        size = (pooled + sma.budget.headroom + 1) * PAGE_SIZE
        with pytest.raises(SoftMemoryDenied):
            sma.soft_malloc(size, sma.create_context("b"))
        assert sma.pool.page_count == pooled
        sma.check_invariants()

    def test_large_allocation(self, sma):
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(3 * PAGE_SIZE + 1, ctx)
        assert sma.held_pages == 4
        sma.soft_free(ptr)

    def test_stats_counters(self, sma):
        ctx = sma.create_context("c")
        ptr = sma.soft_malloc(8, ctx)
        sma.soft_free(ptr)
        assert sma.stats.allocations == 1
        assert sma.stats.frees == 1

    def test_live_accounting(self, sma):
        ctx = sma.create_context("c")
        sma.soft_malloc(100, ctx)
        sma.soft_malloc(200, ctx)
        assert sma.live_bytes == 300
        assert sma.live_allocations == 2
        assert sma.soft_bytes == PAGE_SIZE  # one page held


class TestBudgetProtocol:
    def test_request_batching(self):
        """Budget requests are batched so daemon round-trips amortize
        (the case-2 effect)."""
        sma = SoftMemoryAllocator(name="t", request_batch_pages=64)
        ctx = sma.create_context("c")
        for _ in range(64 * 4):  # 64 pages of 1 KiB allocations
            sma.soft_malloc(KIB, ctx)
        assert sma.stats.daemon_requests == 1
        assert sma.budget.granted == 64

    def test_small_batch_more_requests(self):
        sma = SoftMemoryAllocator(name="t", request_batch_pages=1)
        ctx = sma.create_context("c")
        for _ in range(8 * 4):
            sma.soft_malloc(KIB, ctx)
        assert sma.stats.daemon_requests == 8

    def test_denied_request_propagates(self):
        class StingyDaemon:
            def request(self, pages):
                raise SoftMemoryDenied(1, pages, 0)

            def notify_release(self, pages):
                pass

        sma = SoftMemoryAllocator(daemon=StingyDaemon(), name="t")
        ctx = sma.create_context("c")
        with pytest.raises(SoftMemoryDenied):
            sma.soft_malloc(KIB, ctx)

    def test_under_grant_denied(self):
        class HalfDaemon:
            def request(self, pages):
                return pages // 2

            def notify_release(self, pages):
                pass

        sma = SoftMemoryAllocator(
            daemon=HalfDaemon(), name="t", request_batch_pages=1
        )
        ctx = sma.create_context("c")
        with pytest.raises(SoftMemoryDenied):
            sma.soft_malloc(PAGE_SIZE * 4, ctx)

    def test_initial_budget_used_without_requests(self):
        sma = SoftMemoryAllocator(name="t", initial_budget_pages=10)
        ctx = sma.create_context("c")
        for _ in range(10 * 4):
            sma.soft_malloc(KIB, ctx)
        assert sma.stats.daemon_requests == 0

    def test_connect_daemon_after_allocation_rejected(self, sma):
        ctx = sma.create_context("c")
        sma.soft_malloc(8, ctx)
        with pytest.raises(ProtocolError):
            sma.connect_daemon(object())  # type: ignore[arg-type]

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            SoftMemoryAllocator(request_batch_pages=0)


class TestReclamationTiers:
    """Section 3.1's ordered protocol: budget, then pool, then SDSs."""

    def test_tier1_unused_budget_first(self):
        sma = SoftMemoryAllocator(name="t", initial_budget_pages=10)
        ctx = sma.create_context("c")
        sma.soft_malloc(KIB, ctx)  # hold 1, headroom 9
        stats = sma.reclaim(5)
        assert stats.pages_from_budget == 5
        assert stats.pages_from_pool == 0
        assert stats.pages_from_sds == 0
        assert stats.allocations_freed == 0

    def test_tier2_pool_pages_next(self):
        sma = SoftMemoryAllocator(name="t", request_batch_pages=1)
        ctx = sma.create_context("c")
        ptrs = [sma.soft_malloc(PAGE_SIZE, ctx) for _ in range(8)]
        for p in ptrs:
            sma.soft_free(p)
        pool = sma.pool.page_count
        assert pool > 0
        stats = sma.reclaim(pool)
        assert stats.pages_from_pool == pool
        assert stats.allocations_freed == 0
        sma.check_invariants()

    def test_tier3_sds_frees_last(self):
        sma = SoftMemoryAllocator(name="t", request_batch_pages=1)
        lst = SoftLinkedList(sma, element_size=2048)
        for i in range(20):
            lst.append(i)
        stats = sma.reclaim(3)
        assert stats.pages_from_sds == 3
        assert stats.allocations_freed == 6  # two 2 KiB elements per page
        assert len(lst) == 14

    def test_paper_worked_example(self):
        """Section 3.1's example: two soft linked lists with 2 KiB
        elements; a 3-page demand is met by freeing the first six
        elements of the lowest-priority list."""
        sma = SoftMemoryAllocator(name="t", request_batch_pages=1)
        low = SoftLinkedList(sma, name="low", priority=1, element_size=2048)
        high = SoftLinkedList(sma, name="high", priority=9, element_size=2048)
        for i in range(100):
            low.append(("low", i))
            high.append(("high", i))
        stats = sma.reclaim(3)
        assert stats.pages_reclaimed == 3
        assert len(low) == 94  # six oldest elements freed
        assert len(high) == 100  # untouched
        assert list(low)[0] == ("low", 6)

    def test_mixed_tiers_in_order(self):
        sma = SoftMemoryAllocator(name="t", request_batch_pages=1)
        lst = SoftLinkedList(sma, element_size=2048)
        for i in range(20):
            lst.append(i)
        sma.budget.grant(2)  # 2 pages of headroom
        stats = sma.reclaim(5)
        assert stats.pages_from_budget == 2
        assert stats.pages_from_sds == 3
        assert stats.pages_reclaimed == 5

    def test_callback_invoked_per_reclaimed_allocation(self):
        freed = []
        sma = SoftMemoryAllocator(name="t", request_batch_pages=1)
        lst = SoftLinkedList(sma, element_size=2048, callback=freed.append)
        for i in range(10):
            lst.append(i)
        stats = sma.reclaim(2)
        assert freed == [0, 1, 2, 3]
        assert stats.callbacks_invoked == 4

    def test_under_fulfillment_reported(self):
        sma = SoftMemoryAllocator(name="t", request_batch_pages=1)
        lst = SoftLinkedList(sma, element_size=2048)
        for i in range(4):
            lst.append(i)
        stats = sma.reclaim(100)
        assert not stats.satisfied
        assert stats.pages_reclaimed <= 2

    def test_reclaim_shrinks_budget(self):
        sma = SoftMemoryAllocator(name="t", request_batch_pages=1)
        lst = SoftLinkedList(sma, element_size=2048)
        for i in range(20):
            lst.append(i)
        granted = sma.budget.granted
        stats = sma.reclaim(3)
        assert sma.budget.granted == granted - stats.pages_reclaimed

    def test_negative_demand_rejected(self, sma):
        with pytest.raises(ValueError):
            sma.reclaim(-1)

    def test_zero_demand_noop(self, sma):
        stats = sma.reclaim(0)
        assert stats.pages_reclaimed == 0
        assert stats.satisfied


class TestPhysicalIntegration:
    def test_frames_consumed_and_released(self):
        physical = PhysicalMemory(MIB)
        sma = SoftMemoryAllocator(
            name="t", physical=physical, request_batch_pages=1
        )
        lst = SoftLinkedList(sma, element_size=2048)
        for i in range(20):
            lst.append(i)
        assert physical.used_frames == 10
        sma.reclaim(4)
        assert physical.used_frames == 6

    def test_destroy_releases_everything(self):
        physical = PhysicalMemory(MIB)
        sma = SoftMemoryAllocator(name="t", physical=physical)
        lst = SoftLinkedList(sma, element_size=2048)
        for i in range(20):
            lst.append(i)
        sma.destroy()
        assert physical.used_frames == 0
        assert sma.budget.held == 0

    def test_rebacking_after_reclaim(self):
        """Section 4: released virtual pages are re-backed before the
        heap extends."""
        physical = PhysicalMemory(MIB)
        sma = SoftMemoryAllocator(
            name="t", physical=physical, request_batch_pages=1
        )
        lst = SoftLinkedList(sma, element_size=2048)
        for i in range(20):
            lst.append(i)
        sma.reclaim(5)
        assert sma.stats.pages_released == 5
        for i in range(20):
            lst.append(i)
        assert sma.stats.pages_rebacked == 5


class TestVoluntaryRelease:
    def test_return_excess(self):
        released = []

        class Daemon:
            def request(self, pages):
                return pages

            def notify_release(self, pages):
                released.append(pages)

        sma = SoftMemoryAllocator(daemon=Daemon(), name="t")
        ctx = sma.create_context("c")
        ptrs = [sma.soft_malloc(PAGE_SIZE, ctx) for _ in range(8)]
        for p in ptrs:
            sma.soft_free(p)
        total = sma.return_excess()
        assert total > 0
        assert released == [total]
        assert sma.pool.page_count == 0
        assert sma.budget.unused == 0
        sma.check_invariants()

    def test_return_excess_keeps_requested_pool(self):
        sma = SoftMemoryAllocator(name="t")
        ctx = sma.create_context("c")
        ptrs = [sma.soft_malloc(PAGE_SIZE, ctx) for _ in range(8)]
        for p in ptrs:
            sma.soft_free(p)
        sma.return_excess(keep_pool_pages=2)
        assert sma.pool.page_count == 2

    def test_flexibility_metric(self):
        sma = SoftMemoryAllocator(name="t", initial_budget_pages=5)
        assert sma.flexibility() == 5
        ctx = sma.create_context("c")
        sma.soft_malloc(KIB, ctx)
        assert sma.flexibility() == 4  # 4 headroom + 0 pool


class TestBatchDenialRetry:
    def test_batched_ask_shrinks_on_denial(self):
        """Near the capacity edge the opportunistic batch is denied but
        the exact need succeeds — 'almost never deny' in practice."""
        from repro.daemon.smd import SoftMemoryDaemon

        smd = SoftMemoryDaemon(soft_capacity_pages=10)
        sma = SoftMemoryAllocator(name="t", request_batch_pages=8)
        smd.register(sma)
        ctx = sma.create_context("c")
        for _ in range(10 * 4):  # 10 pages of 1 KiB allocations
            sma.soft_malloc(KIB, ctx)
        assert sma.held_pages == 10
        # the 8-page asks at 8/10 and 9/10 assigned were both denied and
        # both retried with the exact single-page need
        assert sma.stats.batch_denials == 2
        assert smd.assigned_pages == 10

    def test_true_denial_still_raises(self):
        from repro.daemon.smd import SoftMemoryDaemon

        smd = SoftMemoryDaemon(soft_capacity_pages=2)
        sma = SoftMemoryAllocator(name="t", request_batch_pages=8)
        smd.register(sma)
        ctx = sma.create_context("c")
        with pytest.raises(SoftMemoryDenied):
            for _ in range(3 * 4):
                sma.soft_malloc(KIB, ctx)
        assert sma.held_pages == 2  # got everything that existed
