"""Tests for the adaptive SDS reclamation tier.

The SMA drafts contexts lowest-priority-first and spills any shortfall
over to the next context — including shortfalls the static page count
cannot predict (no reclaim handler installed, pinned allocations).
"""

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.sds.soft_linked_list import SoftLinkedList
from repro.util.units import PAGE_SIZE


@pytest.fixture
def sma():
    return SoftMemoryAllocator(name="spill-test", request_batch_pages=1)


class TestAdaptiveSpillover:
    def test_handlerless_context_yields_only_free_pages(self, sma):
        raw = sma.create_context("raw", priority=0)
        ptrs = [sma.soft_malloc(PAGE_SIZE, raw, i) for i in range(4)]
        sma.soft_free(ptrs[0])  # one harvestable page
        backup = SoftLinkedList(
            sma, name="backup", priority=9, element_size=PAGE_SIZE
        )
        for i in range(4):
            backup.append(i)
        stats = sma.reclaim(3)
        # raw gave its 1 free page; the other 2 spilled to the list
        assert stats.pages_reclaimed == 3
        assert len(backup) == 2
        assert sum(1 for p in ptrs[1:] if p.valid) == 3  # live raw survive

    def test_pinned_shortfall_spills_over(self, sma):
        low = SoftLinkedList(sma, name="low", priority=0,
                             element_size=PAGE_SIZE)
        pinned_ptrs = [low.append(i) for i in range(3)]
        for ptr in pinned_ptrs:
            ptr.pins += 1
        high = SoftLinkedList(sma, name="high", priority=5,
                              element_size=PAGE_SIZE)
        for i in range(5):
            high.append(i)
        stats = sma.reclaim(4)
        assert stats.pages_reclaimed == 4
        assert len(low) == 3  # fully pinned, untouched
        assert len(high) == 1  # absorbed the whole quota
        for ptr in pinned_ptrs:
            ptr.pins -= 1

    def test_empty_contexts_skipped_without_stats_noise(self, sma):
        sma.create_context("empty-a")
        sma.create_context("empty-b")
        lst = SoftLinkedList(sma, name="holder", element_size=PAGE_SIZE)
        for i in range(3):
            lst.append(i)
        stats = sma.reclaim(2)
        assert stats.contexts_touched == 1
        assert stats.per_context == [("holder", 2)]

    def test_priority_order_still_respected(self, sma):
        names_in_order = []
        for priority in (7, 1, 4):
            lst = SoftLinkedList(
                sma, name=f"p{priority}", priority=priority,
                element_size=PAGE_SIZE,
            )
            lst.append(0)
            lst.append(1)
        stats = sma.reclaim(6)
        names_in_order = [name for name, __ in stats.per_context]
        assert names_in_order == ["p1", "p4", "p7"]
