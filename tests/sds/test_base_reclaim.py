"""Tests for the SDS base class reclaim contract."""

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.sds.base import SoftDataStructure
from repro.sds.soft_linked_list import SoftLinkedList


class CountingSds(SoftDataStructure):
    """Minimal SDS that evicts synthetic elements and counts calls."""

    def __init__(self, sma, elements=0, element_size=2048, **kwargs):
        super().__init__(sma, name="counting", **kwargs)
        self._ptrs = [
            self._alloc(element_size, i) for i in range(elements)
        ]
        self.evict_calls = 0

    def evict_one(self) -> bool:
        self.evict_calls += 1
        while self._ptrs:
            ptr = self._ptrs.pop(0)
            if ptr.valid and not ptr.pinned:
                self._reclaim_ptr(ptr)
                return True
        return False


@pytest.fixture
def sma():
    return SoftMemoryAllocator(name="base-test", request_batch_pages=1)


class TestReclaimContract:
    def test_handler_installed_on_context(self, sma):
        sds = CountingSds(sma)
        assert sds.context.reclaim_handler is not None

    def test_reclaim_pages_evicts_until_quota(self, sma):
        sds = CountingSds(sma, elements=10)  # 2 per page, 5 pages
        got = sds._reclaim_pages(2)
        assert got >= 2
        assert sds.evict_calls == 4

    def test_reclaim_pages_stops_when_exhausted(self, sma):
        sds = CountingSds(sma, elements=2)
        got = sds._reclaim_pages(100)
        assert got == 1
        assert sds.evictions == 2

    def test_reclaim_bytes_interface(self, sma):
        sds = CountingSds(sma, elements=10)
        freed = sds.reclaim(2048 * 3)
        assert freed == 2048 * 3
        assert sds.evictions == 3

    def test_reclaim_bytes_negative_rejected(self, sma):
        sds = CountingSds(sma)
        with pytest.raises(ValueError):
            sds.reclaim(-1)

    def test_reclaim_zero_is_noop(self, sma):
        sds = CountingSds(sma, elements=2)
        assert sds.reclaim(0) == 0
        assert sds.evictions == 0

    def test_soft_accounting_properties(self, sma):
        sds = CountingSds(sma, elements=4)
        assert sds.soft_bytes == 4 * 2048
        assert sds.soft_pages == 2
        assert sds.name == "counting"

    def test_priority_passthrough(self, sma):
        sds = CountingSds(sma, priority=7)
        assert sds.priority == 7
        assert sds.context.priority == 7


class TestMultiSdsInteraction:
    def test_priority_ordering_across_structures(self, sma):
        critical = SoftLinkedList(
            sma, name="critical", priority=10, element_size=2048
        )
        disposable = SoftLinkedList(
            sma, name="disposable", priority=0, element_size=2048
        )
        for i in range(10):
            critical.append(i)
            disposable.append(i)
        sma.reclaim(3)
        assert len(disposable) == 4
        assert len(critical) == 10

    def test_spillover_to_higher_priority(self, sma):
        low = SoftLinkedList(sma, name="low", priority=0, element_size=2048)
        high = SoftLinkedList(sma, name="high", priority=5, element_size=2048)
        for i in range(4):
            low.append(i)
        for i in range(10):
            high.append(i)
        sma.reclaim(5)  # low only covers 2 pages
        assert len(low) == 0
        assert len(high) == 4

    def test_contexts_touched_stat(self, sma):
        a = SoftLinkedList(sma, name="a", priority=0, element_size=2048)
        b = SoftLinkedList(sma, name="b", priority=1, element_size=2048)
        for i in range(4):
            a.append(i)
            b.append(i)
        stats = sma.reclaim(3)
        assert stats.contexts_touched == 2
        assert [name for name, __ in stats.per_context] == ["a", "b"]
