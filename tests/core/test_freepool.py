"""Tests for the process-global free page pool."""

import pytest

from repro.core.freepool import FreePool
from repro.mem.page import Page
from repro.mem.placer import PagePlacer


class TestFreePool:
    def test_put_take(self):
        pool = FreePool()
        pages = [Page() for _ in range(3)]
        pool.put(pages)
        assert pool.page_count == 3
        taken = pool.take(2)
        assert len(taken) == 2
        assert pool.page_count == 1

    def test_take_more_than_available(self):
        pool = FreePool()
        pool.put([Page()])
        assert len(pool.take(5)) == 1
        assert pool.page_count == 0

    def test_take_zero(self):
        pool = FreePool()
        pool.put([Page()])
        assert pool.take(0) == []

    def test_take_negative_rejected(self):
        with pytest.raises(ValueError):
            FreePool().take(-1)

    def test_dirty_page_rejected(self):
        pool = FreePool()
        placer = PagePlacer()
        placer.add_page(Page())
        page, __ = placer.place(10)
        with pytest.raises(ValueError):
            pool.put([page])

    def test_drain(self):
        pool = FreePool()
        pool.put([Page(), Page()])
        drained = pool.drain()
        assert len(drained) == 2
        assert pool.page_count == 0

    def test_pooled_pages_tagged(self):
        pool = FreePool()
        page = Page(owner="heap:x")
        pool.put([page])
        assert page.owner == "free-pool"

    def test_len(self):
        pool = FreePool()
        assert len(pool) == 0
        pool.put([Page()])
        assert len(pool) == 1
