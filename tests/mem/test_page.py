"""Tests for page occupancy tracking.

A page's live-allocation count is kept by the placer that owns it, so
the occupancy tests drive their page through a one-page placer.
"""

import pytest

from repro.mem.page import Page
from repro.mem.placer import PagePlacer
from repro.util.units import PAGE_SIZE


def owned_page() -> tuple[PagePlacer, Page]:
    placer, page = PagePlacer(owner="test"), Page()
    placer.add_page(page)
    return placer, page


class TestPage:
    def test_fresh_page_is_free(self):
        page = Page()
        assert page.is_free
        assert page.used_bytes == 0
        assert page.free_bytes == PAGE_SIZE
        assert page.live_allocs == 0

    def test_unique_ids(self):
        assert Page().page_id != Page().page_id

    def test_place_tracks_allocs_and_bytes(self):
        placer, page = owned_page()
        assert placer.place(100) == (page, 0)
        assert page.live_allocs == 1
        assert page.used_bytes == 100
        assert not page.is_free

    def test_remove_returns_to_free(self):
        placer, page = owned_page()
        placer.free(*placer.place(100), 100)
        assert page.is_free
        assert page.used_bytes == 0

    def test_place_when_full_returns_none(self):
        placer, page = owned_page()
        placer.place(PAGE_SIZE)
        assert placer.place(1) is None
        assert page.live_allocs == 1  # failed place does not count

    def test_two_kib_elements_two_per_page(self):
        # The paper's section 3.1 example: 2 KiB list elements, two per page.
        placer, page = owned_page()
        assert placer.place(2048) is not None
        assert placer.place(2048) is not None
        assert placer.place(1) is None
        assert page.live_allocs == 2

    def test_remove_without_allocs_rejected(self):
        placer, page = owned_page()
        with pytest.raises(ValueError):
            placer.free(page, 0, 10)

    def test_reset(self):
        placer, page = owned_page()
        placer.place(500)
        page.reset()
        assert page.is_free
        assert page.free_bytes == PAGE_SIZE

    def test_owner_tag(self):
        page = Page(owner="heap:test")
        assert page.owner == "heap:test"
        assert "heap:test" in repr(page)

    def test_invariants_on_fresh_and_used(self):
        placer, page = owned_page()
        page.check_invariants()
        placed = placer.place(64)
        page.check_invariants()
        placer.free(*placed, 64)
        page.check_invariants()

    def test_fragmentation_after_interior_free(self):
        placer, page = owned_page()
        first = placer.place(1024)
        placer.place(1024)
        placer.free(*first, 1024)
        assert page.fragmentation() > 0.0
