"""A structural guard on the allocator's scan: walks counted, no clock.

First fit probes at most ``SCAN_LIMIT`` pages per placement, and a probe
that has to walk a page's free list is the allocator's one loop. What
this file pins is how often that loop runs — per operation, per page —
through a stand-in free list that counts its own iterations:

* a page whose ``free_bytes`` is below the size asked is passed over
  by one compare, its free list never walked;
* every other page of the window is walked at most once per
  ``soft_malloc`` / ``soft_resize``, a miss that ends in provisioning
  included (the layers above the placer do not ask it the same
  question again);
* a ``soft_resize`` that stays in place walks nothing and asks
  ``place`` nothing; one that cannot stay costs exactly the
  free-then-place it did before the in-place try existed;
* a ``soft_promote`` the heap has no room for walks nothing when the
  whole window is too full — on a squeezed store that is what most
  stub reads are.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.mem.extent import ExtentMap
from repro.mem.placer import PagePlacer

SLOT = 512
SLOTS_PER_PAGE = 8


class CountingFreeList(list):
    """A free list that counts the walks over it, under its owner's key."""

    def __init__(self, extents, owner, walks: Counter) -> None:
        super().__init__(extents)
        self._owner = owner
        self._walks = walks

    def __iter__(self):
        self._walks[self._owner] += 1
        return super().__iter__()


@pytest.fixture
def walks(monkeypatch) -> Counter:
    """Free-list walks per extent map, for every map made from here on."""
    counts: Counter = Counter()
    real_init = ExtentMap.__init__

    def counting_init(self, capacity: int) -> None:
        real_init(self, capacity)
        self._free = CountingFreeList(self._free, self, counts)

    monkeypatch.setattr(ExtentMap, "__init__", counting_init)
    return counts


def fragmented_heap():
    """One context over ten full-looking pages, oldest first:

    * ``home`` — eight live 512-byte extents, full, not open;
    * eight *holed* pages — every other extent freed, so 2 KiB free in
      four 512-byte holes: room by the byte count, none by the walk;
    * ``brim`` — one extent freed, 512 bytes free, the newest open page.

    The scan window (newest eight open pages) is ``brim`` plus the seven
    newest holed pages.
    """
    sma = SoftMemoryAllocator(name="scan-guard", request_batch_pages=1)
    context = sma.create_context("c")
    pages = [
        [sma.soft_malloc(SLOT, context) for _ in range(SLOTS_PER_PAGE)]
        for _ in range(10)
    ]
    home, *holed, brim = pages
    for extents in holed:
        for ptr in extents[::2]:
            sma.soft_free(ptr)
    sma.soft_free(brim[0])
    assert PagePlacer.SCAN_LIMIT == 8, "the fixture is cut to the window"
    assert context.heap.page_count == 10 and context.heap.free_page_count == 0
    holed_pages = [page_of(extents[-1]) for extents in holed]
    return sma, context, home, holed_pages, page_of(brim[-1])


def page_of(ptr):
    return ptr.page


def test_a_malloc_that_misses_walks_each_window_page_once(walks):
    sma, context, __, holed, brim = fragmented_heap()
    walks.clear()
    ptr = sma.soft_malloc(2 * SLOT, context)
    new_page = page_of(ptr)
    assert context.heap.page_count == 11, "the miss did not provision"
    assert max(walks.values()) == 1, sorted(walks.values())
    assert walks[brim] == 0, "a page too full to matter was walked"
    assert walks[holed[0]] == 0, "the scan left its window"
    assert set(walks) == {new_page, *holed[1:]}


def test_a_resize_that_misses_walks_each_window_page_once(walks):
    sma, context, home, holed, brim = fragmented_heap()
    home_page = page_of(home[0])
    walks.clear()
    # the old extent is freed first, which re-opens ``home`` as the
    # newest page with 512 bytes free: in the window, too full to matter
    sma.soft_resize(home[0], 2 * SLOT)
    new_page = page_of(home[0])
    assert context.heap.page_count == 11, "the miss did not provision"
    assert max(walks.values()) == 1, sorted(walks.values())
    assert walks[home_page] == 0 and walks[brim] == 0
    assert set(walks) == {new_page, *holed[2:]}


def test_a_denied_promotion_over_a_full_window_walks_nothing(walks):
    sma, context, home, __, ___ = fragmented_heap()
    before = home[0].page, home[0].offset
    walks.clear()
    # no window page has 3 KiB free: eight compares, no walk, no page
    assert not sma.soft_promote(home[0], 6 * SLOT)
    assert not walks, sorted(walks.values())
    assert home[0].page is before[0] and home[0].offset == before[1]
    assert context.heap.page_count == 10


@pytest.fixture
def places(monkeypatch) -> list:
    """Sizes ``PagePlacer.place`` was asked for, from here on."""
    asked: list = []
    real_place = PagePlacer.place

    def counting_place(self, size: int):
        asked.append(size)
        return real_place(self, size)

    monkeypatch.setattr(PagePlacer, "place", counting_place)
    return asked


def test_an_in_place_resize_walks_nothing_and_places_nothing(walks, places):
    sma, context, home, __, ___ = fragmented_heap()
    home_page = page_of(home[0])
    walks.clear()
    places.clear()
    # a shrink frees its tail; the grow back takes that tail again
    for size in (SLOT // 2, SLOT):
        sma.soft_resize(home[0], size)
        assert page_of(home[0]) is home_page
        assert home[0].offset == 0
    assert not walks, sorted(walks.values())
    assert places == []
    assert context.heap.page_count == 10


def test_a_resize_that_cannot_stay_costs_what_free_then_place_does(
    walks, places
):
    """The in-place try is one bisect, then the old path runs as it did:
    one ``place`` that misses, provisioning, one ``place`` that lands —
    and the walks of the miss test above."""
    sma, context, home, holed, brim = fragmented_heap()
    home_page = page_of(home[0])
    walks.clear()
    places.clear()
    sma.soft_resize(home[0], 2 * SLOT)  # home[1] is live behind it
    assert places == [2 * SLOT, 2 * SLOT]
    assert max(walks.values()) == 1, sorted(walks.values())
    assert walks[home_page] == 0 and walks[brim] == 0
    assert set(walks) == {page_of(home[0]), *holed[2:]}
