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
  whole window is too full, and asked again with nothing changed in
  between it visits no page at all: the placer remembers the smallest
  size its window missed and answers a larger ask with one compare —
  on a squeezed store that is what most stub reads are. A ``free``
  anywhere, or a fill that takes a page out of the window, makes it
  ask the window again.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.mem.extent import ExtentMap
from repro.mem.page import Page
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


def fragmented_heap(held: list | None = None):
    """One context over ten full-looking pages, oldest first:

    * ``home`` — eight live 512-byte extents, full, not open;
    * eight *holed* pages — every other extent freed, so 2 KiB free in
      four 512-byte holes: room by the byte count, none by the walk;
    * ``brim`` — one extent freed, 512 bytes free, the newest open page.

    The scan window (newest eight open pages) is ``brim`` plus the seven
    newest holed pages. ``held``, when given, receives every pointer
    still live.
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
    if held is not None:
        held.extend(ptr for extents in pages for ptr in extents if ptr.valid)
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


@pytest.fixture
def visits():
    """Window pages a placer's first fit looks at, once :func:`watch`
    has swapped its open set for one that counts them."""
    seen: Counter = Counter()

    class CountingOpen(dict):
        def __reversed__(self):
            for page in super().__reversed__():
                seen[page] += 1
                yield page

    def watch(context) -> None:
        placer = context.heap._placer
        placer._open = CountingOpen(placer._open)

    seen.watch = watch
    return seen


def live_at(held, page, offset):
    return next(
        ptr for ptr in held if ptr.page is page and ptr.offset == offset
    )


def test_a_repeated_denial_walks_nothing_and_visits_no_page(walks, visits):
    sma, context, home, holed, brim = fragmented_heap()
    visits.watch(context)
    walks.clear()
    # the window's holed pages have 2 KiB free in 512-byte holes: the
    # first ask walks each of them once and misses
    assert not sma.soft_promote(home[0], 2 * SLOT)
    assert set(walks) == set(holed[1:]) and max(walks.values()) == 1
    assert set(visits) == {brim, *holed[1:]}
    walks.clear()
    visits.clear()
    for size in (2 * SLOT, 3 * SLOT, 6 * SLOT):
        assert not sma.soft_promote(home[0], size)
    assert not walks, sorted(walks.values())
    assert not visits, sorted(visits.values())
    assert page_of(home[0]) is page_of(home[1]) and home[0].offset == 0
    context.heap.check_invariants()


def test_a_fill_that_moves_the_window_asks_it_again(walks):
    held = []
    sma, context, home, holed, brim = fragmented_heap(held)
    # the oldest holed page, out of the window, gets a 1.5 KiB hole
    sma.soft_free(live_at(held, holed[0], SLOT))
    assert not sma.soft_promote(home[0], 2 * SLOT)
    # filling ``brim`` takes it out of the open set, and ``holed[0]``
    # becomes the window's eighth page
    filler = sma.soft_malloc(SLOT, context)
    assert page_of(filler) is brim
    walks.clear()
    assert sma.soft_promote(home[0], 2 * SLOT)
    assert page_of(home[0]) is holed[0] and home[0].offset == 0
    assert walks[holed[0]] == 1
    assert context.heap.page_count == 10
    context.heap.check_invariants()


@pytest.mark.parametrize("where", ["in the window", "outside it"])
def test_a_free_anywhere_asks_the_window_again(walks, visits, where):
    held = []
    sma, context, home, holed, brim = fragmented_heap(held)
    visits.watch(context)
    assert not sma.soft_promote(home[0], 2 * SLOT)
    page = holed[-1] if where == "in the window" else holed[0]
    sma.soft_free(live_at(held, page, SLOT))  # joins two holes
    walks.clear()
    visits.clear()
    promoted = sma.soft_promote(home[0], 2 * SLOT)
    assert visits, "the free left the miss standing"
    if where == "in the window":
        assert promoted and page_of(home[0]) is page
    else:
        assert not promoted and walks[page] == 0
        assert set(walks) == set(holed[1:])
    context.heap.check_invariants()


def placer_over(*layouts):
    """A placer over one page per layout, oldest first: ``x`` a live
    512-byte extent, ``.`` a free one."""
    placer = PagePlacer()
    pages = []
    for __ in layouts:  # each page is filled while it is the only open one
        page = Page()
        placer.add_page(page)
        for __ in range(SLOTS_PER_PAGE):
            placer.place(SLOT)
        pages.append(page)
    for page, layout in zip(pages, layouts):
        for slot, mark in enumerate(layout):
            if mark == ".":
                placer.free(page, slot * SLOT, SLOT)
    return placer, pages


@pytest.mark.parametrize("new_size", [SLOT // 2, 2 * SLOT])
def test_an_in_place_resize_that_adds_room_or_fills_a_page_asks_again(
    new_size,
):
    """The oldest page has a 1 KiB hole, out of the window; the eight in
    it have one 512-byte hole each, behind the extent at offset 0. A
    shrink of that extent joins its tail to the hole; a grow into the
    hole fills the page, and the oldest page enters the window."""
    placer, (oldest, *window) = placer_over(
        "..xxxxxx", *["x.xxxxxx"] * SLOTS_PER_PAGE
    )
    ask = 3 * SLOT // 2
    assert placer.place(ask) is None
    assert placer.resize(window[-1], 0, SLOT, new_size)
    placer.check_invariants()
    if new_size < SLOT:
        assert placer.place(ask) == (window[-1], new_size)
    else:
        assert placer.place(ask) == (oldest, 0)
