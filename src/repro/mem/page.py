"""One mapped page with byte-granularity occupancy tracking.

The paper's efficacy argument (section 3.1) hinges on knowing, per page,
whether every allocation inside it has been freed — only *entirely free*
pages can be returned to the operating system. A :class:`Page` is
therefore an :class:`ExtentMap` of one page's bytes plus a live
allocation count; the placer that owns the page keeps the count where
it places and frees.
"""

from __future__ import annotations

import itertools

from repro.mem.extent import ExtentMap
from repro.util.units import PAGE_SIZE

_page_ids = itertools.count(1)


class Page(ExtentMap):
    """A physical-frame-backed page usable for intra-page allocation.

    Pages are identity objects: two pages are equal only if they are the
    same object. ``owner`` is a free-form debugging tag naming the heap or
    pool currently holding the page.
    """

    __slots__ = ("page_id", "owner", "live_allocs")

    def __init__(self, owner: str = "") -> None:
        super().__init__(PAGE_SIZE)
        self.page_id: int = next(_page_ids)
        self.owner = owner
        self.live_allocs = 0

    def __repr__(self) -> str:
        return (
            f"<Page {self.page_id} owner={self.owner!r} "
            f"allocs={self.live_allocs} used={self.used_bytes}B>"
        )

    @property
    def is_free(self) -> bool:
        """True when no live allocation remains — reclaimable as a page."""
        return self.live_allocs == 0

    def reset(self) -> None:
        """Drop all occupancy state (used when a page changes hands)."""
        super().__init__(PAGE_SIZE)
        self.live_allocs = 0

    def check_invariants(self) -> None:
        super().check_invariants()
        assert self.live_allocs >= 0
        if self.live_allocs == 0:
            assert self.used_bytes == 0, "free page with used bytes"
