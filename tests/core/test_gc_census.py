"""A structural guard on what a soft allocation costs the collector:
tracked objects counted, no clock.

CPython's cyclic collector visits every container object it tracks,
and a full collection visits them all, so each object a resident key
keeps alive is paid again by every full collection while the keyspace
grows. A soft allocation is one :class:`~repro.core.pointer.SoftPtr`:
its placement, payload and lifecycle state live in the handle's own
slots. This file pins that:

* a :class:`~repro.kvstore.store.DataStore` (second-chance tier on)
  filled with ``set`` to :data:`KEYS` resident keys of
  :data:`VALUE_BYTES`-byte values adds at most :data:`PER_KEY_BOUND`
  tracked objects per key (after ``gc.collect()``, counted by
  ``len(gc.get_objects())``) beyond the pages the keys fill. A page is
  :data:`PAGE_OBJECTS` tracked objects, the :class:`~repro.mem.page.Page`
  and its free-extent list, whatever it holds; at these sizes the pages
  add another 0.08 per key, which the script prints beside the count;
* a small ``soft_malloc`` into a page the heap already owns adds one
  tracked object, the handle, on both placers.

EXPERIMENTS.md shows the census red on the tree where an allocation
was a handle, an ``Allocation``, a ``Placement`` and a one-page tuple.
It also runs as a script, for interpreters without pytest:
``PYTHONPATH=src python -m tests.core.test_gc_census``.
"""

from __future__ import annotations

import gc
import sys

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig
from repro.mem.placer import PagePlacer
from repro.mem.sizeclass import SizeClassPlacer

KEYS = 65_536
VALUE_BYTES = 100
#: tracked objects a key may add: its handle, and nothing else
PER_KEY_BOUND = 1.05
#: tracked objects a page adds: the ``Page`` and its free-extent list
PAGE_OBJECTS = 2
PLACERS = (PagePlacer, SizeClassPlacer)


def tracked() -> int:
    """Objects the collector tracks once garbage is gone."""
    gc.collect()
    return len(gc.get_objects())


def fill_census(keys: int = KEYS) -> tuple[float, float]:
    """Tracked objects a ``DataStore`` adds per resident key beyond its
    pages, and the pages' own share per key."""
    sma = SoftMemoryAllocator(name="gc-census")
    store = DataStore(sma, StoreConfig(tier=TierConfig(enabled=True)))
    before = tracked()
    for i in range(keys):
        store.set(b"key:%d" % i, b"%0*d" % (VALUE_BYTES, i))
    added = tracked() - before
    assert store.dbsize() == keys
    pages = PAGE_OBJECTS * sma.stats.pages_mapped
    return (added - pages) / keys, pages / keys


def malloc_census(placer) -> tuple[int, bool]:
    """Tracked objects one small ``soft_malloc`` adds once its heap owns
    a page of the size, and whether the handle is one of them."""
    sma = SoftMemoryAllocator(name="gc-census", placer_factory=placer)
    context = sma.create_context("c")
    sma.soft_malloc(64, context)  # pages provisioned, slab formed
    before = tracked()
    ptr = sma.soft_malloc(64, context)
    return tracked() - before, gc.is_tracked(ptr)


def test_a_resident_key_costs_one_tracked_object():
    per_key, __ = fill_census()
    assert per_key <= PER_KEY_BOUND


def test_a_small_malloc_adds_the_handle_and_nothing_else():
    for placer in PLACERS:
        assert malloc_census(placer) == (1, True), placer.__name__


if __name__ == "__main__":
    version = sys.version.split()[0]
    per_key, page_share = fill_census()
    verdict = "ok" if per_key <= PER_KEY_BOUND else "RED"
    print(
        f"{version} {KEYS:,} keys: {per_key:.3f} tracked objects per key "
        f"beyond pages (bound {PER_KEY_BOUND}) {verdict}; the pages add "
        f"{page_share:.3f} more"
    )
    for placer in PLACERS:
        added, is_handle = malloc_census(placer)
        verdict = "ok" if (added, is_handle) == (1, True) else "RED"
        print(
            f"{version} {placer.__name__}: one soft_malloc adds {added} "
            f"{verdict}"
        )
