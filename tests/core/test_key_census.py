"""A counted guard on what a resident key costs in traditional memory:
blocks allocated by the package, counted by tracemalloc, no clock.

The paper's Redis keeps its dict entries in soft memory and keys and
values in traditional memory. What the package itself allocates per
resident key is the bookkeeping around that data, and it should be one
block: the entry's :class:`~repro.core.pointer.SoftPtr`, whose payload
is the value and whose key is the index's own key. No record tuple, no
second age dict, no int for its id, no int for its in-page offset.

* A :class:`~repro.kvstore.store.DataStore` (second-chance tier on)
  filled with ``set`` to :data:`KEYS` resident keys of
  :data:`VALUE_BYTES`-byte values holds at most :data:`PER_KEY_BOUND`
  blocks per key allocated from files under the package (after
  ``gc.collect()``, live blocks in a ``tracemalloc`` snapshot filtered
  to the package's directory). The keys and values are made here, so
  they count against this file, not the package.
* The same holds after :data:`OVERWRITES` seeded same-size overwrites:
  a write through the handle keeps no garbage and grows nothing.

The bound leaves room for the pages (the ``Page`` and its free-extent
list, about 0.2 blocks per key at these sizes). EXPERIMENTS.md shows the
census red on the tree where an entry was a handle, a ``(key, value)``
tuple, two age-dict slots and two ints. It also runs as a script, which
prints the bytes per key of each of the package's files:
``PYTHONPATH=src python -m tests.core.test_key_census``.
"""

from __future__ import annotations

import gc
import os
import random
import sys
import tracemalloc

import repro
from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig

KEYS = 65_536
VALUE_BYTES = 100
OVERWRITES = 200_000
#: blocks the package may allocate per resident key: its handle, plus
#: its share of the pages
PER_KEY_BOUND = 1.25
#: the package's own files: what is allocated from them is bookkeeping
PACKAGE = os.path.dirname(os.path.abspath(repro.__file__))


def value(n: int) -> bytes:
    return b"%0*d" % (VALUE_BYTES, n)


def take(keys: int) -> tuple[float, dict[str, float]]:
    """Live blocks the package allocated per key, and bytes per key by
    file (relative to the package)."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, os.path.join(PACKAGE, "*"))]
    )
    stats = snapshot.statistics("filename")
    blocks = sum(stat.count for stat in stats)
    by_file = {
        os.path.relpath(stat.traceback[0].filename, PACKAGE):
            stat.size / keys
        for stat in stats
    }
    return blocks / keys, by_file


def census(
    keys: int = KEYS, overwrites: int = OVERWRITES
) -> tuple[tuple[float, dict[str, float]], tuple[float, dict[str, float]]]:
    """The package's blocks and bytes per key after the fill, and again
    after the seeded same-size overwrites."""
    tracemalloc.start()
    try:
        sma = SoftMemoryAllocator(name="key-census")
        store = DataStore(sma, StoreConfig(tier=TierConfig(enabled=True)))
        for i in range(keys):
            store.set(b"key:%d" % i, value(i))
        assert store.dbsize() == keys
        filled = take(keys)
        rng = random.Random(1)
        for __ in range(overwrites):
            key = b"key:%d" % rng.randrange(keys)
            store.set(key, value(rng.randrange(keys)))
        assert store.dbsize() == keys
        overwritten = take(keys)
    finally:
        tracemalloc.stop()
    return filled, overwritten


def test_a_resident_key_costs_its_handle_and_no_more_blocks():
    (filled, __), (overwritten, __) = census()
    assert filled <= PER_KEY_BOUND
    assert overwritten <= PER_KEY_BOUND


if __name__ == "__main__":
    version = sys.version.split()[0]
    phases = census()
    for phase, (blocks, by_file) in zip(("fill", "overwrites"), phases):
        verdict = "ok" if blocks <= PER_KEY_BOUND else "RED"
        total = sum(by_file.values())
        print(
            f"{version} {KEYS:,} keys after {phase}: {blocks:.3f} blocks per "
            f"key (bound {PER_KEY_BOUND}) {verdict}; {total:.1f} B per key"
        )
        for name, size in sorted(by_file.items(), key=lambda kv: -kv[1]):
            if size >= 0.05:
                print(f"    {size:8.1f} B/key  {name}")
