"""Section 7 features tour: references, Saches, groups, and pinning.

The paper's open-questions section sketches four mechanisms this
library implements; this example exercises each:

1. tracked pointers — a `SoftPtr` dereference after reclamation raises
   instead of reading freed memory;
2. language integration — `SoftReference.get()` returns None (never
   raises) and a `ReferenceQueue` tells the app what was reclaimed;
   the `Sache` builds transparent recomputation on top;
3. composition — allocation groups reclaim entry+key+value atomically;
4. concurrency — a `DerefScope` pins a value against reclamation.

Run:  python examples/soft_references.py
"""

from repro import (
    DerefScope,
    ReclaimedMemoryError,
    ReferenceQueue,
    Sache,
    SoftLinkedList,
    SoftMemoryAllocator,
)


def main() -> None:
    sma = SoftMemoryAllocator(name="tour", request_batch_pages=1)

    # -- 1. tracked pointers ------------------------------------------
    ctx = sma.create_context("raw", priority=0)
    ptr = sma.soft_malloc(2048, ctx, payload={"rows": [1, 2, 3]})
    print("deref before reclaim:", ptr.deref())
    sma.reclaim_free(ptr)
    try:
        ptr.deref()
    except ReclaimedMemoryError as exc:
        print(f"deref after reclaim raises: {exc}")

    # -- 2. soft references + reference queue ---------------------------
    queue = ReferenceQueue()
    blobs = SoftLinkedList(sma, name="blobs", element_size=2048,
                           priority=5)  # more important than the sache
    refs = []
    for i in range(6):
        p = blobs.append(f"blob-{i}")
        refs.append(sma.soft_reference(p, queue=queue, tag=f"blob-{i}"))
    sma.reclaim(2)  # four oldest blobs die
    print("reference.get() after reclaim:",
          [r.get() for r in refs])
    print("reference queue delivered:",
          [r.tag for r in queue.drain()])

    # -- 2b. the Sache: reclamation becomes recomputation ----------------
    def expensive(key: int) -> str:
        return f"rendered-page-{key}"

    sache = Sache(sma, expensive, entry_size=2048)
    for i in range(8):
        sache.get(i)
    sma.reclaim(2)
    values = [sache.get(i) for i in range(8)]  # always answers
    print(f"sache answered all {len(values)} keys; "
          f"recomputations={sache.recomputations} (8 initial + 4 reclaimed)")

    # -- 3. allocation groups: composition-safe reclamation ---------------
    table = sma.create_context("table")
    entry = sma.soft_malloc(64, table, payload="entry-record")
    key = sma.soft_malloc(64, table, payload="key-bytes")
    value = sma.soft_malloc(64, table, payload="value-bytes")
    sma.groups.group(entry, key, value)
    sma.reclaim_free(key)  # reclaiming ANY member takes all three
    print("group after reclaiming one member:",
          entry.valid, key.valid, value.valid)

    # -- 4. pinning against reclamation ----------------------------------
    ctx4 = sma.create_context("pinned")
    precious = sma.soft_malloc(2048, ctx4, payload="do-not-drop")
    # the SDS keeps its own pointers, oldest first: the heap only counts
    oldest_first = [
        precious, sma.soft_malloc(2048, ctx4, payload="expendable")
    ]

    def evict_unpinned(quota):
        for ptr in oldest_first:
            if ctx4.heap.free_page_count >= quota:
                break
            if not ptr.pinned:
                sma.reclaim_free(ptr)
        return ctx4.heap.free_page_count

    ctx4.reclaim_handler = evict_unpinned
    with DerefScope(precious) as (held,):
        sma.reclaim(sma.reclaimable_pages())
        print(f"under maximal reclamation, pinned value survived: {held!r}")
    assert precious.valid

    sma.check_invariants()
    print("all section 7 mechanisms behaved; ledgers consistent")


if __name__ == "__main__":
    main()
