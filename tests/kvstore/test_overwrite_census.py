"""A structural guard on a resident overwrite: bytecodes counted, no clock.

A SET of a key that is already resident is the durable workload's one
write. It goes ``DataStore.set`` → ``SoftDict.upsert`` and, when the
value's size changes, ``soft_resize`` → ``SdsHeap.resize`` →
``PagePlacer.resize``: one question per layer, answered in place when
the page has room behind the extent. A replica pays the same chain for
every ``W`` of its master's stream, through ``apply_stream``. This file
counts the bytecodes (``test_batch_census.opcodes``: every frame the
call makes, GC off) of:

* one resident SET that grows in place, one that shrinks in place and
  one of the same size, each through ``DataStore.set`` in a 4-key and
  a 65,536-key store. A count may not depend on the store's size, and
  each stays under its ceiling in :data:`CEILINGS`;
* one ``W`` applied through ``apply_stream``, per record, less what the
  codec's reader (``read_records``, bounded by ``READ_CEILING`` in
  ``tests/persist/test_codec.py``) spends on the same bytes.

The ceilings are 1.03 × the largest count of CPython 3.10, 3.11 and
3.12 on the tree that inlined the plain SET and dropped the heap's
per-allocation registry; the tree before it reads red on every one
(EXPERIMENTS.md has both columns). That the heap holds nothing per
allocation is pinned by size, not by bytecodes, in
``tests/core/test_heap.py``
(``test_the_heap_holds_nothing_per_allocation``). It runs as a
script, for interpreters without pytest:
``PYTHONPATH=src python -m tests.kvstore.test_overwrite_census``.
"""

from __future__ import annotations

import sys
from functools import cache

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.persist.codec import EXP_NONE, encode_write, read_records
from repro.kvstore.repl.link import apply_stream
from repro.kvstore.repl.state import ReplicationState
from repro.kvstore.store import DataStore
from tests.kvstore.test_batch_census import opcodes

SMALL, LARGE = b"s" * 100, b"L" * 180
SIZES = (4, 65_536)
#: bytecodes per scenario: 1.03 × the largest of 3.10, 3.11 and 3.12
#: (3.11's 304, 335, 145 and 349.3)
CEILINGS = {
    "grow": 314,
    "shrink": 346,
    "same size": 150,
    "apply W": 360,
}
#: ``W`` records in the applied batch, alternately growing and shrinking
BATCH = 16


def resident(keys: int) -> tuple[DataStore, bytes]:
    """A store of ``keys`` keys and the newest one, which has the free
    tail of its page behind it."""
    store = DataStore(SoftMemoryAllocator(name="overwrite-census"))
    for i in range(keys):
        store.set(b"k%d" % i, SMALL)
    return store, b"k%d" % (keys - 1)


def set_counts(keys: int) -> dict[str, int]:
    """Bytecodes of a growing, a shrinking and a same-size SET of a
    resident key, each resized where it lies."""
    store, key = resident(keys)
    for __ in range(3):
        store.set(key, LARGE)
        store.set(key, SMALL)
    # 3.12 reports no opcode in the first tracing session of a process
    opcodes(store.set, key, SMALL)
    ptr = store.keyspace._index[key]
    where = ptr.page, ptr.offset
    counts = {
        "grow": opcodes(store.set, key, LARGE),
        "shrink": opcodes(store.set, key, SMALL),
        "same size": opcodes(store.set, key, SMALL),
    }
    assert (ptr.page, ptr.offset) == where, "the overwrite moved"
    assert store.get(key) == SMALL
    return counts


def apply_count() -> float:
    """Bytecodes ``apply_stream`` spends per ``W`` beyond the reader, on
    a replica whose newest key the batch grows and shrinks in place."""
    store, key = resident(4)
    state = ReplicationState()
    state.become_replica("127.0.0.1", 1)
    store.repl = state
    out = bytearray()
    for i in range(BATCH):
        encode_write(out, key, SMALL if i % 2 else LARGE, EXP_NONE)
    data = bytes(out)
    for __ in range(3):
        assert apply_stream(store, state, data, 0) == len(data)
    opcodes(read_records, data)
    applied = opcodes(apply_stream, store, state, data, 0)
    assert store.get(key) == SMALL
    return (applied - opcodes(read_records, data)) / BATCH


@cache
def counts() -> dict[int, dict[str, int]]:
    """Store size -> scenario -> bytecodes, built once."""
    return {keys: set_counts(keys) for keys in SIZES}


def test_a_resident_set_costs_the_same_at_every_store_size():
    small, large = (counts()[keys] for keys in SIZES)
    assert small == large, counts()


def test_a_resident_set_stays_under_its_ceiling():
    over = {
        name: count
        for name, count in counts()[SIZES[0]].items()
        if count > CEILINGS[name]
    }
    assert not over, (over, CEILINGS)


def test_a_replica_applies_a_write_under_its_ceiling():
    assert apply_count() <= CEILINGS["apply W"], apply_count()


if __name__ == "__main__":
    version = sys.version.split()[0]
    ok = counts()[SIZES[0]] == counts()[SIZES[1]]
    for keys in SIZES:
        for name, count in counts()[keys].items():
            print(f"{version} {keys:,} keys: {name} {count} "
                  f"(ceiling {CEILINGS[name]})")
            ok = ok and count <= CEILINGS[name]
    print(f"{version} apply W: {apply_count():.1f} per record "
          f"(ceiling {CEILINGS['apply W']})")
    ok = ok and apply_count() <= CEILINGS["apply W"]
    print("ok" if ok else "RED")
