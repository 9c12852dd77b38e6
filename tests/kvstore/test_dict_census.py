"""A structural guard on the keyspace probe: bytecodes counted, no clock.

Every GET and SET reaches :class:`~repro.kvstore.dict.SoftDict` once.
Its index is one dict from key to the entry's soft pointer, so what a
hit costs must not depend on where the key sits: not on how many keys
the dict holds, not on a neighbour whose hash shares the key's low
bits, and not on a resize of the index. This file counts the bytecodes
(``test_batch_census.opcodes``: every frame the call makes) of one
``get`` hit and one same-size ``upsert`` overwrite of the same key, and
pins each count as equal across three dicts:

* a key in a 4-key dict;
* a key in a 65,536-key dict;
* the second of two keys whose hashes collide in their low 16 bits.

A chained table walks a longer list for the third case and migrates a
bucket per operation while it rehashes; EXPERIMENTS.md shows the census
red on that tree.

It also bounds one *denied* stub read: a ``DataStore.get`` of a demoted
key on a squeezed store (:func:`squeezed_store`, the one
``test_tier.py::TestAReadNeverProvisions`` reads), where the heap has
no room to promote it. Such a read is one ``zlib.decompress``, one
slice and one compare in the placer; a read that re-parses a string
through the persistence codec, or rescans a window that already missed,
reads red against :data:`STUB_READ_CEILING`.

It runs as a script, for interpreters without pytest:
``PYTHONPATH=src python -m tests.kvstore.test_dict_census``.
"""

from __future__ import annotations

import sys
from functools import cache

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.dict import SoftDict
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig
from repro.kvstore.values import CompressedValue
from tests.kvstore.test_batch_census import opcodes

LOW_BITS = 16
#: bytecodes one denied stub read may execute: 1.10 × 308, CPython
#: 3.11's count and the largest of 3.10 (293), 3.11 and 3.12 (280). A
#: read that decodes the string through the codec and rescans eight
#: pages that cannot fit it reads 516 on 3.11.
STUB_READ_CEILING = 338


def colliding_keys() -> tuple[bytes, bytes]:
    """Two keys whose hashes agree in their low :data:`LOW_BITS` bits."""
    seen: dict[int, bytes] = {}
    i = 0
    while True:
        key = b"c%d" % i
        low = hash(key) & ((1 << LOW_BITS) - 1)
        if low in seen:
            return seen[low], key
        seen[low] = key
        i += 1


def loaded(keys) -> SoftDict:
    dct = SoftDict(SoftMemoryAllocator(name="dict-census"))
    for key in keys:
        dct.put(key, b"v")
    return dct


def build_cases() -> dict[str, tuple[SoftDict, bytes]]:
    """Case name -> (dict, the key probed)."""
    first, second = colliding_keys()
    return {
        "4 keys": (loaded(b"k%d" % i for i in range(4)), b"k3"),
        "65,536 keys": (
            loaded(b"k%d" % i for i in range(65_536)), b"k65535"
        ),
        "low-bits collision": (loaded([first, second]), second),
    }


def census(dct: SoftDict, key: bytes) -> tuple[int, int]:
    """Bytecodes of one ``get`` hit and one same-size ``upsert``
    overwrite of ``key``, once both paths have run warm."""
    for __ in range(3):
        dct.get(key)
        dct.upsert(key, b"v")
    # 3.12 reports no opcode in the first tracing session of a process
    opcodes(dct.get, key)
    return opcodes(dct.get, key), opcodes(dct.upsert, key, b"v")


def squeezed_store(daemon=None) -> tuple[DataStore, list[bytes]]:
    """40 one-to-a-page 2,000-byte entries, the oldest demoted by a wave
    that took 8 pages: the budget is taut and no hole fits an entry.
    Returns the store and its demoted keys."""
    sma = SoftMemoryAllocator(daemon, name="taut", request_batch_pages=1)
    store = DataStore(sma, StoreConfig(tier=TierConfig(enabled=True)))
    for i in range(40):
        store.set(b"k%02d" % i, bytes([65 + i % 26]) * 2000)
    assert sma.reclaim(8).pages_reclaimed == 8
    demoted = [
        k for k, v in store._dict.items() if type(v) is CompressedValue
    ]
    return store, demoted


@cache
def stub_read() -> int:
    """Bytecodes of one warm ``get`` of a demoted key that the heap has
    no room to promote."""
    store, demoted = squeezed_store()
    key = demoted[0]
    denials = store._dict.tier_stats.promotion_denials
    for __ in range(3):
        store.get(key)
    opcodes(store.get, key)
    count = opcodes(store.get, key)
    assert store._dict.tier_stats.promotion_denials == denials + 5
    return count


@cache
def counts() -> dict[str, tuple[int, int]]:
    """Case name -> (get bytecodes, upsert bytecodes), built once."""
    return {
        name: census(dct, key) for name, (dct, key) in build_cases().items()
    }


def test_a_get_hit_costs_the_same_in_every_dict():
    gets = {name: get for name, (get, __) in counts().items()}
    assert len(set(gets.values())) == 1, gets


def test_a_same_size_overwrite_costs_the_same_in_every_dict():
    upserts = {name: upsert for name, (__, upsert) in counts().items()}
    assert len(set(upserts.values())) == 1, upserts


def test_a_denied_stub_read_is_one_inflate_and_one_compare():
    assert stub_read() <= STUB_READ_CEILING, stub_read()


if __name__ == "__main__":
    version = sys.version.split()[0]
    for name, (get, upsert) in counts().items():
        print(f"{version} {name}: get {get}, upsert {upsert}")
    same = all(len({c[i] for c in counts().values()}) == 1 for i in (0, 1))
    print(f"{version} denied stub read: {stub_read()} "
          f"(ceiling {STUB_READ_CEILING})")
    print("ok" if same and stub_read() <= STUB_READ_CEILING else "RED")
