"""Redis-compatible hash slots: CRC16, ``{hash tag}``, slot ranges.

The cluster serving plane partitions the keyspace into
:data:`SLOT_COUNT` (16384) slots. A key's slot is the CRC16 of its
*hash tag* — the substring between the first ``{`` and the first
following ``}``, when that substring is non-empty — masked to 14 bits,
exactly the ``keyHashSlot`` function from Redis's ``cluster.c``. The
tag rule lets callers pin related keys (``{user:1}:name``,
``{user:1}:inbox``) to one shard so multi-key commands stay local.

Slot ranges here are *static*: :func:`partition_slots` deals
contiguous, gap-free, non-overlapping ranges to N shards at cluster
boot, and no live resharding exists — which is why the serving plane
only ever answers ``MOVED`` (permanent owner), never ``ASK``
(migration in flight).

Which arguments of a command *are* keys is not decided here: that is
the ``keys`` column of the command table (``repro.kvstore.commands``),
read by the dispatcher's gate and by the cluster client alike.

CRC16 parameters (CCITT / XMODEM, the ones Redis documents in
``cluster-spec``): polynomial 0x1021, init 0x0000, no reflection, no
final xor. ``crc16(b"123456789") == 0x31C3``.
"""

from __future__ import annotations

#: total hash slots in a cluster (Redis: 16384 = 2**14)
SLOT_COUNT = 16384

_POLY = 0x1021


def _build_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ _POLY) if crc & 0x8000 else (crc << 1)
        table.append(crc & 0xFFFF)
    return tuple(table)


_CRC16_TABLE = _build_table()


def crc16(data: bytes) -> int:
    """CRC16-CCITT (XMODEM) over ``data`` — Redis's slot hash."""
    crc = 0
    table = _CRC16_TABLE
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ table[((crc >> 8) ^ byte) & 0xFF]
    return crc


def hash_tag(key: bytes) -> bytes:
    """The substring actually hashed for ``key``.

    Mirrors Redis ``keyHashSlot``: find the first ``{``; if a ``}``
    follows it and the span between them is non-empty, hash only that
    span. An empty tag (``{}``), an unclosed ``{``, or no braces at
    all hash the whole key. Only the *first* ``{`` is considered, so
    ``foo{bar}{zap}`` hashes ``bar`` and ``foo{{bar}}`` hashes
    ``{bar``.
    """
    start = key.find(b"{")
    if start == -1:
        return key
    end = key.find(b"}", start + 1)
    if end == -1 or end == start + 1:
        return key
    return key[start + 1:end]


def key_hash_slot(key: bytes) -> int:
    """Map ``key`` to its hash slot (0..16383)."""
    return crc16(hash_tag(key)) & (SLOT_COUNT - 1)


def partition_slots(shards: int) -> list[tuple[int, int]]:
    """Deal all 16384 slots to ``shards`` contiguous inclusive ranges.

    The first ``SLOT_COUNT % shards`` shards take one extra slot, the
    way ``redis-cli --cluster create`` deals ranges; the ranges cover
    every slot exactly once, in order.
    """
    if shards < 1:
        raise ValueError("a cluster needs at least one shard")
    if shards > SLOT_COUNT:
        raise ValueError(f"more shards than slots ({shards} > {SLOT_COUNT})")
    base, extra = divmod(SLOT_COUNT, shards)
    ranges = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size - 1))
        start += size
    return ranges
