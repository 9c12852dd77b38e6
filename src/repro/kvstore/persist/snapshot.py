"""Point-in-time snapshots: a rewritten log sealed with a trailer.

A snapshot file is::

    MAGIC | framed W record per live key | framed Z trailer

The W records carry absolute unix-millisecond deadlines (or no expiry),
so loading a snapshot is exactly replaying it — one replay path serves
both files. The Z trailer proves completeness: it repeats the entry
count, so a snapshot whose write was interrupted (missing or torn
trailer, count mismatch, any bad frame) is *invalid as a whole* and
recovery falls back to an older generation. Contrast with the
append-only log, where a torn tail costs only the suffix — a snapshot
is not a log of independent events but one atomic state capture.

Writes are crash-atomic: serialize to ``<path>.tmp``, fsync, rename
over the final name, fsync the directory. A reader can never observe a
half-written file under the final name.
"""

from __future__ import annotations

import os

from repro.kvstore.persist.codec import (
    EXP_ABSOLUTE,
    EXP_NONE,
    encode_trailer,
    encode_write,
    read_records,
)
from repro.kvstore.values import Value

MAGIC = b"RPROSNAP1\n"

#: one snapshot entry: key, typed value, absolute unix-ms deadline or None
SnapshotEntry = tuple[bytes, Value, "int | None"]


def snapshot_body(entries: list[SnapshotEntry], saved_unix_ms: int) -> bytes:
    """Serialize ``entries`` to the framed body (W records + Z trailer).

    This is the byte payload a full replication sync ships inline — the
    same bytes a ``base-<g>.snap`` holds after the file magic.
    """
    out = bytearray()
    for key, value, deadline_ms in entries:
        if deadline_ms is None:
            encode_write(out, key, value, EXP_NONE)
        else:
            encode_write(out, key, value, EXP_ABSOLUTE, deadline_ms)
    encode_trailer(out, len(entries), saved_unix_ms)
    return bytes(out)


def write_snapshot(
    path: str, entries: list[SnapshotEntry], saved_unix_ms: int
) -> int:
    """Serialize ``entries`` atomically to ``path``; return bytes written."""
    out = MAGIC + snapshot_body(entries, saved_unix_ms)
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
    try:
        os.write(fd, bytes(out))
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".")
    return len(out)


def read_snapshot(path: str) -> tuple[list[tuple], int] | None:
    """Load and validate a snapshot; ``None`` means *invalid or missing*.

    Valid requires: magic intact, every frame reading cleanly to the
    end of the file, the final record being a Z trailer whose count
    matches the number of entries. Returns the ``W`` records (ready for
    ``DataStore.replay``) and the save timestamp. Never raises on
    garbage.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if not data.startswith(MAGIC):
        return None
    return load_snapshot_bytes(data[len(MAGIC):])


def load_snapshot_bytes(body: bytes) -> tuple[list[tuple], int] | None:
    """Validate a magic-less snapshot body (a full-sync payload).

    Same contract as :func:`read_snapshot` minus the file concerns.
    ``None`` means invalid; never raises.
    """
    records, valid_size = read_records(body)
    if valid_size != len(body) or not records:
        return None  # torn tail or trailing garbage: not a sealed capture
    trailer = records.pop()
    if trailer[0] != "Z" or trailer[1] != len(records):
        return None  # the trailer must seal the file and count its entries
    if any(record[0] != "W" for record in records):
        return None  # snapshots hold only W records + the trailer
    return records, trailer[2]


def materialize_entries(store, now_unix: float) -> list[SnapshotEntry]:
    """List the live keyspace for serialization, values by reference.

    Whoever calls it serializes the list before the keyspace can move:
    SAVE and a replication full sync on the serving loop, BGSAVE in its
    forked child, whose copy-on-write image no one else mutates. So
    nothing is copied. Store deadlines are on the store clock; they come
    out as absolute unix-ms anchored at ``now_unix``.
    """
    now_store = store._now()
    entries: list[SnapshotEntry] = []
    for key, value in store.keyspace.items():
        deadline = store._expires.get(key)
        if deadline is not None and deadline <= now_store:
            continue  # already expired; the sweep just hasn't run
        deadline_ms: int | None = None
        if deadline is not None:
            deadline_ms = int((now_unix + (deadline - now_store)) * 1000)
        entries.append((key, value, deadline_ms))
    return entries


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
