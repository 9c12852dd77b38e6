"""Snapshot files are atomic captures: valid whole, or not at all."""

from __future__ import annotations

import os
from collections import deque

from repro.kvstore.persist.codec import (
    EXP_ABSOLUTE,
    EXP_NONE,
    encode_delete,
    encode_trailer,
    encode_write,
    frame,
)
from repro.kvstore.persist.snapshot import (
    MAGIC,
    read_snapshot,
    write_snapshot,
)

ENTRIES = [
    (b"plain", b"value", None),
    (b"ttl", b"dying", 1_700_000_000_000),
    (b"hash", {b"f": b"1", b"g": b"2"}, None),
    (b"list", deque([b"a", b"b", b"c"]), None),
    (b"bin\x00\r\n", bytes(range(256)), 42),
]


def test_round_trip(tmp_path):
    path = str(tmp_path / "base-1.snap")
    written = write_snapshot(path, ENTRIES, saved_unix_ms=123456)
    assert written == os.path.getsize(path)
    loaded = read_snapshot(path)
    assert loaded is not None
    records, saved_ms = loaded  # the W records, ready for replay
    assert saved_ms == 123456
    assert len(records) == len(ENTRIES)
    for (key, value, deadline), record in zip(ENTRIES, records):
        kind, k2, v2, exp_kind, d2 = record
        assert kind == "W" and k2 == key
        if deadline is None:
            assert exp_kind == EXP_NONE
        else:
            assert exp_kind == EXP_ABSOLUTE and d2 == deadline
        if isinstance(value, deque):
            assert list(v2) == list(value)
        else:
            assert v2 == value


def test_missing_file_is_none(tmp_path):
    assert read_snapshot(str(tmp_path / "nope.snap")) is None


def test_empty_snapshot_round_trips(tmp_path):
    path = str(tmp_path / "empty.snap")
    write_snapshot(path, [], saved_unix_ms=7)
    assert read_snapshot(path) == ([], 7)


def test_truncation_sweep_invalidates_whole_file(tmp_path):
    """Satellite: a snapshot cut at ANY byte short of full is invalid.

    Unlike the AOF (prefix semantics), a snapshot is one atomic capture
    — a torn trailer or missing byte must reject the whole file, or
    recovery would silently load a partial keyspace as if complete.
    """
    path = str(tmp_path / "base-2.snap")
    write_snapshot(path, ENTRIES, saved_unix_ms=1)
    blob = open(path, "rb").read()
    victim = str(tmp_path / "cut.snap")
    for cut in range(len(blob)):
        with open(victim, "wb") as fh:
            fh.write(blob[:cut])
        assert read_snapshot(victim) is None, f"cut={cut}"
    # and the intact file still loads
    assert read_snapshot(path) is not None


def test_trailing_garbage_rejected(tmp_path):
    path = str(tmp_path / "g.snap")
    write_snapshot(path, ENTRIES[:2], saved_unix_ms=1)
    with open(path, "ab") as fh:
        fh.write(b"\x00garbage")
    assert read_snapshot(path) is None


def test_wrong_magic_rejected(tmp_path):
    path = str(tmp_path / "m.snap")
    write_snapshot(path, ENTRIES[:1], saved_unix_ms=1)
    blob = bytearray(open(path, "rb").read())
    blob[0] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    assert read_snapshot(path) is None


def test_trailer_count_mismatch_rejected(tmp_path):
    path = str(tmp_path / "c.snap")
    out = bytearray(MAGIC)
    encode_write(out, b"k", b"v", EXP_NONE)
    encode_trailer(out, 2, 99)  # claims two entries, holds one
    with open(path, "wb") as fh:
        fh.write(bytes(out))
    assert read_snapshot(path) is None


def test_non_write_record_rejected(tmp_path):
    path = str(tmp_path / "d.snap")
    out = bytearray(MAGIC)
    encode_delete(out, b"k")  # deletes do not belong in a capture
    encode_trailer(out, 0, 99)
    with open(path, "wb") as fh:
        fh.write(bytes(out))
    assert read_snapshot(path) is None


def test_trailer_must_seal_the_file(tmp_path):
    path = str(tmp_path / "t.snap")
    out = bytearray(MAGIC)
    encode_trailer(out, 0, 99)
    encode_write(out, b"late", b"v", EXP_NONE)  # record after the seal
    with open(path, "wb") as fh:
        fh.write(bytes(out))
    assert read_snapshot(path) is None


def test_missing_trailer_rejected(tmp_path):
    path = str(tmp_path / "nt.snap")
    out = bytearray(MAGIC)
    encode_write(out, b"k", b"v", EXP_NONE)
    with open(path, "wb") as fh:
        fh.write(bytes(out))
    assert read_snapshot(path) is None


def test_undecodable_frame_rejected(tmp_path):
    path = str(tmp_path / "u.snap")
    blob = MAGIC + frame(b"Qmystery")
    with open(path, "wb") as fh:
        fh.write(blob)
    assert read_snapshot(path) is None


def test_write_replaces_atomically(tmp_path):
    path = str(tmp_path / "base-3.snap")
    write_snapshot(path, ENTRIES[:1], saved_unix_ms=1)
    write_snapshot(path, ENTRIES, saved_unix_ms=2)
    entries, saved_ms = read_snapshot(path)
    assert saved_ms == 2 and len(entries) == len(ENTRIES)
    # no tmp residue after a successful replace
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
