"""Codec properties: round-trip for every record kind, scan safety.

The hypothesis block is the satellite property test: arbitrary byte
keys and values (explicitly including CRLF, nulls, and frame-header
look-alikes) must survive encode → frame-scan → decode verbatim, and
the frame scanner must treat *any* byte-level damage as clean
truncation, never an exception.

``read_records`` walks the frames in one pass and reads a plain SET's
``W`` in place; :func:`reference_read` (``scan_frames``, then
``decode_record`` up to the first :class:`CorruptRecord`) is its oracle
on every cut and every single-byte flip of a stream with each record
kind, and its cost is counted: :data:`READ_CEILING` bounds its
bytecodes per record on a 16-SET stream (``opcodes`` from
``tests/kvstore/test_batch_census.py``).
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.persist import codec
from repro.kvstore.persist.codec import (
    EXP_ABSOLUTE,
    EXP_KEEP,
    EXP_NONE,
    HEADER_SIZE,
    MAX_RECORD_SIZE,
    CorruptRecord,
    decode_record,
    encode_delete,
    encode_demote,
    encode_expire,
    encode_flush,
    encode_persist,
    encode_tombstone,
    encode_trailer,
    encode_write,
    frame,
    read_records,
    scan_frames,
)
from repro.kvstore.values import CompressedValue
from repro.kvstore.wire import U32, U64
from tests.kvstore.test_batch_census import opcodes

# keys/values that hunt for framing bugs: empty, CRLF, NULs, bytes that
# look like frame headers, and high-bit garbage
_nasty = st.binary(max_size=64) | st.sampled_from(
    [
        b"",
        b"\r\n",
        b"\x00" * 8,
        b"\xff" * 12,
        b"*3\r\n$3\r\nSET\r\n",
        HEADER_SIZE.to_bytes(4, "little") * 3,
    ]
)

_values = (
    _nasty
    | st.dictionaries(_nasty, _nasty, max_size=8)
    | st.lists(_nasty, max_size=8).map(deque)
)


@settings(max_examples=200, deadline=None)
@given(key=_nasty, value=_values, deadline_ms=st.integers(0, 2**63 - 1))
def test_write_record_round_trip(key, value, deadline_ms):
    for exp_kind, want_deadline in (
        (EXP_NONE, 0),
        (EXP_KEEP, 0),
        (EXP_ABSOLUTE, deadline_ms),
    ):
        out = bytearray()
        encode_write(out, key, value, exp_kind, deadline_ms)
        payloads, valid = scan_frames(bytes(out))
        assert valid == len(out) and len(payloads) == 1
        kind, got_key, got_value, got_exp, got_deadline = decode_record(
            payloads[0]
        )
        assert kind == "W"
        assert got_key == key
        assert got_exp == exp_kind
        assert got_deadline == want_deadline
        if isinstance(value, deque):
            assert isinstance(got_value, deque)
            assert list(got_value) == list(value)
        else:
            assert got_value == value
            assert type(got_value) is type(value) or (
                isinstance(value, bytes) and isinstance(got_value, bytes)
            )


# ----------------------------------------------------------------------
# the fast decode path is the general path
# ----------------------------------------------------------------------


def general_decode_write(payload: bytes) -> tuple:
    """The ``W`` grammar read field by field — the oracle: what the
    general branch of ``decode_record`` returns for a valid record."""
    at = 1

    def chunk() -> bytes:
        nonlocal at
        size = U32.unpack_from(payload, at)[0]
        at += 4 + size
        return payload[at - size:at]

    def u32() -> int:
        nonlocal at
        at += 4
        return U32.unpack_from(payload, at - 4)[0]

    assert payload[0:1] == b"W"
    key = chunk()
    tag = payload[at:at + 1]
    at += 1
    if tag == b"S":
        value = chunk()
    elif tag == b"H":
        value = {}
        for _ in range(u32()):
            fld = chunk()
            value[fld] = chunk()
    elif tag == b"L":
        value = deque(chunk() for _ in range(u32()))
    else:
        assert tag == b"C"
        original = u32()
        kind = payload[at:at + 1]
        at += 1
        value = CompressedValue(chunk(), original, kind)
    exp_kind = payload[at]
    at += 1
    deadline = 0
    if exp_kind == EXP_ABSOLUTE:
        deadline = U64.unpack_from(payload, at)[0]
        at += 8
    assert at == len(payload)
    return ("W", key, value, exp_kind, deadline)


def comparable(record: tuple) -> tuple:
    """``CompressedValue`` compares by identity: spell its fields out."""
    value = record[2]
    if type(value) is CompressedValue:
        value = ("C", value.data, value.original_bytes, value.kind)
    return record[:2] + (value,) + record[3:]


_compressed = st.builds(
    CompressedValue,
    _nasty,
    st.integers(0, 2**32 - 1),
    st.sampled_from([b"S", b"H", b"L"]),
)


@settings(max_examples=200, deadline=None)
@given(
    key=_nasty,
    value=_values | _compressed,
    exp_kind=st.sampled_from([EXP_NONE, EXP_KEEP, EXP_ABSOLUTE]),
    deadline_ms=st.integers(0, 2**63 - 1),
)
def test_decode_returns_what_the_general_branch_returns(
    key, value, exp_kind, deadline_ms
):
    out = bytearray()
    encode_write(out, key, value, exp_kind, deadline_ms)
    (payload,), __ = scan_frames(bytes(out))
    got, want = decode_record(payload), general_decode_write(payload)
    deadline = deadline_ms if exp_kind == EXP_ABSOLUTE else 0
    assert comparable(got) == comparable(want) == comparable(
        ("W", key, value, exp_kind, deadline)
    )
    assert type(got[2]) is type(want[2]) is type(value)
    # one byte more or one byte less is never the same record
    with pytest.raises(CorruptRecord):
        decode_record(payload + b"\x00")
    with pytest.raises(CorruptRecord):
        decode_record(payload[:-1])


@pytest.mark.parametrize(
    "value, exp_kind, fast",
    [
        (b"plain", EXP_NONE, True),
        (b"", EXP_NONE, True),
        (b"plain", EXP_KEEP, False),
        (b"plain", EXP_ABSOLUTE, False),
        ({b"f": b"v"}, EXP_NONE, False),
        (deque([b"a"]), EXP_NONE, False),
        (CompressedValue(b"zz", 9, b"S"), EXP_NONE, False),
    ],
)
def test_only_a_plain_set_takes_the_fast_path(
    monkeypatch, value, exp_kind, fast
):
    """The general branch reads chunk by chunk; the fast path never does."""
    chunks_read = []
    real = codec._read_chunk

    def counted(payload, offset):
        chunks_read.append(offset)
        return real(payload, offset)

    monkeypatch.setattr(codec, "_read_chunk", counted)
    out = bytearray()
    encode_write(out, b"key", value, exp_kind, 12345)
    (payload,), __ = scan_frames(bytes(out))
    assert comparable(decode_record(payload)) == comparable(
        general_decode_write(payload)
    )
    assert (not chunks_read) is fast


@settings(max_examples=100, deadline=None)
@given(key=_nasty, deadline_ms=st.integers(0, 2**63 - 1))
def test_keyed_records_round_trip(key, deadline_ms):
    out = bytearray()
    encode_delete(out, key)
    encode_tombstone(out, key)
    encode_persist(out, key)
    encode_expire(out, key, deadline_ms)
    encode_flush(out)
    encode_trailer(out, 7, deadline_ms)
    payloads, valid = scan_frames(bytes(out))
    assert valid == len(out)
    records = [decode_record(p) for p in payloads]
    assert records[0] == ("D", key)
    assert records[1] == ("T", key)
    assert records[2] == ("P", key)
    assert records[3] == ("E", key, deadline_ms)
    assert records[4] == ("F",)
    assert records[5] == ("Z", 7, deadline_ms)


@settings(max_examples=200, deadline=None)
@given(garbage=st.binary(max_size=256))
def test_scan_never_raises_on_garbage(garbage):
    payloads, valid = scan_frames(garbage)
    assert 0 <= valid <= len(garbage)
    # whatever scanned clean must re-scan identically
    again, valid_again = scan_frames(garbage[:valid])
    assert again == payloads
    assert valid_again == valid


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(_nasty, min_size=1, max_size=6),
    garbage=st.binary(min_size=1, max_size=32),
)
def test_scan_stops_at_appended_garbage(records, garbage):
    blob = b"".join(frame(p) for p in records)
    payloads, valid = scan_frames(blob + garbage)
    # the valid prefix never shrinks below the real records, and the
    # tail is only believed if it happens to parse as real frames
    assert payloads[: len(records)] == records
    assert valid >= len(blob)


def _log(first_value, exp_kind) -> bytes:
    """A log whose first record is the one under test, then one of each
    shape a real log carries behind it."""
    out = bytearray()
    encode_write(out, b"first \r\n\x00", first_value, exp_kind, 2**40)
    encode_delete(out, b"gone")
    encode_write(out, b"", b"", EXP_NONE)
    encode_write(out, b"list", deque([b"x" * 100, bytes(range(256))]), EXP_KEEP)
    encode_expire(out, b"lease", 2**41)
    encode_flush(out)
    return bytes(out)


#: the sweeps below run over each of these: a log of opaque payloads
#: (framing alone: nothing in it decodes), a log that opens with a plain
#: ``W`` (``decode_record``'s fast path) and one that opens with a ``W``
#: the fast path must hand on (a hash, an absolute deadline)
SWEEP_LOGS = {
    "opaque": b"".join(
        frame(p)
        for p in (
            b"W-ish payload \r\n\x00", b"", b"x" * 100, bytes(range(256)),
            b"tail",
        )
    ),
    "plain W": _log(b"value \r\n\x00\xff", EXP_NONE),
    "general W": _log({b"field": b"value", b"": b""}, EXP_ABSOLUTE),
}


def test_truncation_sweep_every_offset():
    """Satellite: chop a valid log at EVERY byte offset.

    At every cut the scanner must return a clean prefix of the original
    frames and the reader a clean prefix of the original records — never
    raise, never invent a record, never resurrect bytes past the cut.
    """
    for label, blob in SWEEP_LOGS.items():
        frames, __ = scan_frames(blob)
        records, __ = read_records(blob)
        boundaries = [0]
        for payload in frames:
            boundaries.append(boundaries[-1] + HEADER_SIZE + len(payload))
        assert boundaries[-1] == len(blob)
        assert len(records) == (0 if label == "opaque" else len(frames))
        for cut in range(len(blob) + 1):
            at = f"{label} cut={cut}"
            whole = sum(1 for b in boundaries[1:] if b <= cut)
            payloads, valid = scan_frames(blob[:cut])
            assert payloads == frames[:whole], at
            assert valid == boundaries[whole], at
            decoded = min(whole, len(records))
            assert read_records(blob[:cut]) == (
                records[:decoded], boundaries[decoded]
            ), at


def test_bit_flip_sweep_first_record():
    """Flipping any single bit of a record's bytes kills it cleanly."""
    for label, blob in SWEEP_LOGS.items():
        frames, __ = scan_frames(blob)
        records, __ = read_records(blob)
        for byte_index in range(HEADER_SIZE + len(frames[0])):
            for bit in range(8):
                damaged = bytearray(blob)
                damaged[byte_index] ^= 1 << bit
                payloads, valid = scan_frames(bytes(damaged))
                # the damaged first frame must not survive; a corrupt
                # length/CRC may also take the frames behind it (the
                # scanner cannot trust alignment past damage), but it
                # must never yield the damaged payload as valid
                assert frames[0] not in payloads, label
                survivors, __ = read_records(bytes(damaged))
                assert not records or records[0] not in survivors, label


def test_length_field_bomb_is_rejected():
    bomb = (MAX_RECORD_SIZE + 1).to_bytes(4, "little") + b"\x00" * 16
    payloads, valid = scan_frames(bomb)
    assert payloads == [] and valid == 0


@pytest.mark.parametrize(
    "payload",
    [
        b"",
        b"Q",  # unknown kind
        b"W\x05\x00\x00\x00ab",  # truncated key chunk
        b"W\x01\x00\x00\x00kSx",  # bad value length
        b"W\x01\x00\x00\x00kS\x00\x00\x00\x00\x07",  # unknown expiry kind
        b"W\x01\x00\x00\x00kS\x00\x00\x00\x00\x02\x01",  # short deadline
        b"W\x01\x00\x00\x00kS\x01\x00\x00\x00v\x00!",  # plain W + a byte
        b"W\x01\x00\x00\x00kS\x01\x00\x00\x00v\x00\x00",  # ... + a zero
        b"W\x01\x00\x00\x00kS\x02\x00\x00\x00v\x00",  # value overshoots
        b"W\x01\x00\x00\x00kS\x01\x00\x00\x00v",  # no expiry clause
        b"D\x01\x00\x00\x00kX",  # trailing bytes
        b"E\x01\x00\x00\x00k\x01\x02",  # bad E size
        b"F!",  # trailing bytes in F
        b"Z\x00" * 3,  # bad trailer size
    ],
)
def test_decode_rejects_malformed_payloads(payload):
    with pytest.raises(CorruptRecord):
        decode_record(payload)


def test_value_types_are_exact():
    out = bytearray()
    encode_write(out, b"h", {b"a": b"1", b"b": b"2"}, EXP_NONE)
    encode_write(out, b"l", deque([b"x", b"y"]), EXP_NONE)
    payloads, __ = scan_frames(bytes(out))
    __, __, hval, __, __ = decode_record(payloads[0])
    __, __, lval, __, __ = decode_record(payloads[1])
    assert hval == {b"a": b"1", b"b": b"2"} and isinstance(hval, dict)
    assert list(lval) == [b"x", b"y"] and isinstance(lval, deque)


# -- the one-pass reader against its reference -------------------------------


def reference_read(data: bytes) -> tuple[list[tuple], int]:
    """What ``read_records`` returned before it walked the frames once:
    the frames :func:`scan_frames` proves, decoded one by one, ending
    before the first that does not decode."""
    records: list[tuple] = []
    valid = 0
    for payload in scan_frames(data)[0]:
        try:
            records.append(decode_record(payload))
        except CorruptRecord:
            break
        valid += HEADER_SIZE + len(payload)
    return records, valid


def spelled(result: tuple[list[tuple], int]) -> tuple:
    """``CompressedValue`` compares by identity: spell its fields out,
    and every field's type with it (a key must come out as ``bytes``)."""
    records, valid = result
    out = []
    for record in records:
        fields = []
        for field in record:
            if type(field) is CompressedValue:
                field = ("C", field.data, field.original_bytes, field.kind)
            fields.append((type(field).__name__, field))
        out.append(tuple(fields))
    return out, valid


def every_kind() -> bytes:
    """One frame of each record kind the codec writes, then a ``W`` that
    looks plain but whose lengths do not add up (one byte past the
    expiry clause), then one more record the reader must not reach."""
    out = bytearray()
    encode_write(out, b"plain", b"value \r\n\x00", EXP_NONE)
    encode_write(out, b"keep", b"v", EXP_KEEP)
    encode_write(out, b"lease", b"v", EXP_ABSOLUTE, 2**40)
    encode_write(out, b"hash", {b"f": b"v", b"S": b""}, EXP_NONE)
    encode_write(out, b"list", deque([b"a", b"S\x00"]), EXP_NONE)
    encode_write(out, b"zipped", CompressedValue(b"zz", 9, b"S"), EXP_NONE)
    encode_delete(out, b"d")
    encode_tombstone(out, b"t")
    encode_demote(out, b"m")
    encode_expire(out, b"e", 2**41)
    encode_persist(out, b"p")
    encode_flush(out)
    encode_trailer(out, 11, 2**42)
    out += frame(b"W\x01\x00\x00\x00kS\x01\x00\x00\x00v\x00\x00")
    encode_write(out, b"after", b"v", EXP_NONE)
    return bytes(out)


def test_the_one_pass_reader_reads_what_the_reference_reads():
    stream = every_kind()
    records, valid = read_records(stream)
    assert len(records) == 13 and [r[0] for r in records[:6]] == ["W"] * 6
    assert spelled((records, valid)) == spelled(reference_read(stream))
    for cut in range(len(stream) + 1):
        data = stream[:cut]
        assert spelled(read_records(data)) == spelled(reference_read(data)), cut


def test_a_flipped_byte_changes_nothing_between_the_two_readers():
    """Every byte of the stream flipped, as it lies (the CRC catches
    it) and re-framed with a fresh CRC, so the damaged payload reaches
    the decoders: a plain ``W`` that no longer adds up, a length that
    overshoots, an unknown tag."""
    stream = every_kind()
    payloads, __ = scan_frames(stream)
    for index in range(len(stream)):
        for mask in (0x01, 0x80, 0xFF):
            damaged = bytearray(stream)
            damaged[index] ^= mask
            data = bytes(damaged)
            assert spelled(read_records(data)) == spelled(
                reference_read(data)
            ), (index, mask)
    for at, payload in enumerate(payloads):
        head = b"".join(frame(p) for p in payloads[:at])
        tail = b"".join(frame(p) for p in payloads[at + 1:])
        for index in range(len(payload)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(payload)
                damaged[index] ^= mask
                data = head + frame(bytes(damaged)) + tail
                assert spelled(read_records(data)) == spelled(
                    reference_read(data)
                ), (at, index, mask)


def sixteen_sets() -> bytes:
    """What a replica reads in one 16-deep round of durable SETs."""
    out = bytearray()
    for i in range(16):
        encode_write(out, b"key:%06d" % i, b"v" * (64 + 32 * i), EXP_NONE)
    return bytes(out)


def read_census() -> float:
    """``read_records``'s bytecodes per record on :func:`sixteen_sets`."""
    stream = sixteen_sets()
    opcodes(read_records, stream)  # 3.12 counts nothing the first time
    return opcodes(read_records, stream) / 16


#: 1.10 x the largest per-record count of 3.10, 3.11 and 3.12
READ_CEILING = 145.3  # 1.10 x 132.1 (3.11; 3.10 122.9, 3.12 123.9)


def test_a_plain_set_is_read_in_one_pass():
    assert read_census() <= READ_CEILING

