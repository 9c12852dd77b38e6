"""The durability record codec: CRC32-framed, length-prefixed records.

Every byte that reaches disk — append-only log records and snapshot
entries alike — travels inside one frame shape::

    u32 payload-length | u32 crc32(payload) | payload

(little-endian, CRC over the payload only). A reader can therefore
walk a file frame by frame and *prove* where the valid prefix ends: a
short header, an insane length, a missing payload tail, or a CRC
mismatch all mean "the log ends here", never an exception. That is the
contract crash recovery is built on — a torn write or a flipped bit
costs the suffix, not the keyspace.

Record payloads start with a one-byte kind tag:

* ``W`` — write: key, typed value, and an expiry clause (none / keep
  the existing TTL / absolute unix-epoch milliseconds). All TTLs are
  persisted as **absolute** deadlines so a restart can never extend a
  key's lifetime.
* ``D`` — delete (client DEL, expiry, or empty-container removal).
* ``T`` — tombstone: the entry was reclaimed by the soft memory
  allocator. Distinct from ``D`` so recovery accounting (and the
  invariant "reclaimed soft data stays dropped") can tell them apart;
  replay semantics are the same deletion. Second-chance drops from the
  compressed tier log the same ``T``.
* ``M`` — demote: the entry was pushed into the compressed
  second-chance tier. Replay re-compresses in place so recovery
  re-admission is budget-gated at the *compressed* size. Promotion is
  deliberately not logged — a recovered-compressed entry inflates on
  first read, byte-identical to the promoted live value.
* ``E`` — set expiry to an absolute unix-epoch-milliseconds deadline.
* ``P`` — persist (clear the TTL).
* ``F`` — flush the whole keyspace.
* ``Z`` — snapshot trailer (entry count + save timestamp); seals a
  snapshot file and never appears in an append-only log.

Typed values reuse the store's three Redis types: ``S`` bytes, ``H``
hash (``dict[bytes, bytes]``), ``L`` list (``deque[bytes]``) — plus
``C``, the compressed second-chance envelope (original size, original
kind tag, zlib bytes), so snapshots carry demoted entries natively.
"""

from __future__ import annotations

from collections import deque
from zlib import crc32

from repro.kvstore.values import CompressedValue, Value
from repro.kvstore.wire import FRAME_HEADER, U32, U64

__all__ = [
    "CorruptRecord",
    "EXP_ABSOLUTE",
    "EXP_KEEP",
    "EXP_NONE",
    "copy_frames",
    "deadline_ms",
    "decode_record",
    "encode_delete",
    "encode_demote",
    "encode_expire",
    "encode_flush",
    "encode_persist",
    "encode_tombstone",
    "encode_trailer",
    "encode_write",
    "expiry_clause",
    "frame",
    "read_records",
    "scan_frames",
]

# precompiled once in ``repro.kvstore.wire`` and shared with the RESP
# serving plane: payload length + crc32(payload), little-endian fields
_HEADER = FRAME_HEADER
_U32 = U32
_U64 = U64
HEADER_SIZE = _HEADER.size

#: refuse to believe a single record is larger than this — a corrupt
#: length field must not make the scanner try to "wait" for gigabytes
MAX_RECORD_SIZE = 64 * 1024 * 1024

#: expiry clause markers inside W records
EXP_NONE = 0  # no TTL (clears any existing one on replay)
EXP_KEEP = 1  # keep whatever TTL the replayed state has (SET KEEPTTL)
EXP_ABSOLUTE = 2  # absolute unix-epoch milliseconds follow (u64)


class CorruptRecord(ValueError):
    """A frame or record payload failed validation.

    Raised by the *decoders* when handed a payload that passed its CRC
    but does not parse (which means a logic bug or hand-crafted bytes,
    not disk corruption — CRC-failing frames never reach the decoder).
    The reader (:func:`read_records`) converts any decode failure into
    clean truncation.
    """


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length+CRC frame."""
    return _HEADER.pack(len(payload), crc32(payload)) + payload


def _frame_into(out: bytearray, parts: tuple[bytes, ...]) -> bytes:
    """Append one framed record built from ``parts`` to ``out``; return
    the frame.

    One C-level join + one CRC pass beats per-part incremental CRC by
    a wide margin on the serving hot path (typical records are a
    handful of small parts, so the temporary is tiny and short-lived).
    """
    payload = b"".join(parts)
    frame = _HEADER.pack(len(payload), crc32(payload)) + payload
    out += frame
    return frame



def scan_frames(data: bytes) -> tuple[list[bytes], int]:
    """Walk ``data`` frame by frame; return ``(payloads, valid_size)``.

    ``valid_size`` is the byte offset just past the last frame that
    passed length and CRC validation — everything beyond it is a torn
    or corrupt tail the caller should truncate. Never raises.
    """
    payloads: list[bytes] = []
    offset = 0
    total = len(data)
    unpack = _HEADER.unpack_from
    while total - offset >= HEADER_SIZE:
        length, crc = unpack(data, offset)
        if length > MAX_RECORD_SIZE:
            break
        start = offset + HEADER_SIZE
        end = start + length
        if end > total:
            break  # torn tail: the payload never fully landed
        payload = data[start:end]
        if crc32(payload) != crc:
            break  # bit flip (or a torn header overlapping old bytes)
        payloads.append(payload)
        offset = end
    return payloads, offset


# ----------------------------------------------------------------------
# typed values
# ----------------------------------------------------------------------


def _value_parts(value: Value) -> tuple[bytes, ...]:
    """Flatten a typed value into codec parts (no concatenation)."""
    if type(value) is bytes:
        return (b"S", _U32.pack(len(value)), value)
    if isinstance(value, dict):
        parts: list[bytes] = [b"H", _U32.pack(len(value))]
        for fld, item in value.items():
            parts.append(_U32.pack(len(fld)))
            parts.append(fld)
            parts.append(_U32.pack(len(item)))
            parts.append(item)
        return tuple(parts)
    if isinstance(value, deque):
        parts = [b"L", _U32.pack(len(value))]
        for item in value:
            parts.append(_U32.pack(len(item)))
            parts.append(item)
        return tuple(parts)
    if type(value) is CompressedValue:
        return (
            b"C",
            _U32.pack(value.original_bytes),
            value.kind,
            _U32.pack(len(value.data)),
            value.data,
        )
    if isinstance(value, bytes):  # bytes subclass: normalize
        raw = bytes(value)
        return (b"S", _U32.pack(len(raw)), raw)
    raise CorruptRecord(f"unsupported value type {type(value).__name__}")


def _read_u32(payload: bytes, offset: int) -> tuple[int, int]:
    if offset + 4 > len(payload):
        raise CorruptRecord("truncated u32")
    return _U32.unpack_from(payload, offset)[0], offset + 4


def _read_chunk(payload: bytes, offset: int) -> tuple[bytes, int]:
    size, offset = _read_u32(payload, offset)
    end = offset + size
    if end > len(payload):
        raise CorruptRecord("truncated chunk")
    return payload[offset:end], end


def _decode_value(payload: bytes, offset: int) -> tuple[Value, int]:
    if offset >= len(payload):
        raise CorruptRecord("missing value tag")
    tag = payload[offset:offset + 1]
    offset += 1
    if tag == b"S":
        return _read_chunk(payload, offset)
    if tag == b"H":
        count, offset = _read_u32(payload, offset)
        table: dict[bytes, bytes] = {}
        for _ in range(count):
            fld, offset = _read_chunk(payload, offset)
            item, offset = _read_chunk(payload, offset)
            table[fld] = item
        return table, offset
    if tag == b"L":
        count, offset = _read_u32(payload, offset)
        items: deque[bytes] = deque()
        for _ in range(count):
            item, offset = _read_chunk(payload, offset)
            items.append(item)
        return items, offset
    if tag == b"C":
        original, offset = _read_u32(payload, offset)
        if offset + 1 > len(payload):
            raise CorruptRecord("truncated compressed kind")
        kind = payload[offset:offset + 1]
        if kind not in (b"S", b"H", b"L"):
            raise CorruptRecord(f"unknown compressed kind {kind!r}")
        data, offset = _read_chunk(payload, offset + 1)
        return CompressedValue(data, original, kind), offset
    raise CorruptRecord(f"unknown value tag {tag!r}")


# ----------------------------------------------------------------------
# record encoders (append framed bytes straight into the caller buffer
# and return the frame, for a second sink to copy instead of encoding)
# ----------------------------------------------------------------------


def expiry_clause(ex_relative: "float | None", keep_ttl: bool) -> int:
    """The W expiry clause of a write with a TTL of ``ex_relative``
    seconds (``None``: no TTL, or the existing one when ``keep_ttl``)."""
    if ex_relative is not None:
        return EXP_ABSOLUTE
    return EXP_KEEP if keep_ttl else EXP_NONE


def deadline_ms(now_unix: float, ex_relative: float) -> int:
    """A TTL of ``ex_relative`` seconds from ``now_unix`` as the
    absolute unix-epoch milliseconds W and E records carry."""
    return int((now_unix + ex_relative) * 1000)


def encode_write(
    out: bytearray,
    key: bytes,
    value: Value,
    exp_kind: int,
    deadline_unix_ms: int = 0,
) -> bytes:
    """Append a framed W record; return the frame, as ``bytes``.

    ``exp_kind`` is one of :data:`EXP_NONE` / :data:`EXP_KEEP` /
    :data:`EXP_ABSOLUTE`; the deadline is unix-epoch milliseconds and
    only read for :data:`EXP_ABSOLUTE`. The returned frame is what a
    second consumer of the same record appends instead of encoding it
    again (the AOF hands it to the replication stream).
    """
    if type(value) is bytes and exp_kind == EXP_NONE:
        # serving-plane fast path: a plain SET (bytes value, no expiry
        # clause) is the overwhelming majority of logged records, and
        # at wire rate the generic parts assembly below is a measurable
        # slice of the event loop. Byte-identical to the general path.
        payload = b"".join((
            b"W", _U32.pack(len(key)), key,
            b"S", _U32.pack(len(value)), value, b"\x00",
        ))
        frame = _HEADER.pack(len(payload), crc32(payload)) + payload
        out += frame
        return frame
    parts = (b"W", _U32.pack(len(key)), key) + _value_parts(value)
    if exp_kind == EXP_ABSOLUTE:
        parts += (b"\x02", _U64.pack(deadline_unix_ms))
    elif exp_kind == EXP_KEEP:
        parts += (b"\x01",)
    elif exp_kind == EXP_NONE:
        parts += (b"\x00",)
    else:
        raise ValueError(f"unknown expiry kind {exp_kind}")
    return _frame_into(out, parts)


def _encode_keyed(out: bytearray, tag: bytes, key: bytes) -> bytes:
    return _frame_into(out, (tag, _U32.pack(len(key)), key))


def encode_delete(out: bytearray, key: bytes) -> bytes:
    """Append a framed D record."""
    return _encode_keyed(out, b"D", key)


def encode_tombstone(out: bytearray, key: bytes) -> bytes:
    """Append a framed T record (soft-memory reclamation)."""
    return _encode_keyed(out, b"T", key)


def encode_demote(out: bytearray, key: bytes) -> bytes:
    """Append a framed M record (second-chance tier demotion)."""
    return _encode_keyed(out, b"M", key)


def encode_persist(out: bytearray, key: bytes) -> bytes:
    """Append a framed P record (TTL cleared)."""
    return _encode_keyed(out, b"P", key)


def encode_expire(out: bytearray, key: bytes, deadline_unix_ms: int) -> bytes:
    """Append a framed E record (absolute deadline, unix ms)."""
    return _frame_into(
        out,
        (b"E", _U32.pack(len(key)), key, _U64.pack(deadline_unix_ms)),
    )


def encode_flush(out: bytearray) -> bytes:
    """Append a framed F record (FLUSHALL)."""
    return _frame_into(out, (b"F",))


def encode_trailer(out: bytearray, count: int, saved_unix_ms: int) -> bytes:
    """Append the framed Z trailer that seals a snapshot file."""
    return _frame_into(
        out, (b"Z", _U64.pack(count), _U64.pack(saved_unix_ms))
    )


def copy_frames(
    out: bytearray, frames: "bytes | memoryview"
) -> "bytes | memoryview":
    """Append already-framed records verbatim; return them.

    A replica's local log takes the master's stream bytes untouched: the
    master already framed and CRC'd them, and the log must replay to the
    state the stream produced.
    """
    out += frames
    return frames


# ----------------------------------------------------------------------
# record decoder
# ----------------------------------------------------------------------


def decode_record(payload: bytes) -> tuple:
    """Decode one CRC-validated payload into a record tuple.

    Shapes (first element is the kind string):

    * ``("W", key, value, exp_kind, deadline_unix_ms)``
    * ``("D", key)`` / ``("T", key)`` / ``("P", key)`` / ``("M", key)``
    * ``("E", key, deadline_unix_ms)``
    * ``("F",)``
    * ``("Z", count, saved_unix_ms)``

    Raises :class:`CorruptRecord` on any malformed payload.
    """
    if not payload:
        raise CorruptRecord("empty record")
    kind = payload[0:1]
    if kind == b"W":
        # the mirror of :func:`encode_write`'s fast path: a plain SET is
        # ``W klen key S vlen value \x00`` and nothing else, so once the
        # two lengths add up to the payload's, every chunk is in bounds.
        # Anything that does not add up takes the general path below,
        # which accepts it or names what is wrong with it.
        total = len(payload)
        if total >= 11:
            tag_at = 5 + _U32.unpack_from(payload, 1)[0]
            if tag_at + 6 <= total and payload[tag_at] == 0x53:  # b"S"
                value_at = tag_at + 5
                end = value_at + _U32.unpack_from(payload, tag_at + 1)[0]
                if end + 1 == total and not payload[end]:
                    return (
                        "W", payload[5:tag_at], payload[value_at:end],
                        EXP_NONE, 0,
                    )
        key, offset = _read_chunk(payload, 1)
        value, offset = _decode_value(payload, offset)
        if offset >= len(payload):
            raise CorruptRecord("missing expiry clause")
        exp_kind = payload[offset]
        offset += 1
        deadline = 0
        if exp_kind == EXP_ABSOLUTE:
            if offset + 8 > len(payload):
                raise CorruptRecord("truncated deadline")
            deadline = _U64.unpack_from(payload, offset)[0]
            offset += 8
        elif exp_kind not in (EXP_NONE, EXP_KEEP):
            raise CorruptRecord(f"unknown expiry kind {exp_kind}")
        if offset != len(payload):
            raise CorruptRecord("trailing bytes in W record")
        return ("W", key, value, exp_kind, deadline)
    if kind in (b"D", b"T", b"P", b"M"):
        key, offset = _read_chunk(payload, 1)
        if offset != len(payload):
            raise CorruptRecord("trailing bytes in keyed record")
        return (kind.decode(), key)
    if kind == b"E":
        key, offset = _read_chunk(payload, 1)
        if offset + 8 != len(payload):
            raise CorruptRecord("bad E record size")
        return ("E", key, _U64.unpack_from(payload, offset)[0])
    if kind == b"F":
        if len(payload) != 1:
            raise CorruptRecord("trailing bytes in F record")
        return ("F",)
    if kind == b"Z":
        if len(payload) != 17:
            raise CorruptRecord("bad trailer size")
        return (
            "Z",
            _U64.unpack_from(payload, 1)[0],
            _U64.unpack_from(payload, 9)[0],
        )
    raise CorruptRecord(f"unknown record kind {kind!r}")


def read_records(data: bytes) -> tuple[list[tuple], int]:
    """Decode the valid prefix of ``data``: ``(records, valid_size)``.

    The one reader behind AOF recovery, snapshot load, a full sync and
    the replica stream. ``valid_size`` ends before the first frame that
    fails its length or CRC check *or* passes them and still fails to
    decode — replaying past either would risk phantom state. Never
    raises.

    One pass over the frames: the CRC runs over a ``memoryview`` slice,
    so a payload is never copied to be checked, and a plain SET's ``W``
    (:func:`decode_record`'s four fast-path checks) is read in place,
    its key and value sliced out of ``data`` as ``bytes``. Every other
    payload is sliced out once and handed to :func:`decode_record`.
    The result equals :func:`scan_frames` followed by
    :func:`decode_record` up to the first :class:`CorruptRecord`, for
    every input.
    """
    records: list[tuple] = []
    append = records.append
    unpack = _HEADER.unpack_from
    u32 = _U32.unpack_from
    view = memoryview(data)
    total = len(data)
    offset = 0
    while total - offset >= HEADER_SIZE:
        length, crc = unpack(data, offset)
        if length > MAX_RECORD_SIZE:
            break
        start = offset + HEADER_SIZE
        end = start + length
        if end > total:
            break  # torn tail: the payload never fully landed
        if crc32(view[start:end]) != crc:
            break  # bit flip (or a torn header overlapping old bytes)
        if length >= 11 and data[start] == 0x57:  # b"W"
            # ``W klen key S vlen value \x00``, checked as decode_record
            # checks it, at ``start`` instead of 0
            tag_at = start + 5 + u32(data, start + 1)[0]
            if tag_at + 6 <= end and data[tag_at] == 0x53:  # b"S"
                value_at = tag_at + 5
                value_end = value_at + u32(data, tag_at + 1)[0]
                if value_end + 1 == end and not data[value_end]:
                    append((
                        "W", data[start + 5:tag_at], data[value_at:value_end],
                        EXP_NONE, 0,
                    ))
                    offset = end
                    continue
        try:
            append(decode_record(data[start:end]))
        except CorruptRecord:
            break
        offset = end
    return records, offset
