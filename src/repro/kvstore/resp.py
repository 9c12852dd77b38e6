"""RESP2 (REdis Serialization Protocol) codec.

Implements the five RESP2 types — simple strings, errors, integers,
bulk strings, arrays — with an incremental parser suitable for a
byte-stream server. Clients encode commands as arrays of bulk strings,
exactly like real Redis clients.

Python mapping:

====================  =============================
RESP type             Python value
====================  =============================
simple string ``+``   :class:`SimpleString`
error ``-``           :class:`RespError`
integer ``:``         ``int``
bulk string ``$``     ``bytes`` (``None`` for null)
array ``*``           ``list`` (``None`` for null)
====================  =============================

The parser is built for a zero-copy serving hot path:

* The internal buffer is a reusable ``bytearray`` that sockets can
  ``recv_into`` directly (:meth:`RespParser.recv_from`; by hand,
  ``recv_view`` + ``commit_recv``), so inbound bytes are copied exactly
  once — kernel to parser buffer — instead of kernel → recv ``bytes``
  → buffer.
* :meth:`RespParser.parse_pipeline` drains every complete command
  array by tokenising the buffer on CRLF, and in zero-copy mode hands
  large bulk payloads out as ``memoryview`` slices of the buffer.
  **Ownership rule:** those views are valid only until the parser is
  next fed; whoever retains a payload (the store, the slowlog) must
  materialize it to ``bytes`` first. See DESIGN.md §7.
* A :class:`ProtocolError` *quarantines* the parser: the poisoned
  buffer is dropped (``last_error_dropped`` records how many bytes),
  and the parser is immediately safe to reuse — a client or server
  that keeps feeding it cannot misparse subsequent frames against
  stale mid-frame state.
"""

from __future__ import annotations

from functools import cache
from typing import Any

from repro.kvstore.wire import (
    BULK_HEADERS,
    CRLF,
    EMPTY_ARRAY_REPLY,
    INT_REPLIES,
    NULL_BULK_REPLY,
    OK_REPLY,
)


class SimpleString(str):
    """A RESP simple string (``+OK\\r\\n``) — distinct from bulk strings."""


class RespError(Exception):
    """A RESP error reply (``-ERR ...\\r\\n``)."""

    def __init__(self, message: str) -> None:
        self.message = message
        super().__init__(message)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RespError) and other.message == self.message

    # defining __eq__ alone would set __hash__ = None and make error
    # replies unhashable (breaking set/dict-key dedup); keep them
    # hashable and consistent with __eq__
    def __hash__(self) -> int:
        return hash(("RespError", self.message))


class ReadOnlyReplicaError(RespError):
    """A ``-READONLY`` reply: the node is a replica refusing a write.

    Typed so clients can route around it (retry against the master,
    count it as a topology signal) instead of string-matching every
    :class:`RespError` they catch.
    """


def make_resp_error(message: str) -> RespError:
    """Build the most specific error type for a ``-`` reply line."""
    if message.startswith("READONLY"):
        return ReadOnlyReplicaError(message)
    return RespError(message)


class ProtocolError(ValueError):
    """Malformed RESP input on the wire."""


#: interned reply singletons: servers return these exact objects so
#: ``encode_reply_into`` can append pre-encoded bytes on an ``is`` check
OK = SimpleString("OK")
PONG = SimpleString("PONG")

_OK_WIRE = OK_REPLY
_PONG_WIRE = b"+PONG\r\n"


def _to_bulk(value: Any) -> bytes:
    """Coerce a command argument into bulk-string bytes."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, (int, float)):
        return repr(value).encode() if isinstance(value, float) else str(value).encode()
    raise TypeError(f"cannot send {type(value).__name__} as a bulk string")


def encode_command(*args: Any) -> bytes:
    """Encode a client command as an array of bulk strings.

    >>> encode_command("SET", "k", "v")
    b'*3\\r\\n$3\\r\\nSET\\r\\n$1\\r\\nk\\r\\n$1\\r\\nv\\r\\n'
    """
    if not args:
        raise ValueError("empty command")
    out = [b"*%d\r\n" % len(args)]
    for arg in args:
        data = _to_bulk(arg)
        out.append(b"$%d\r\n" % len(data))
        out.append(data)
        out.append(CRLF)
    return b"".join(out)


def encode_reply_into(buf: bytearray, value: Any) -> None:
    """Append one encoded server reply to ``buf``.

    The serving hot path encodes straight into a connection's output
    buffer, so a pipelined batch produces one growing bytearray instead
    of one intermediate ``bytes`` object per reply. The most common
    replies — GET hits, ``+OK``, null bulks, small integers — hit
    interned pre-encoded fragments (no formatting, no ``.encode()``).
    """
    kind = type(value)
    if kind is bytes:  # GET hits: the most common reply
        size = len(value)
        buf += BULK_HEADERS[size] if size < 256 else b"$%d\r\n" % size
        buf += value
        buf += CRLF
    elif value is OK:
        buf += _OK_WIRE
    elif value is None:
        buf += NULL_BULK_REPLY
    elif kind is int:  # bool is not int here: type() is exact
        buf += (
            INT_REPLIES[value] if 0 <= value < 128 else b":%d\r\n" % value
        )
    elif kind is memoryview:
        size = len(value)
        buf += BULK_HEADERS[size] if size < 256 else b"$%d\r\n" % size
        buf += value
        buf += CRLF
    elif value is PONG:
        buf += _PONG_WIRE
    elif isinstance(value, SimpleString):
        buf += b"+"
        buf += value.encode()
        buf += CRLF
    elif isinstance(value, RespError):
        buf += b"-"
        buf += value.message.encode()
        buf += CRLF
    elif isinstance(value, bool):
        # Redis has no boolean in RESP2; map to integer like redis-py does.
        buf += b":%d\r\n" % int(value)
    elif isinstance(value, int):
        buf += b":%d\r\n" % value
    else:
        if isinstance(value, str):
            value = value.encode()
        if isinstance(value, bytes):
            size = len(value)
            buf += BULK_HEADERS[size] if size < 256 else b"$%d\r\n" % size
            buf += value
            buf += CRLF
        elif isinstance(value, (list, tuple)):
            if value:
                buf += b"*%d\r\n" % len(value)
                for item in value:
                    encode_reply_into(buf, item)
            else:
                buf += EMPTY_ARRAY_REPLY
        else:
            raise TypeError(f"cannot encode {type(value).__name__} as RESP")


def encode_reply(value: Any) -> bytes:
    """Encode a server reply."""
    buf = bytearray()
    encode_reply_into(buf, value)
    return bytes(buf)


#: :meth:`RespParser.parse_pipeline` status: buffer drained (any tail
#: is an incomplete frame waiting for more bytes)
PIPELINE_MORE = 0
#: :meth:`RespParser.parse_pipeline` status: the next frame is not a
#: plain command array — pop it with :meth:`RespParser.parse_one`
PIPELINE_FALLBACK = 1

#: past this consumed prefix, the next refill slides the live tail back
#: to the buffer start instead of growing the allocation forever
_COMPACT_AT = 16384
#: a drained buffer larger than this is released back to the allocator
_SHRINK_AT = 1 << 20
_UNTERMINATED = "bulk string not terminated by CRLF"
#: bounds of the slice :meth:`RespParser.parse_pipeline` splits at a time
_WINDOW_MIN = 64
_WINDOW_MAX = 4096
#: canonical ``*N`` count lines; wider or zero-padded ones are decoded
_ARRAY_COUNTS = {b"*%d" % n: n for n in range(64)}


@cache
def _bulk_headers(threshold: int | None) -> tuple:
    """``$len`` tokens by payload length; ``None`` from the threshold up."""
    return tuple(
        b"$%d" % n if threshold is None or n < threshold else None
        for n in range(_WINDOW_MAX + 1)
    )


def _span(tokens: list, lo: int, hi: int) -> int:
    """Bytes ``tokens[lo:hi]`` (``hi > lo``) and their CRLFs cover."""
    return len(CRLF.join(tokens[lo:hi])) + 2


class RespParser:
    """Incremental RESP parser.

    Feed it raw bytes (:meth:`feed`, or zero-copy via
    :meth:`recv_from` a socket); pop complete values with
    :meth:`parse_one`, drain everything with :meth:`parse_all`, or —
    on the serving hot path — drain whole pipelined command batches
    with :meth:`parse_pipeline`. Partial input is buffered until
    completed by a later feed.

    ``zero_copy_threshold`` enables handing bulk payloads of at least
    that many bytes out as ``memoryview`` slices (command-array
    elements at argv index >= 2 only, so command names and keys are
    always real ``bytes``). The server passes the tokeniser's widest
    window, 4 KiB: a payload a window can hold certifies off the token
    list, which is cheaper than reading it by position as a view, so
    only larger ones come out zero-copy. ``use_fast_path=False``
    disables the command-array fast path entirely — a diagnostic/test
    seam that forces every frame through the generic recursive parser.
    """

    def __init__(
        self,
        *,
        zero_copy_threshold: int | None = None,
        use_fast_path: bool = True,
    ) -> None:
        self._buf = bytearray()
        self._pos = 0  # consumed prefix of the valid region
        self._len = 0  # valid bytes in ``_buf`` (the rest is slack)
        self.zero_copy_threshold = zero_copy_threshold
        self._use_fast_path = use_fast_path
        if not use_fast_path:
            # bound per instance, so the serving parser's hot path
            # carries no test for the diagnostic seam
            self.parse_pipeline = self._parse_nothing
        self._window = _WINDOW_MIN  # bytes the next tokeniser pass splits
        #: lifetime count of memoryview payloads handed out
        self.views_created = 0
        #: a payload view was handed out since the caller last cleared
        #: this (``KvServer.pump`` audits such a batch's argv)
        self.viewed = False
        #: lifetime count of :class:`ProtocolError` quarantines
        self.errors = 0
        #: total bytes discarded by quarantines (fed but never parsed,
        #: including the poisoned frame itself)
        self.dropped_bytes = 0
        #: bytes discarded by the most recent quarantine
        self.last_error_dropped = 0

    @property
    def zero_copy_threshold(self) -> int | None:
        return self._zc_min

    @zero_copy_threshold.setter
    def zero_copy_threshold(self, threshold: int | None) -> None:
        # the tokeniser's ``$len`` table is derived here, once, not on
        # every :meth:`parse_pipeline` call
        self._zc_min = threshold
        self._headers = _bulk_headers(threshold)

    # -- input ---------------------------------------------------------

    def feed(self, data: bytes) -> None:
        """Append ``data`` to the parse buffer (one copy)."""
        self._reset_if_drained()
        buf = self._buf
        # overwrite the slack tail (if any) and extend in one call
        buf[self._len:] = data
        self._len = len(buf)

    def recv_view(self, hint: int = 65536) -> memoryview:
        """A writable view of the buffer tail for ``sock.recv_into``.

        Reserves at least ``hint`` writable bytes past the valid
        region and returns a ``memoryview`` over them. The caller must
        release the view (it pins the buffer) and then report how many
        bytes landed via :meth:`commit_recv`. This is the zero-copy
        inbound path: the kernel writes socket bytes straight into the
        parse buffer.
        """
        self._reset_if_drained()
        buf = self._buf
        pos = self._pos
        if pos >= _COMPACT_AT:
            # slide the live tail to the front; same-length slice
            # assignment, so the buffer is never reallocated here
            live = self._len - pos
            buf[:live] = buf[pos:self._len]
            self._pos = 0
            self._len = live
        need = self._len + hint
        if len(buf) < need:
            buf.extend(bytes(need - len(buf)))
        return memoryview(buf)[self._len:]

    def commit_recv(self, nbytes: int) -> None:
        """Mark ``nbytes`` written through :meth:`recv_view` as valid."""
        self._len += nbytes

    def recv_from(self, sock: Any, hint: int = 65536) -> int:
        """One ``sock.recv_into`` the buffer; the byte count (0 at EOF).
        A drained parser that already holds ``hint`` bytes of buffer
        receives into the ``bytearray`` itself — no view, nothing to
        release; anything else composes :meth:`recv_view`."""
        buf = self._buf
        if self._pos == self._len and hint <= len(buf) <= _SHRINK_AT:
            nbytes = sock.recv_into(buf)  # raises before any state moves
            self._pos, self._len = 0, nbytes
            return nbytes
        with self.recv_view(hint) as view:
            nbytes = sock.recv_into(view)
        self.commit_recv(nbytes)
        return nbytes

    def _reset_if_drained(self) -> None:
        if self._pos == self._len:
            self._pos = self._len = 0
            if len(self._buf) > _SHRINK_AT:
                # release a buffer inflated by one huge frame; a new
                # object, so stale views (a contract violation) can
                # never alias freshly received bytes
                self._buf = bytearray()

    @property
    def buffered_bytes(self) -> int:
        return self._len - self._pos

    # -- error containment ---------------------------------------------

    def _quarantine(self, frame_start: int) -> None:
        """Drop the poisoned stream so the parser is safe to reuse.

        Called on every :class:`ProtocolError` before it propagates.
        Everything from the failing frame's first byte to the end of
        the buffer is discarded — a parser left pointing mid-frame
        would misparse every subsequent feed. The buffer object is
        replaced, never truncated, so outstanding zero-copy views (if
        the caller violated the lifetime contract) cannot alias new
        input.
        """
        dropped = self._len - frame_start
        self.last_error_dropped = dropped
        self.dropped_bytes += dropped
        self.errors += 1
        self._buf = bytearray()
        self._pos = 0
        self._len = 0

    # -- parsing -------------------------------------------------------

    def parse_pipeline(self, out: list, limit: int | None = None) -> int:
        """Append every complete command array to ``out`` in one pass.

        The serving hot path (DESIGN.md §7): a bounded window of the
        buffer is split on CRLF at C speed, an argument whose ``$len``
        header names exactly the length of the token behind it is
        *certified*, and a certified frame's argv is a slice of the
        token list. Any other argument (``zero_copy_threshold`` bytes
        or more, CRLF in the payload, a payload past the window, a
        zero-padded header) is read *by position*: length decoded,
        terminator checked, ``memoryview`` handed out at argv index
        >= 2 from the threshold up, and the next window opens behind
        its frame. That window doubles (up to 4 KiB) after a whole
        window certified or a frame only the window's edge cut, and
        drops to twice the certified bytes after a view or an argument
        that failed certification, so runs of large or CRLF-laden
        payloads are not scanned again.

        Returns :data:`PIPELINE_MORE` when drained (a trailing partial
        frame stays buffered) or :data:`PIPELINE_FALLBACK` when the
        next frame is not a plain command array (another type byte, a
        null array, a non-bulk or null element): pop that one with
        :meth:`parse_one`. Raises :class:`ProtocolError` (after
        quarantining); frames appended before the poison stay valid.
        """
        end_of_data = self._len
        pos = self._pos
        header_of = self._headers
        try:
            while True:
                stop = pos + self._window
                if stop > end_of_data:
                    stop = end_of_data
                # ``b"" +`` builds the bytes straight off the slice,
                # without ``bytes()``'s constructor dispatch
                tokens = (b"" + self._buf[pos:stop]).split(CRLF)
                last, i = len(tokens) - 1, 0  # no CRLF behind tokens[last]
                while i < last:  # tokens[i] heads a frame
                    head = tokens[i]
                    count = _ARRAY_COUNTS.get(head)
                    if count is None:  # wide, zero-padded, or no array
                        frame_start = pos + _span(tokens, 0, i) if i else pos
                        if head[:1] != b"*" or head[1:2] == b"-":
                            self._pos = frame_start
                            return PIPELINE_FALLBACK
                        count = _parse_int(head[1:])
                    after = i + 1 + 2 * count
                    argv = tokens[i + 2:after if after < last else last:2]
                    k = i + 1  # token index of the next ``$len`` header
                    for arg in argv:
                        if tokens[k] != header_of[len(arg)]:
                            # CRLF inside, an odd header, a view's size
                            grow = False
                            break
                        k += 2
                    else:
                        if after <= last:
                            out.append(argv)
                            i = after
                            if limit is not None and len(out) >= limit:
                                self._pos = pos + _span(tokens, 0, i)
                                return PIPELINE_MORE
                            continue
                        # every whole argument certified: a frame that
                        # only the window's edge cut widens the next
                        # window (``parse_one`` never widens it)
                        grow = stop < end_of_data and limit is None
                    # certification ends at token k: on by position
                    del argv[(k - i - 1) >> 1:]
                    frame_start = pos + _span(tokens, 0, i) if i else pos
                    certified = frame_start + _span(tokens, i, k) - pos
                    pos += certified
                    collapsed = (
                        _WINDOW_MIN if 2 * certified < _WINDOW_MIN
                        else min(2 * certified, _WINDOW_MAX)
                    )
                    self._window = (
                        min(2 * self._window, _WINDOW_MAX) if grow
                        else collapsed
                    )
                    zc_min = self._zc_min
                    buf = self._buf
                    for n in range(len(argv), count):
                        if pos >= end_of_data:
                            break
                        if buf[pos] != 0x24:  # not b"$": mixed array
                            self._pos = frame_start
                            return PIPELINE_FALLBACK
                        eol = buf.find(CRLF, pos + 1, end_of_data)
                        if eol < 0:
                            break
                        digits = buf[pos + 1:eol]
                        if not digits.isdigit():
                            if digits[:1] != b"-":
                                _parse_int(digits)  # raises
                            self._pos = frame_start  # null or negative
                            return PIPELINE_FALLBACK
                        length = int(digits)
                        start = eol + 2
                        pos = start + length + 2
                        if pos > end_of_data:
                            break
                        if buf[pos - 2] != 0x0D or buf[pos - 1] != 0x0A:
                            raise ProtocolError(_UNTERMINATED)
                        if zc_min is not None and length >= zc_min and n >= 2:
                            argv.append(memoryview(buf)[start:pos - 2])
                            self.views_created += 1
                            self.viewed = True
                            self._window = collapsed
                        else:
                            argv.append(bytes(buf[start:pos - 2]))
                    else:  # the frame is whole
                        out.append(argv)
                        if limit is None or len(out) < limit:
                            break
                        frame_start = pos  # at the limit: commit this frame
                    self._pos = frame_start  # a partial frame stays whole
                    return PIPELINE_MORE
                else:
                    tail = tokens[last]
                    if tail:
                        self._pos = stop - len(tail)
                        if tail[0] != 0x2A:  # not b"*"
                            return PIPELINE_FALLBACK  # another type byte
                    else:
                        self._pos = stop
                    if stop == end_of_data:
                        return PIPELINE_MORE
                    # a whole window certified: the next may be wider
                    consumed = self._pos - pos
                    pos = self._pos
                    if 2 * consumed > self._window:
                        self._window = min(2 * consumed, _WINDOW_MAX)
                    if not last:  # a count line wider than a window
                        return PIPELINE_FALLBACK
        except ProtocolError:
            # every raise above comes after its frame's ``frame_start``
            # is bound, so the prologue does not bind it
            self._quarantine(frame_start)
            raise

    def _parse_nothing(self, out: list, limit: int | None = None) -> int:
        """:meth:`parse_pipeline` with the fast path off: every frame
        is left to :meth:`parse_one`."""
        return PIPELINE_FALLBACK if self._pos < self._len else PIPELINE_MORE

    def parse_one(self) -> Any | None:
        """Return the next complete value, or ``None`` if more bytes needed.

        ``None`` as a *parsed value* (null bulk/array) is disambiguated
        by :meth:`parse_all`, which callers should prefer; here a null
        parse returns the :data:`NULL` sentinel.
        """
        pos = self._pos
        if pos >= self._len:
            return None
        if self._use_fast_path and self._buf[pos] == 0x2A:  # b"*"
            frames: list[Any] = []
            status = self.parse_pipeline(frames, limit=1)
            if frames:
                return frames[0]
            if status == PIPELINE_MORE:
                return None
            # PIPELINE_FALLBACK: the generic parser takes over below
        start = self._pos
        try:
            value = self._parse_value()
        except _Incomplete:
            self._pos = start
            return None
        except ProtocolError:
            self._quarantine(start)
            raise
        self._reset_if_drained()
        return value

    def parse_all(self) -> list[Any]:
        """All complete values currently buffered (nulls become ``None``)."""
        values = []
        while True:
            value = self.parse_one()
            if value is None:
                break
            values.append(None if value is NULL else value)
        return values

    # -- internals ---------------------------------------------------------

    def _read_line(self) -> bytes:
        idx = self._buf.find(CRLF, self._pos, self._len)
        if idx < 0:
            raise _Incomplete
        line = bytes(self._buf[self._pos:idx])
        self._pos = idx + 2
        return line

    def _read_exact(self, count: int) -> bytes:
        end = self._pos + count
        if self._len < end + 2:
            raise _Incomplete
        data = bytes(self._buf[self._pos:end])
        if self._buf[end:end + 2] != CRLF:
            raise ProtocolError(_UNTERMINATED)
        self._pos = end + 2
        return data

    def _parse_value(self) -> Any:
        if self._pos >= self._len:
            raise _Incomplete
        kind = bytes(self._buf[self._pos:self._pos + 1])
        self._pos += 1
        if kind == b"+":
            return SimpleString(_decode_line(self._read_line()))
        if kind == b"-":
            return make_resp_error(_decode_line(self._read_line()))
        if kind == b":":
            return _parse_int(self._read_line())
        if kind == b"$":
            length = _parse_int(self._read_line())
            if length == -1:
                return NULL
            if length < 0:
                raise ProtocolError(f"invalid bulk length {length}")
            return self._read_exact(length)
        if kind == b"*":
            length = _parse_int(self._read_line())
            if length == -1:
                return NULL
            if length < 0:
                raise ProtocolError(f"invalid array length {length}")
            items = []
            for _ in range(length):
                item = self._parse_value()
                items.append(None if item is NULL else item)
            return items
        raise ProtocolError(f"unknown RESP type byte {kind!r}")


class _Incomplete(Exception):
    """Internal: not enough buffered bytes for a complete value."""


class _Null:
    """Sentinel distinguishing parsed RESP null from 'need more bytes'."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<RESP null>"


#: parsed RESP null ($-1 or *-1), as returned by :meth:`RespParser.parse_one`
NULL = _Null()


def _parse_int(line: bytes) -> int:
    # digits behind at most one ``-``: int() also takes ``1_0``, ``+3``, `` 1``
    if line.isdigit() or (line[:1] == b"-" and line[1:].isdigit()):
        return int(line)
    raise ProtocolError(f"invalid integer {bytes(line)!r}")


def _decode_line(line: bytes) -> str:
    """Decode a simple-string/error line; garbage is a protocol error."""
    try:
        return line.decode()
    except UnicodeDecodeError:
        raise ProtocolError(f"non-UTF-8 line {line!r}") from None
