"""The command tokeniser against the generic parser, its oracle.

``RespParser.parse_pipeline`` splits a window of the buffer on CRLF and
certifies arguments against their ``$len`` headers; whatever does not
certify is read by position. The recursive parser
(``use_fast_path=False``) knows none of that, so it is the reference:
for any stream and any feed boundaries both must produce the same
frames, the same errors and the same parser state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.bench_resp import mixed_batch
from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore import resp
from repro.kvstore.resp import (
    NULL,
    PIPELINE_MORE,
    ProtocolError,
    RespParser,
    encode_command,
    encode_reply,
)
from repro.kvstore.server import ZERO_COPY_THRESHOLD, KvServer
from repro.kvstore.store import DataStore

THRESHOLD = 24

#: RESP integers are ASCII digits behind at most one ``-``; ``int()``
#: would read these as 10, 3, 1 and 2
MALFORMED = (
    b"*2\r\n$3\r\nGET\r\n$1_0\r\n0123456789\r\n",
    b"*2\r\n$3\r\nGET\r\n$+3\r\nabc\r\n",
    b"*2\r\n$3\r\nGET\r\n$ 1\r\na\r\n",
    b"*0_2\r\n$3\r\nGET\r\n$1\r\na\r\n",
)


def _plain(value):
    if type(value) is memoryview:
        return bytes(value)
    if type(value) is list:
        return [_plain(v) for v in value]
    return None if value is NULL else value


def _views_in(frames: list) -> list[tuple[int, int]]:
    """``(argv index, length)`` of every memoryview in ``frames``."""
    return [
        (i, len(arg))
        for argv in frames
        if type(argv) is list
        for i, arg in enumerate(argv)
        if type(arg) is memoryview
    ]


def drive(parser: RespParser, chunks: list[bytes], views: list | None = None):
    """Feed ``chunks`` the way ``KvServer.pump`` drains a parser.

    Returns everything observable: the values in order (a quarantine
    shows up as its error message, and parsing goes on behind it), the
    bytes left unconsumed and the quarantine counters. ``views``, when
    given, collects :func:`_views_in` of every frame handed out.
    """
    events: list = []
    for chunk in chunks:
        parser.feed(chunk)
        try:
            while True:
                frames: list = []
                try:
                    status = parser.parse_pipeline(frames)
                finally:
                    if views is not None:
                        views.extend(_views_in(frames))
                    events.extend(_plain(frames))
                    frames.clear()  # views die before the next feed
                if status == PIPELINE_MORE:
                    break
                value = parser.parse_one()
                if value is None:
                    break
                if views is not None:
                    views.extend(_views_in([value]))
                events.append(_plain(value))
        except ProtocolError as exc:
            events.append(("error", str(exc)))
    left = bytes(parser._buf[parser._pos:parser._len])
    return (
        events, left, parser.errors, parser.dropped_bytes,
        parser.last_error_dropped,
    )


def expected_views(events: list, threshold: int) -> int:
    """Views a whole-stream feed hands out: arguments at argv index >= 2
    of at least ``threshold`` bytes in frames the tokeniser took."""
    return sum(
        len(arg) >= threshold
        for frame in events
        if type(frame) is list and all(type(a) is bytes for a in frame)
        for arg in frame[2:]
    )


def assert_equivalent(chunks: list[bytes], threshold: int = THRESHOLD) -> list:
    """The tokeniser's observables equal the oracle's; returns the
    ``(argv index, length)`` of every view the tokeniser handed out."""
    fast = RespParser(zero_copy_threshold=threshold)
    slow = RespParser(use_fast_path=False)
    seen: list = []
    got = drive(fast, chunks, seen)
    assert got == drive(slow, chunks)
    views = expected_views(got[0], threshold)
    if len(chunks) == 1:
        assert fast.views_created == views
    else:  # a frame cut by a feed boundary is read again, views and all
        assert fast.views_created >= views
    return seen


def cut_at(stream: bytes, cuts: list[int]) -> list[bytes]:
    bounds = [0, *sorted(cuts), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# strategies: command streams that reach every tokeniser path
# ----------------------------------------------------------------------

#: payloads that hold the terminator's bytes, on both sides of THRESHOLD
payloads = st.one_of(
    st.binary(max_size=12),
    st.lists(
        st.sampled_from(
            [b"\r", b"\n", b"\r\n", b"a", b"$3", b"*2"]
            + [b"\r\n*1\r\n$1\r\nX\r\n"]  # a whole frame inside a payload
        ),
        max_size=THRESHOLD * 2,
    ).map(b"".join),
    st.integers(0, 5 * THRESHOLD).map(lambda n: b"v" * n),
    st.just(b"x" * 300),  # longer than several windows
)
commands = st.one_of(
    st.lists(payloads, min_size=1, max_size=5),
    st.lists(st.binary(max_size=3), min_size=10, max_size=70),  # wide *N
).map(lambda args: encode_command(*args))
replies = st.recursive(
    st.one_of(st.none(), st.integers(-99, 99), st.binary(max_size=8)),
    lambda children: st.lists(children, max_size=3),
    max_leaves=5,
).map(encode_reply)
#: frames that are not plain command arrays: nulls, negative and
#: zero-padded lengths, a short payload, a non-bulk element, junk, a
#: count line wider than the smallest window
mangled = st.sampled_from(
    [
        *MALFORMED,
        b"*-1\r\n",
        b"*2\r\n$-1\r\n$1\r\na\r\n",
        b"*1\r\n$-7\r\n",
        b"*03\r\n$1\r\na\r\n$01\r\nb\r\n$1\r\nc\r\n",
        b"*1\r\n$2\r\nabc\r\n",
        b"*1\r\n:5\r\n",
        b"*x\r\n",
        b"*\r\n",
        b"\r\n",
        b"*" + b"0" * 80 + b"1\r\n$1\r\na\r\n",
    ]
)
streams = st.lists(
    st.one_of(commands, commands, commands, replies, mangled),
    min_size=1,
    max_size=12,
).map(b"".join)


@settings(max_examples=400, deadline=None)
@given(streams, st.lists(st.integers(0, 4096), max_size=8))
def test_tokeniser_equals_generic_parser(stream, cuts):
    assert_equivalent(cut_at(stream, [c % (len(stream) + 1) for c in cuts]))


@settings(max_examples=60, deadline=None)
@given(streams.filter(lambda s: len(s) <= 400))
def test_every_feed_boundary_of_a_short_stream(stream):
    assert_equivalent([stream])
    for offset in range(1, len(stream)):
        assert_equivalent([stream[:offset], stream[offset:]])
    assert_equivalent([stream[i:i + 1] for i in range(len(stream))])


@pytest.mark.parametrize("lead", [0, 1, 40])
@pytest.mark.parametrize("size", [THRESHOLD - 2, THRESHOLD * 3])
def test_a_payload_that_looks_like_frames_is_one_argument(lead, size):
    """Tokens cut from inside a payload never head a frame: after an
    argument read by position the tokeniser steps over exactly the
    CRLFs the payload held, whether it fits the window or not."""
    smuggled = (b"x\r\n" + encode_command("FLUSHALL") * 8)[:size]
    stream = (
        encode_command("PING") * lead
        + encode_command("SET", "k", smuggled)
        + encode_command("GET", "k")
    )
    parser = RespParser(zero_copy_threshold=THRESHOLD)
    events = drive(parser, [stream])[0]
    assert events == [
        *[[b"PING"]] * lead, [b"SET", b"k", smuggled], [b"GET", b"k"]
    ]
    assert_equivalent([stream])


def test_mixed_sets_at_the_served_threshold():
    """At the server's threshold — the widest window — the tokeniser
    equals the oracle wherever feed boundaries and window edges fall,
    and only a payload of at least the threshold comes out as a view."""
    batch, __ = mixed_batch()
    stream = batch * 2  # the second batch meets the window the first left
    cuts = [[offset] for offset in range(1, len(stream), 61)]
    cuts += [list(range(step, len(stream), step)) for step in (1448, 4096)]
    for offsets in [[], *cuts]:
        seen = assert_equivalent(cut_at(stream, offsets), ZERO_COPY_THRESHOLD)
        assert seen, "the 5 KiB value comes out as a view"
        assert all(
            index >= 2 and size >= ZERO_COPY_THRESHOLD for index, size in seen
        )


class _SlicesSeen(bytearray):
    """A parse buffer that records how many bytes each slice read took."""

    def __init__(self, *args):
        super().__init__(*args)
        self.touched: list[int] = []

    def __getitem__(self, key):
        if type(key) is slice:
            self.touched.append(len(range(*key.indices(len(self)))))
        return super().__getitem__(key)


def _spy_on(parser: RespParser, data: bytes) -> _SlicesSeen:
    parser.feed(data)
    spy = parser._buf = _SlicesSeen(parser._buf)
    return spy


def test_window_follows_the_traffic():
    """Structural, not timed: a run of small commands is split a few
    windows at a time, not frame by frame, and the payloads of a run of
    large SETs are never copied or scanned."""
    parser = RespParser(zero_copy_threshold=512)
    frames: list = []
    small = b"".join(encode_command("GET", "key:%06d" % i) for i in range(600))
    spy = _spy_on(parser, small)
    assert parser.parse_pipeline(frames) == PIPELINE_MORE
    assert len(frames) == 600 and parser.buffered_bytes == 0
    # the ramp, then ~140 frames a window and one frame across each edge
    assert len(spy.touched) <= 600 // 10
    assert max(spy.touched) <= resp._WINDOW_MAX
    frames.clear()
    large = encode_command("SET", "k", b"x" * 8192) * 8
    spy = _spy_on(parser, large)
    assert parser.parse_pipeline(frames) == PIPELINE_MORE
    assert [type(argv[2]) for argv in frames] == [memoryview] * 8
    assert parser.views_created == 8
    # the first SET meets the window the GETs left; the rest a minimal one
    assert sum(spy.touched) <= resp._WINDOW_MAX + 8 * 4 * resp._WINDOW_MIN


def test_parse_one_touches_a_bounded_window_per_call():
    """``parse_all`` pops frame by frame (``limit=1``): each call may
    split only a bounded slice, or draining a buffer would be quadratic.
    Structural, not timed: count the bytes every buffer read covers."""
    frame = encode_command("SET", "key:000001", "value-000001")
    count = (1 << 20) // len(frame)
    parser = RespParser()
    spy = _spy_on(parser, frame * count)
    assert len(parser.parse_all()) == count
    assert len(spy.touched) <= 2 * count
    assert max(spy.touched) <= resp._WINDOW_MAX
    assert sum(spy.touched) <= count * 4 * len(frame)


# ----------------------------------------------------------------------
# satellite: RESP integers are digits, not whatever int() accepts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fast_path", [True, False])
@pytest.mark.parametrize("frame", MALFORMED)
def test_malformed_integers_are_protocol_errors(frame, fast_path):
    parser = RespParser(use_fast_path=fast_path)
    good = encode_command("PING")
    parser.feed(good + frame)
    assert parser.parse_one() == [b"PING"]
    with pytest.raises(ProtocolError, match="invalid integer b'"):
        parser.parse_one()
    assert parser.errors == 1
    assert parser.last_error_dropped == parser.dropped_bytes == len(frame)
    assert parser.buffered_bytes == 0


@pytest.mark.parametrize(
    "line", [b":1_0\r\n", b":+3\r\n", b": 1\r\n", b":--1\r\n", b":-\r\n"]
)
def test_generic_integers_are_strict_too(line):
    parser = RespParser()
    parser.feed(line)
    with pytest.raises(ProtocolError, match="invalid integer"):
        parser.parse_one()
    parser.feed(b":-12\r\n:007\r\n")
    assert parser.parse_all() == [-12, 7]


@pytest.mark.parametrize("frame", MALFORMED)
def test_server_counts_malformed_integers(frame):
    server = KvServer(DataStore(LockedSoftMemoryAllocator(name="strict")))
    out = bytearray()
    assert server.feed_batch(encode_command("PING") + frame, out) == 1
    assert out.startswith(b"+PONG\r\n-ERR protocol error: invalid integer")
    assert server.protocol_errors == server.obs.protocol_errors == 1
    assert server.bytes_dropped == len(frame)
    assert server.obs.protocol_dropped_bytes == len(frame)
