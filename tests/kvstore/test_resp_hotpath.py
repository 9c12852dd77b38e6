"""Hot-path regression and equivalence tests for the RESP rewrite.

Covers the parser-state bugfix sweep that rode along with the
zero-copy hot path:

* quarantine on :class:`ProtocolError` — a reused parser (server
  session or :class:`TcpKvClient` reply stream) must never misparse
  frames after an error left it mid-frame;
* explicit dropped-byte accounting for poisoned batches;
* ``RespError`` equality/hash contract;
* differential fuzz: the command fast path and the generic recursive
  parser agree on every byte-split permutation of a stream;
* zero-copy lifetime: memoryview payloads handed out by the parser
  materialize before anything retains them, so values survive buffer
  compaction and reuse.
"""

from __future__ import annotations

import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore.resp import (
    OK,
    PIPELINE_FALLBACK,
    PIPELINE_MORE,
    PONG,
    ProtocolError,
    RespError,
    RespParser,
    encode_command,
    encode_reply,
)
from repro.kvstore import TcpKvClient
from repro.kvstore.server import KvServer, ZERO_COPY_THRESHOLD
from repro.kvstore.store import DataStore


def make_server(name: str = "hotpath") -> KvServer:
    return KvServer(DataStore(LockedSoftMemoryAllocator(name=name)))


# ----------------------------------------------------------------------
# satellite: parser quarantine on ProtocolError
# ----------------------------------------------------------------------


class TestQuarantine:
    # a frame that errors mid-_parse_value (after consuming elements),
    # followed by bytes that LOOK like a valid frame: a parser that
    # keeps its position would resume right at +REAL and hand garbage
    # to the caller as a real reply
    POISON_MID_FRAME = b"*2\r\n$3\r\nabc\r\n$-9\r\n"
    FAKE_TAIL = b"+REAL\r\n"

    def test_generic_path_error_drops_buffered_tail(self):
        p = RespParser()
        p.feed(self.POISON_MID_FRAME + self.FAKE_TAIL)
        with pytest.raises(ProtocolError):
            p.parse_one()
        # everything from the poisoned frame on is gone
        assert p.buffered_bytes == 0
        assert p.parse_all() == []
        # and the parser is immediately reusable
        p.feed(b"+OK\r\n")
        assert p.parse_all() == ["OK"]

    def test_quarantine_counters(self):
        p = RespParser()
        payload = self.POISON_MID_FRAME + self.FAKE_TAIL
        p.feed(payload)
        with pytest.raises(ProtocolError):
            p.parse_one()
        assert p.errors == 1
        assert p.last_error_dropped == len(payload)
        assert p.dropped_bytes == len(payload)
        p.feed(b"!bad\r\n")
        with pytest.raises(ProtocolError):
            p.parse_one()
        assert p.errors == 2
        assert p.last_error_dropped == len(b"!bad\r\n")
        assert p.dropped_bytes == len(payload) + len(b"!bad\r\n")

    def test_fast_path_error_quarantines_too(self):
        p = RespParser()
        p.feed(b"*1\r\n$2\r\nxyZZ\r\n" + self.FAKE_TAIL)
        with pytest.raises(ProtocolError):
            p.parse_one()
        assert p.buffered_bytes == 0
        p.feed(encode_command("PING"))
        assert p.parse_all() == [[b"PING"]]

    def test_server_session_reusable_after_poison(self):
        server = make_server()
        out = bytearray()
        server.feed_batch(self.POISON_MID_FRAME + self.FAKE_TAIL, out)
        assert bytes(out).startswith(b"-ERR protocol error")
        # the fake tail must NOT have produced a second reply
        assert bytes(out).count(b"\r\n") == 1
        out.clear()
        assert server.feed_batch(encode_command("PING"), out) == 1
        assert bytes(out) == b"+PONG\r\n"

    def test_tcp_client_reply_stream_recovers(self):
        """The regression from the issue: ``TcpKvClient`` keeps one
        parser for the connection's lifetime; an error reply frame that
        died mid-parse must not desync every later reply."""
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()

        def serve() -> None:
            conn, __ = listener.accept()
            with conn:
                conn.recv(65536)  # first command
                # poisoned reply followed by a plausible-looking frame:
                # a non-quarantining parser would hand +REAL back as
                # the *next* command's reply
                conn.sendall(
                    TestQuarantine.POISON_MID_FRAME + TestQuarantine.FAKE_TAIL
                )
                conn.recv(65536)  # second command
                conn.sendall(b"+OK\r\n")

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            client = TcpKvClient(address, timeout=10.0)
            with pytest.raises(ProtocolError):
                client.execute("PING")
            # the very next reply must be the server's real +OK,
            # not the stale +REAL from the poisoned stream
            assert client.execute("PING") == "OK"
            client.close()
            thread.join(timeout=10)
        finally:
            listener.close()


# ----------------------------------------------------------------------
# satellite: dropped bytes are explicit in stats
# ----------------------------------------------------------------------


class TestDroppedByteAccounting:
    def test_feed_batch_accounts_poison_drop(self):
        server = make_server()
        good = encode_command("SET", "a", "1")
        poison = b"*1\r\n$2\r\nxyZZ\r\n"
        trailing = encode_command("GET", "a")
        out = bytearray()
        executed = server.feed_batch(good + poison + trailing, out)
        # the command before the poison still ran and replied
        assert executed == 1
        assert bytes(out).startswith(b"+OK\r\n-ERR protocol error")
        # the poisoned frame AND the fed-but-unparsed tail are counted
        assert server.protocol_errors == 1
        assert server.bytes_dropped == len(poison) + len(trailing)
        assert server.obs.protocol_errors == 1
        assert server.obs.protocol_dropped_bytes == server.bytes_dropped
        # session still serves
        out.clear()
        assert server.feed_batch(encode_command("GET", "a"), out) == 1
        assert bytes(out) == b"$1\r\n1\r\n"

    def test_clean_traffic_drops_nothing(self):
        server = make_server()
        out = bytearray()
        server.feed_batch(encode_command("SET", "k", "v"), out)
        server.feed_batch(encode_command("GET", "k"), out)
        assert server.bytes_dropped == 0
        assert server.obs.protocol_dropped_bytes == 0


class TestOneLoop:
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_fallback_frames_share_the_main_loop(self, fast_path):
        """Commands and not-a-command frames interleaved in one buffer:
        replies stay in order and every executed command is counted
        once — whether it came off the fast path or (generic parser
        forced) was popped by the fallback and joined the same loop."""
        server = make_server()
        if not fast_path:
            server._parser = RespParser(use_fast_path=False)
        bad = b"-ERR protocol error: expected array of bulk strings\r\n"
        out = bytearray()
        executed = server.feed_batch(
            encode_command("PING")
            + b"*-1\r\n"
            + b"*2\r\n$3\r\nGET\r\n$-1\r\n"
            + b"+OK\r\n"
            + encode_command("PING"),
            out,
        )
        assert bytes(out) == b"+PONG\r\n" + bad * 3 + b"+PONG\r\n"
        assert executed == 5
        assert server.commands_processed == 2
        obs = server.obs
        assert obs.commands == 2 == sum(
            snap.count for snap in obs.command_stats().values()
        )
        assert server.protocol_errors == 0


# ----------------------------------------------------------------------
# satellite: RespError __eq__ / __hash__ contract
# ----------------------------------------------------------------------


class TestRespErrorHash:
    def test_equal_errors_hash_equal(self):
        a = RespError("ERR nope")
        b = RespError("ERR nope")
        c = RespError("ERR other")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_usable_in_sets_and_dict_keys(self):
        a = RespError("ERR nope")
        b = RespError("ERR nope")
        c = RespError("ERR other")
        assert len({a, b, c}) == 2
        counts: dict[RespError, int] = {a: 1}
        counts[b] = counts.get(b, 0) + 1
        assert counts == {a: 2}

    def test_not_equal_to_other_types(self):
        assert RespError("ERR x") != "ERR x"
        assert RespError("ERR x") != Exception("ERR x")


# ----------------------------------------------------------------------
# interned replies and fast-path parse shapes
# ----------------------------------------------------------------------


class TestInternedReplies:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (OK, b"+OK\r\n"),
            (PONG, b"+PONG\r\n"),
            (0, b":0\r\n"),
            (127, b":127\r\n"),
            (128, b":128\r\n"),
            (-3, b":-3\r\n"),
            (memoryview(b"abc"), b"$3\r\nabc\r\n"),
            (memoryview(b"x" * 300), b"$300\r\n" + b"x" * 300 + b"\r\n"),
        ],
    )
    def test_encodings(self, value, expected):
        assert encode_reply(value) == expected

    def test_empty_array_command_parses_fast(self):
        p = RespParser()
        p.feed(b"*0\r\n")
        assert p.parse_one() == []

    def test_multi_digit_frames(self):
        p = RespParser()
        argv = ["SET", "k" * 23, "v" * 145]
        p.feed(encode_command(*argv))
        assert p.parse_all() == [[a.encode() for a in argv]]

    def test_pipeline_fallback_leaves_frame_intact(self):
        p = RespParser()
        p.feed(b"*-1\r\n")
        frames: list[object] = []
        assert p.parse_pipeline(frames) == PIPELINE_FALLBACK
        assert frames == []
        assert p.buffered_bytes == len(b"*-1\r\n")  # untouched
        assert p.parse_all() == [None]

    def test_pipeline_drains_batches(self):
        p = RespParser()
        cmds = [["SET", f"k{i}", f"v{i}"] for i in range(40)]
        p.feed(b"".join(encode_command(*c) for c in cmds))
        frames = []
        assert p.parse_pipeline(frames) == PIPELINE_MORE
        assert frames == [[a.encode() for a in c] for c in cmds]
        assert p.buffered_bytes == 0


# ----------------------------------------------------------------------
# satellite: differential fuzz — fast path ≡ generic parser
# ----------------------------------------------------------------------

command_frames = st.lists(
    st.one_of(
        st.binary(max_size=24),
        st.text(max_size=12),
        st.integers(min_value=-10**6, max_value=10**6),
    ),
    min_size=1,
    max_size=6,
).map(lambda args: encode_command(*args))

reply_frames = st.recursive(
    st.one_of(
        st.none(),
        st.integers(min_value=-10**9, max_value=10**9),
        st.binary(max_size=24),
    ),
    lambda children: st.lists(children, max_size=4),
    max_leaves=8,
).map(encode_reply)

#: streams mixing valid commands, valid replies, and raw garbage —
#: the parsers must agree on all of it, including where they error
stream_pieces = st.lists(
    st.one_of(command_frames, reply_frames, st.binary(max_size=16)),
    min_size=1,
    max_size=6,
)


def _materialize(value: object) -> object:
    if type(value) is memoryview:
        return bytes(value)
    if type(value) is list:
        return [_materialize(v) for v in value]
    return value


def _drain(parser: RespParser, chunks: list[bytes]):
    """Feed ``chunks`` one by one; collect values until error/exhaustion."""
    values: list[object] = []
    for chunk in chunks:
        parser.feed(chunk)
        try:
            values.extend(_materialize(v) for v in parser.parse_all())
        except ProtocolError:
            return values, "error", parser.buffered_bytes
    return values, "ok", parser.buffered_bytes


@st.composite
def split_stream(draw):
    payload = b"".join(draw(stream_pieces))
    n_cuts = draw(st.integers(min_value=0, max_value=6))
    cuts = sorted(
        draw(st.integers(min_value=0, max_value=len(payload)))
        for _ in range(n_cuts)
    )
    bounds = [0, *cuts, len(payload)]
    return [payload[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=300, deadline=None)
@given(split_stream())
def test_fast_path_equals_generic_parser(chunks):
    """Same stream, same split points: identical values and outcome."""
    fast = RespParser()
    slow = RespParser(use_fast_path=False)
    assert _drain(fast, chunks) == _drain(slow, chunks)


@settings(max_examples=200, deadline=None)
@given(split_stream())
def test_zero_copy_mode_equals_copying_mode(chunks):
    """Zero-copy parsing yields byte-identical values (materialized)."""
    zc = RespParser(zero_copy_threshold=1)
    plain = RespParser()
    assert _drain(zc, chunks) == _drain(plain, chunks)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=5),
        min_size=1,
        max_size=8,
    )
)
def test_pipelined_commands_roundtrip_both_paths(commands):
    """Whole pipelined batches parse identically via both paths."""
    payload = b"".join(encode_command(*c) for c in commands)
    fast = RespParser()
    slow = RespParser(use_fast_path=False)
    fast.feed(payload)
    slow.feed(payload)
    assert fast.parse_all() == slow.parse_all() == commands


# ----------------------------------------------------------------------
# satellite: zero-copy lifetime — retained values survive buffer reuse
# ----------------------------------------------------------------------


class TestZeroCopyLifetime:
    def test_parser_emits_views_above_threshold(self):
        p = RespParser(zero_copy_threshold=16)
        p.feed(encode_command("SET", "k", b"A" * 32))
        frames: list[list] = []
        p.parse_pipeline(frames)
        [argv] = frames
        # command name and key stay bytes; only the payload is a view
        assert type(argv[0]) is bytes and type(argv[1]) is bytes
        assert type(argv[2]) is memoryview
        assert p.views_created == 1
        materialized = bytes(argv[2])
        assert materialized == b"A" * 32
        # drop the view (end of batch), refill the buffer with other
        # traffic: the materialized copy must be unaffected
        frames.clear()
        del argv
        p.feed(encode_command("SET", "k2", b"B" * 32))
        p.parse_pipeline(frames)
        assert materialized == b"A" * 32
        assert bytes(frames[0][2]) == b"B" * 32

    def test_store_retains_bytes_not_views(self):
        server = make_server()
        big = bytes(range(256)) * (ZERO_COPY_THRESHOLD // 256 + 1)
        assert len(big) > ZERO_COPY_THRESHOLD
        out = bytearray()
        server.feed_batch(encode_command("SET", "big", big), out)
        assert server.parser.views_created == 1  # zero-copy engaged
        # hammer the same parser buffer with enough traffic to recycle
        # and overwrite the region the view pointed at
        for i in range(64):
            out.clear()
            server.feed_batch(
                encode_command("SET", f"other:{i}", b"x" * 600), out
            )
        out.clear()
        server.feed_batch(encode_command("GET", "big"), out)
        assert bytes(out) == b"$%d\r\n" % len(big) + big + b"\r\n"

    def test_non_audited_command_gets_bytes(self):
        """APPEND concatenates; it must see bytes, never a view."""
        server = make_server()
        chunk = b"z" * (ZERO_COPY_THRESHOLD + 8)
        out = bytearray()
        server.feed_batch(encode_command("SET", "s", chunk), out)
        out.clear()
        server.feed_batch(encode_command("APPEND", "s", chunk), out)
        assert bytes(out) == b":%d\r\n" % (2 * len(chunk))
        out.clear()
        server.feed_batch(encode_command("STRLEN", "s"), out)
        assert bytes(out) == b":%d\r\n" % (2 * len(chunk))

    def test_set_with_options_materializes(self):
        """SET key value EX n scans options — outside the audited shape."""
        server = make_server()
        big = b"q" * (ZERO_COPY_THRESHOLD * 2)
        out = bytearray()
        server.feed_batch(
            encode_command("SET", "opt", big, "EX", "100"), out
        )
        assert bytes(out) == b"+OK\r\n"
        out.clear()
        server.feed_batch(encode_command("GET", "opt"), out)
        assert bytes(out) == b"$%d\r\n" % len(big) + big + b"\r\n"

    def test_mset_keys_and_values_materialize(self):
        server = make_server()
        big_key = b"K" * (ZERO_COPY_THRESHOLD + 1)
        big_val = b"V" * (ZERO_COPY_THRESHOLD + 2)
        out = bytearray()
        server.feed_batch(
            encode_command("MSET", "small", big_val, big_key, b"tiny"), out
        )
        assert bytes(out) == b"+OK\r\n"
        out.clear()
        server.feed_batch(encode_command("GET", "small"), out)
        assert bytes(out) == b"$%d\r\n" % len(big_val) + big_val + b"\r\n"
        out.clear()
        server.feed_batch(encode_command("STRLEN", big_key), out)
        assert bytes(out) == b":4\r\n"


# ----------------------------------------------------------------------
# recv_into plumbing: the zero-copy inbound path
# ----------------------------------------------------------------------


class TestRecvView:
    @staticmethod
    def _push(parser: RespParser, data: bytes) -> None:
        view = parser.recv_view(len(data))
        view[: len(data)] = data
        view.release()
        parser.commit_recv(len(data))

    def test_recv_view_roundtrip(self):
        p = RespParser()
        self._push(p, encode_command("SET", "k", "v"))
        assert p.parse_all() == [[b"SET", b"k", b"v"]]

    def test_recv_view_partial_frames_across_fills(self):
        p = RespParser()
        data = encode_command("SET", "key", "value")
        collected = []
        for i in range(len(data)):
            self._push(p, data[i:i + 1])
            collected.extend(p.parse_all())
        assert collected == [[b"SET", b"key", b"value"]]

    def test_compaction_preserves_partial_tail(self):
        """A consumed prefix past the compaction bound slides the live
        tail back without corrupting a partial frame."""
        p = RespParser()
        cmd = encode_command("SET", "key", "x" * 100)
        stream = cmd * 200
        split = 16500  # > the compaction threshold, mid-frame
        total = []
        for chunk in (stream[:split], stream[split:]):
            self._push(p, chunk)
            total.extend(p.parse_all())
        assert len(total) == 200
        assert all(v == [b"SET", b"key", b"x" * 100] for v in total)
        assert p.buffered_bytes == 0


class TestRecvFrom:
    """``recv_from`` is the one receive call: into the ``bytearray``
    itself when the parser is drained and roomy, else through
    ``recv_view`` + ``commit_recv`` — and the parse cannot tell which."""

    class Scripted:
        """A socket whose ``recv_into`` lands the next scripted chunk and
        remembers what kind of buffer it was handed."""

        def __init__(self, *chunks) -> None:  # bytes, or what to raise
            self.chunks = list(chunks)
            self.buffers: list[type] = []

        def recv_into(self, buffer) -> int:
            self.buffers.append(type(buffer))
            chunk = self.chunks.pop(0)
            if isinstance(chunk, type):
                raise chunk
            buffer[: len(chunk)] = chunk
            return len(chunk)

    def test_first_receive_sizes_the_buffer_then_drained_ones_reuse_it(self):
        p = RespParser()
        sock = self.Scripted(
            encode_command("SET", "k", "v"), encode_command("GET", "k")
        )
        assert p.recv_from(sock, 4096) == len(encode_command("SET", "k", "v"))
        assert p.parse_all() == [[b"SET", b"k", b"v"]]
        p.recv_from(sock, 4096)
        assert p.parse_all() == [[b"GET", b"k"]]
        # an empty buffer goes through the view; a drained one does not
        assert sock.buffers == [memoryview, bytearray]

    def test_a_partial_frame_keeps_its_bytes_and_takes_the_view(self):
        p = RespParser()
        data = encode_command("SET", "key", "value")
        sock = self.Scripted(data[:9], data[9:], encode_command("PING"))
        p.recv_from(sock, 4096)
        assert p.parse_all() == [] and p.buffered_bytes == 9
        p.recv_from(sock, 4096)  # not drained: lands behind the 9 bytes
        assert p.parse_all() == [[b"SET", b"key", b"value"]]
        p.recv_from(sock, 4096)
        assert p.parse_all() == [[b"PING"]]
        assert sock.buffers == [memoryview, memoryview, bytearray]

    def test_an_oversized_or_undersized_buffer_is_not_received_into(self):
        p = RespParser()
        big, ping = encode_command("SET", "k", "x" * (1 << 20)), b"+PING\r\n"
        sock = self.Scripted(big, ping, ping)
        p.recv_from(sock, len(big))
        assert p.parse_all() == [[b"SET", b"k", b"x" * (1 << 20)]]
        # drained, but inflated past the shrink bound: released, not reused
        p.recv_from(sock, 4096)
        assert p.parse_all() == ["PING"]
        assert len(p._buf) == 4096
        # drained, but smaller than the caller asks for: grown first
        p.recv_from(sock, 8192)
        assert p.parse_all() == ["PING"]
        assert sock.buffers == [memoryview] * 3 and len(p._buf) >= 8192

    def test_zero_bytes_and_a_raising_socket_leave_the_parser_as_it_was(self):
        p = RespParser()
        ping = encode_command("PING")
        sock = self.Scripted(ping, b"", BlockingIOError, ping)
        p.recv_from(sock, 4096)
        assert p.parse_all() == [[b"PING"]]
        assert p.recv_from(sock, 4096) == 0  # EOF: nothing to parse
        assert p.parse_all() == [] and p.buffered_bytes == 0
        with pytest.raises(BlockingIOError):
            p.recv_from(sock, 4096)
        assert p.parse_all() == [] and p.buffered_bytes == 0
        p.recv_from(sock, 4096)
        assert p.parse_all() == [[b"PING"]]
