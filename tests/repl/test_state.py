"""ReplicationState: offsets, the backlog ring, and role transitions.

Pure in-memory tests — no sockets, but for :class:`TestOneWriter`. The
invariants here are the ones the wire protocol leans on: offsets
advance by exactly the encoded byte count, the backlog covers
``[backlog_off, backlog_off+size)``, ``can_partial`` is inclusive of
the window's end (a fully-caught-up replica partial-resyncs to an
empty tail, not a full sync), and promotion keeps the stream
coordinates while a full sync discards them. :class:`TestOneWriter`
shows why the state needs no lock: on a live master the one thread
that writes ``pending`` is the event loop, a DEMAND's tombstones
included. :class:`TestOneEncode` pins that a master with an AOF encodes
every record once, of every kind: the stream takes the AOF's frame, so
both carry the same bytes, even on a clock that moves on every read.
"""

import random
import threading

import pytest

import repro.kvstore.persist.codec as codec
import repro.kvstore.persist.engine
import repro.kvstore.repl.state
import repro.kvstore.store
from repro.core.sma import SoftMemoryAllocator
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore.commands import dispatch
from repro.kvstore.persist.codec import (
    EXP_ABSOLUTE,
    EXP_KEEP,
    EXP_NONE,
    decode_record,
    encode_delete,
    encode_flush,
    encode_tombstone,
    encode_write,
    read_records,
    scan_frames,
)
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.repl import ReplicationState
from repro.kvstore.resp import RespError
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig
from repro.tools.kv_server import build_server
from tests.kvstore.transport_standins import ScriptedDaemon


def encoded_len(encoder, *args) -> int:
    out = bytearray()
    encoder(out, *args)
    return len(out)


class TestOffsets:
    def test_offset_advances_by_encoded_bytes(self):
        state = ReplicationState()
        state.stream_started = True
        state.append(encode_write, (b"k", b"v", EXP_NONE))
        expected = encoded_len(encode_write, b"k", b"v", EXP_NONE)
        assert state.master_repl_offset == expected
        assert len(state.pending) == expected
        state.append(encode_delete, (b"k",))
        expected += encoded_len(encode_delete, b"k")
        assert state.master_repl_offset == expected

    def test_taps_inert_until_stream_started(self):
        state = ReplicationState()
        state.append(encode_write, (b"k", b"v", EXP_NONE))
        state.append(encode_tombstone, (b"k",))
        state.append(encode_flush, ())
        assert state.master_repl_offset == 0
        assert not state.pending

    def test_taps_inert_on_replica(self):
        state = ReplicationState()
        state.stream_started = True
        state.become_replica("127.0.0.1", 1234)
        state.append(encode_write, (b"k", b"v", EXP_NONE))
        assert state.master_repl_offset == 0
        assert not state.pending

    def test_expiring_write_encodes_absolute_deadline(self):
        state = ReplicationState(clock=lambda: 1000.0)
        state.stream_started = True
        state.append(encode_write, (b"k", b"v", EXP_ABSOLUTE), 5.0)
        payloads, valid = scan_frames(bytes(state.pending))
        assert valid == len(state.pending)
        kind, key, value, exp_kind, deadline = decode_record(payloads[0])
        assert (kind, key, value) == ("W", b"k", b"v")
        assert exp_kind == EXP_ABSOLUTE
        assert deadline == 1_005_000  # (1000 + 5) seconds, in unix ms

    def test_keepttl_write_encodes_keep(self):
        state = ReplicationState()
        state.stream_started = True
        state.append(encode_write, (b"k", b"v", EXP_KEEP))
        payloads, __ = scan_frames(bytes(state.pending))
        assert decode_record(payloads[0])[3] == EXP_KEEP


class TestOneWriter:
    def test_a_demands_tombstones_are_logged_on_the_loop(
        self, tmp_path, monkeypatch
    ):
        """A master serves its daemon's DEMAND on its own event loop, so
        the tombstones a reclamation appends come from the thread that
        appends the W records and runs ``drain``: every drained chunk
        parses whole, and the offset counts exactly the bytes streamed to
        a replica."""
        daemon = ScriptedDaemon(tmp_path / "smd.sock")
        with daemon.welcoming(startup_pages=4):
            store, __, master = build_server(
                smd_socket=daemon.path, tier=False
            )
        daemon.serve()
        state = master.enable_replication()
        loggers, drained = [], []
        real_append, real_drain = (
            ReplicationState.append, ReplicationState.drain
        )

        def append(self, encoder, args, ex=None):
            if self is state and encoder is encode_tombstone:
                loggers.append(threading.get_ident())
            return real_append(self, encoder, args, ex)

        def drain(self):
            chunk = real_drain(self)
            if self is state:
                drained.append(chunk)
            return chunk

        monkeypatch.setattr(ReplicationState, "append", append)
        monkeypatch.setattr(ReplicationState, "drain", drain)
        replica = TcpKvServer(DataStore(SoftMemoryAllocator(name="replica")))
        replica.replicaof(*master.address)
        master.start()
        replica.start()
        try:
            with TcpKvClient(master.address) as client:
                for i in range(30):
                    assert client.execute("SET", b"a%d" % i, b"v" * 900) == "OK"
                daemon.send({"op": "demand", "id": 1, "pages": 10_000})
                assert daemon.expect("report", timeout=10.0)["pages_from_sds"]
                for i in range(30):
                    assert client.execute("SET", b"b%d" % i, b"v" * 900) == "OK"
                assert client.execute("WAIT", 1, 15000) == 1
        finally:
            replica.stop()
            master.stop()
            store.smd_agent.close()
            daemon.close()
        assert loggers and set(loggers) == {master._thread.ident}
        for chunk in drained:
            assert read_records(chunk)[1] == len(chunk)
        assert state.master_repl_offset == sum(map(len, drained))
        assert dict(replica.store.keyspace.items()) == dict(
            store.keyspace.items()
        )


class TestBacklogRing:
    def test_drain_moves_pending_into_backlog(self):
        state = ReplicationState()
        state.stream_started = True
        state.append(encode_write, (b"k", b"v", EXP_NONE))
        data = state.drain()
        assert data and not state.pending
        assert state.backlog_since(state.backlog_off) == data
        assert state.backlog_off == 0
        assert state.drain() == b""  # idempotent when empty

    def test_ring_trims_front_and_advances_origin(self):
        state = ReplicationState(backlog_capacity=64)
        state.stream_started = True
        total = 0
        for i in range(20):
            state.append(encode_write, (b"key%d" % i, b"x" * 16, EXP_NONE))
            state.drain()
            total = state.master_repl_offset
        assert state.backlog_size <= 64
        assert state.backlog_off == total - state.backlog_size

    def test_can_partial_window_is_inclusive(self):
        state = ReplicationState(backlog_capacity=64)
        state.stream_started = True
        for i in range(20):
            state.append(encode_write, (b"key%d" % i, b"x" * 16, EXP_NONE))
            state.drain()
        lo = state.backlog_off
        hi = state.backlog_off + state.backlog_size
        assert state.can_partial(state.replid, lo)
        assert state.can_partial(state.replid, hi)  # fully caught up
        assert not state.can_partial(state.replid, lo - 1)
        assert not state.can_partial(state.replid, hi + 1)
        assert not state.can_partial("0" * 40, lo)  # wrong lineage
        assert not state.can_partial(state.replid, -1)

    def test_backlog_since_returns_exact_tail(self):
        state = ReplicationState()
        state.stream_started = True
        state.append(encode_write, (b"a", b"1", EXP_NONE))
        cut = state.master_repl_offset
        state.append(encode_write, (b"b", b"2", EXP_NONE))
        whole = state.drain()
        assert state.backlog_since(cut) == whole[cut:]
        assert state.backlog_since(state.master_repl_offset) == b""

    def test_note_applied_mirrors_master_arithmetic(self):
        master = ReplicationState()
        master.stream_started = True
        master.append(encode_write, (b"k", b"v", EXP_NONE))
        data = master.drain()
        replica = ReplicationState()
        replica.become_replica("127.0.0.1", 1)
        replica.note_applied(data, 1)
        assert replica.master_repl_offset == master.master_repl_offset
        assert replica.backlog_since(replica.backlog_off) == data
        assert replica.applied_records == 1


class TestRoleTransitions:
    def test_become_master_keeps_stream_coordinates(self):
        state = ReplicationState()
        state.become_replica("127.0.0.1", 1)
        state.adopt("a" * 40, 500)
        state.note_applied(b"x" * 10, 0)
        state.become_master()
        # psync2-lite: an ex-sibling at offset 505 must partial-resync
        assert state.role == "master"
        assert state.replid == "a" * 40
        assert state.master_repl_offset == 510
        assert state.stream_started
        assert state.can_partial("a" * 40, 505)

    def test_adopt_discards_dead_coordinates(self):
        state = ReplicationState()
        state.stream_started = True
        state.append(encode_write, (b"k", b"v", EXP_NONE))
        state.drain()
        state.become_replica("127.0.0.1", 1)
        state.adopt("b" * 40, 9000)
        assert state.replid == "b" * 40
        assert state.master_repl_offset == 9000
        assert not state.backlog_size and not state.pending
        assert state.backlog_off == 9000

    def test_become_replica_drops_feeds(self):
        state = ReplicationState()
        state.register_feed("127.0.0.1:5", 0)
        state.become_replica("127.0.0.1", 1)
        assert state.feeds == []
        assert state.link_status == "connect"


class TestFeeds:
    def test_ack_bookkeeping_and_wait_count(self):
        state = ReplicationState(clock=lambda: 42.0)
        a = state.register_feed("127.0.0.1:1", 0)
        b = state.register_feed("127.0.0.1:2", 0)
        state.note_ack(a, 100)
        state.note_ack(b, 50)
        assert state.acked_by(50) == 2
        assert state.acked_by(100) == 1
        assert state.acked_by(101) == 0
        state.note_ack(a, 90)  # acks never regress
        assert a.ack_offset == 100
        assert a.last_ack_unix == 42.0
        state.drop_feed(a)
        assert state.acked_by(50) == 1 and not a.connected

    def test_info_lines_per_role(self):
        state = ReplicationState()
        state.stream_started = True
        state.append(encode_write, (b"k", b"v", EXP_NONE))
        offset = state.master_repl_offset
        state.register_feed("127.0.0.1:1", offset)
        master_info = "\n".join(state.info_lines())
        assert "role:master" in master_info
        assert (
            f"replica0:addr=127.0.0.1:1,ack_offset={offset},lag=0"
            in master_info
        )
        state.become_replica("10.0.0.1", 6379)
        replica_info = "\n".join(state.info_lines())
        assert "role:replica" in replica_info
        assert "master_host:10.0.0.1" in replica_info
        assert "master_link_status:connect" in replica_info
        assert "tombstones_applied:0" in replica_info

    def test_rejects_nonpositive_backlog(self):
        with pytest.raises(ValueError):
            ReplicationState(backlog_capacity=0)


class TestTombstoneRecords:
    def test_tombstone_travels_as_T(self):
        state = ReplicationState()
        state.stream_started = True
        state.append(encode_tombstone, (b"victim",))
        payloads, __ = scan_frames(bytes(state.pending))
        assert decode_record(payloads[0]) == ("T", b"victim")
        expected = encoded_len(encode_tombstone, b"victim")
        assert state.master_repl_offset == expected


def durable_master(tmp_path, clock, **config):
    """A store with an AOF and a started stream — a master that has
    served a PSYNC — every plane on ``clock``. Its SMA asks for one page
    at a time, so its budget is the pages it holds and a reclamation
    reaches the keyspace."""
    store = DataStore(
        SoftMemoryAllocator(name="durable-master", request_batch_pages=1),
        StoreConfig(time_fn=clock, **config),
    )
    persist = Persistence(PersistenceConfig(dir=str(tmp_path)), clock=clock)
    store.attach_persistence(persist)
    state = ReplicationState(clock=clock)
    state.stream_started = True
    store.repl = state
    return store, persist, state


class Clock:
    """Unix seconds a test moves by hand, plus ``tick`` on every read."""

    def __init__(self, tick: float = 0.0) -> None:
        self.now = 1_000_000.0
        self.tick = tick
        self.reads: list[float] = []

    def __call__(self) -> float:
        now = self.now
        self.reads.append(now)
        self.now += self.tick
        return now


#: the record kind each encoder writes
KINDS = {
    "encode_write": "W",
    "encode_delete": "D",
    "encode_tombstone": "T",
    "encode_demote": "M",
    "encode_expire": "E",
    "encode_persist": "P",
    "encode_flush": "F",
}


def spy_on_encoders(monkeypatch) -> list[tuple]:
    """Log ``(kind, key)`` per encode (``("F",)`` for a flush), wherever
    the store or a sink binds an encoder."""
    encodes: list[tuple] = []
    for name, kind in KINDS.items():
        def spy(out, *args, kind=kind, real=getattr(codec, name)):
            encodes.append((kind,) + args[:1])
            return real(out, *args)

        for module in (
            repro.kvstore.store,
            repro.kvstore.persist.engine,
            repro.kvstore.repl.state,
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    return encodes


class TestOneEncode:
    def test_a_durable_replicated_set_is_encoded_once(
        self, tmp_path, monkeypatch
    ):
        """Every record of every kind, a SET's ``W`` first: one encode,
        and the stream carries exactly the AOF's records."""
        store, persist, state = durable_master(
            tmp_path, Clock(), tier=TierConfig(enabled=True)
        )
        encodes = spy_on_encoders(monkeypatch)
        incompressible = random.Random(1).randbytes(3000)
        steps = [
            (lambda: dispatch(store, [b"SET", b"k", b"v"]), [("W", b"k")]),
            (lambda: dispatch(store, [b"EXPIRE", b"k", b"100"]),
             [("E", b"k")]),
            (lambda: dispatch(store, [b"PERSIST", b"k"]), [("P", b"k")]),
            (lambda: dispatch(store, [b"DEL", b"k"]), [("D", b"k")]),
            *[
                (lambda i=i: store.set(b"c%d" % i, b"A" * 3000),
                 [("W", b"c%d" % i)])
                for i in range(3)
            ],
            # a one-page squeeze demotes the oldest compressible entry
            (lambda: store.sma.reclaim(1), [("M", b"c0")]),
            (lambda: dispatch(store, [b"FLUSHALL"]), [("F",)]),
            (lambda: store.set(b"noise", incompressible), [("W", b"noise")]),
            # squeezed to nothing, an incompressible entry is reclaimed
            (lambda: store.sma.reclaim(store.sma.held_pages),
             [("T", b"noise")]),
        ]
        stream = b""
        for action, records in steps:
            del encodes[:]
            action()
            chunk = state.drain()
            assert [r[:2] for r in read_records(chunk)[0]] == records
            assert encodes == records
            stream += chunk
        assert store.stats.reclaimed_keys == 1
        assert persist.stats.tombstones_logged == 1
        persist.flush()
        with open(persist.aof_path, "rb") as fh:
            assert fh.read() == stream
        persist.close()

    def test_without_an_aof_the_stream_encodes_it(self, tmp_path):
        store, persist, state = durable_master(tmp_path, lambda: 1000.0)
        persist.set_appendonly(False)
        assert persist.append(encode_write, (b"k", b"v", EXP_NONE)) is None
        dispatch(store, [b"SET", b"k", b"v"])
        assert read_records(state.drain())[0] == [
            ("W", b"k", b"v", EXP_NONE, 0)
        ]
        persist.close()

    @pytest.mark.parametrize(
        "tick", [0.0, 0.0007], ids=["between-commands", "every-read"]
    )
    def test_the_aof_and_the_stream_carry_the_same_bytes(
        self, tmp_path, tick
    ):
        """One clock that moves 1.7 ms between commands and, in the
        second case, 0.7 ms more on every read: a deadline the two sinks
        read apart would differ between them."""
        clock = Clock(tick)
        store, persist, state = durable_master(tmp_path, clock)
        commands = [
            [b"SET", b"k", b"v"],
            [b"SETEX", b"lease", b"10", b"v"],
            [b"SET", b"lease", b"v2", b"KEEPTTL"],
            [b"INCR", b"n"],
            [b"HSET", b"h", b"f", b"v"],
            [b"APPEND", b"k", b"tail"],
            [b"DEL", b"n"],
            [b"EXPIRE", b"k", b"100"],
            [b"EXPIREAT", b"lease", b"1000200"],
            [b"PERSIST", b"k"],
        ]
        for argv in commands:
            assert not isinstance(dispatch(store, argv), RespError), argv
            clock.now += 0.0017
        persist.flush()
        with open(persist.aof_path, "rb") as fh:
            aof = fh.read()
        stream = state.drain()
        assert aof == stream  # byte for byte, not only in size
        records, valid = read_records(aof)
        assert valid == len(aof)
        assert [(r[0], r[1]) for r in records] == [
            ("W", b"k"), ("W", b"lease"), ("W", b"lease"), ("W", b"n"),
            ("W", b"h"), ("W", b"k"), ("D", b"n"), ("E", b"k"),
            ("E", b"lease"), ("P", b"k"),
        ]
        if tick:  # 10 s past an instant the clock returned
            assert records[1][3] == EXP_ABSOLUTE
            assert records[1][4] in {int((t + 10) * 1000) for t in clock.reads}
        else:
            assert records[1][3:] == (EXP_ABSOLUTE, 1_000_010_001)  # 1.7 ms on
        assert records[2][3] == EXP_KEEP
        persist.close()
