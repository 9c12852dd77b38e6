"""Property tests for the replication stream and handshake.

Two invariants hold at *every* byte boundary, not just the happy
path, and hypothesis hunts the boundaries:

1. **Prefix replay never resurrects.** Replaying any frame-aligned
   prefix of a master's stream yields a keyspace that is a subset of
   the keys the prefix wrote, and any key whose last record in the
   prefix is a tombstone (T), delete (D), or flush (F) is absent —
   a replica that dies mid-stream can never bring a reclaimed key
   back to life, no matter where the cut lands.

2. **The handshake is split-invariant.** Chopping the master's PSYNC
   reply into arbitrary chunks produces exactly the same parse as one
   big read, and every strict prefix is "incomplete", never a wrong
   answer.

3. **The backlog window is the stream's tail.** After any sequence of
   appends, on either role, the ring serves exactly the last
   ``capacity`` bytes ever appended — however lazily its storage is
   trimmed.
"""

from hypothesis import given, settings, strategies as st

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.repl import ReplicationState, SyncHandshake, apply_stream
from repro.kvstore.persist.codec import (
    EXP_NONE,
    encode_delete,
    encode_flush,
    encode_tombstone,
    encode_write,
    read_records,
)
from repro.kvstore.store import DataStore

KEYS = [b"k%d" % i for i in range(8)]

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.sampled_from(KEYS),
            st.binary(min_size=0, max_size=16),
        ),
        st.tuples(st.just("del"), st.sampled_from(KEYS)),
        st.tuples(st.just("tomb"), st.sampled_from(KEYS)),
        st.tuples(st.just("flush")),
    ),
    min_size=1,
    max_size=40,
)


def produce_stream(op_list) -> bytes:
    """Encode an op sequence the way a master's stream sink would."""
    state = ReplicationState()
    state.stream_started = True
    for op in op_list:
        if op[0] == "set":
            state.append(encode_write, (op[1], op[2], EXP_NONE))
        elif op[0] == "del":
            state.append(encode_delete, (op[1],))
        elif op[0] == "tomb":
            state.append(encode_tombstone, (op[1],))
        else:
            state.append(encode_flush, ())
    return bytes(state.pending)


@settings(max_examples=60, deadline=None)
@given(op_list=ops, data=st.data())
def test_prefix_replay_never_resurrects(op_list, data):
    stream = produce_stream(op_list)
    cut = data.draw(st.integers(0, len(stream)), label="cut")
    records, valid = read_records(stream[:cut])
    # a mid-frame cut floors to the last complete frame — exactly what
    # the replica's reader does with a torn read
    assert valid <= cut

    store = DataStore(SoftMemoryAllocator(name="prefix-replay"))
    state = ReplicationState()
    state.become_replica("127.0.0.1", 0)
    assert apply_stream(store, state, stream[:cut], now_ms=0) == valid

    last: dict[bytes, str] = {}
    for record in records:
        if record[0] == "F":
            for key in list(last):
                last[key] = "gone"
        else:
            last[record[1]] = record[0]

    live = set(store.keys())
    writable = {k for k, kind in last.items() if kind == "W"}
    assert live <= writable, "replica holds a key the prefix never wrote"
    for key, kind in last.items():
        if kind in ("T", "D", "gone"):
            assert store.get(key) is None, (
                f"{key!r} resurrected past its {kind} record"
            )
    tombs = sum(1 for r in records if r[0] == "T")
    assert state.tombstones_applied == tombs
    # the batch step advances the offset by exactly the bytes applied
    assert state.applied_records == len(records)
    assert state.master_repl_offset == valid


def chunked(blob: bytes, cuts: list[int]):
    points = sorted({0, len(blob), *cuts})
    return [blob[a:b] for a, b in zip(points, points[1:])]


handshake_replies = st.one_of(
    st.tuples(st.just(b"+CONTINUE\r\n"), st.binary(max_size=24)).map(
        lambda t: (t[0] + t[1], ("CONTINUE", t[1]))
    ),
    st.tuples(
        st.integers(0, 2**48),
        st.integers(0, 10**12),
        st.binary(max_size=48),
        st.binary(max_size=24),
    ).map(
        lambda t: (
            b"+FULLRESYNC %040x %d\r\n$%d\r\n" % (t[0], t[1], len(t[2]))
            + t[2]
            + t[3],
            ("FULLRESYNC", "%040x" % t[0], t[1], t[2], t[3]),
        )
    ),
)


@settings(max_examples=120, deadline=None)
@given(reply=handshake_replies, data=st.data())
def test_handshake_split_invariant(reply, data):
    blob, (kind, *rest) = reply
    cuts = data.draw(
        st.lists(st.integers(0, len(blob)), max_size=6), label="cuts"
    )
    handshake = SyncHandshake()
    result = None
    consumed = 0
    for chunk in chunked(blob, cuts):
        if result is not None:
            break  # completed before the trailing bytes arrived
        result = handshake.feed(chunk)
        consumed += len(chunk)
    assert result is not None
    assert result[0] == kind
    if kind == "CONTINUE":
        (leftover,) = rest
        # whatever arrived after completion is the stream's problem;
        # parsed leftover + unfed tail must reassemble the original
        assert result[1] + blob[consumed:] == leftover
    else:
        replid, offset, payload, leftover = rest
        assert result[1] == replid
        assert result[2] == offset
        assert result[3] == payload
        assert result[4] + blob[consumed:] == leftover


@settings(max_examples=120, deadline=None)
@given(reply=handshake_replies, data=st.data())
def test_handshake_every_strict_prefix_is_incomplete(reply, data):
    blob, expected = reply
    # the prefix must stop before the handshake can possibly complete:
    # for FULLRESYNC that is any byte before the payload's last; the
    # leftover tail is not part of the handshake at all
    if expected[0] == "CONTINUE":
        core = len(b"+CONTINUE\r\n")
    else:
        core = len(blob) - len(expected[-1])
    cut = data.draw(st.integers(0, core - 1), label="cut")
    handshake = SyncHandshake()
    assert handshake.feed(blob[:cut]) is None
    assert handshake.result is None
    # completing the core afterwards still parses correctly
    result = handshake.feed(blob[cut:core])
    assert result is not None and result[0] == expected[0]


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=96),
    origin=st.integers(min_value=0, max_value=1000),
    chunks=st.lists(
        st.tuples(st.booleans(), st.binary(min_size=0, max_size=250)),
        max_size=40,
    ),
)
def test_backlog_window_is_the_last_capacity_bytes(capacity, origin, chunks):
    state = ReplicationState(backlog_capacity=capacity)
    state.adopt(state.replid, origin)
    stream = b""
    for as_master, chunk in chunks:
        if as_master:  # drain(): pending moves into the ring
            state.pending += chunk
            assert state.drain() == chunk
        else:  # note_applied(): the replica's verbatim append
            state.note_applied(chunk, 0)
        stream += chunk
        window = stream[-capacity:]
        end = origin + len(stream)
        assert state.master_repl_offset == end
        assert state.backlog_size == len(window)
        assert state.backlog_off == end - len(window)
        assert state.backlog_since(state.backlog_off) == window
        assert f"repl_backlog_size:{len(window)}" in state.info_lines()
        assert (
            f"repl_backlog_first_byte_offset:{end - len(window)}"
            in state.info_lines()
        )
        # the partial-resync window is inclusive at both ends, exact
        assert state.can_partial(state.replid, state.backlog_off)
        assert state.can_partial(state.replid, end)
        assert not state.can_partial(state.replid, end + 1)
        if state.backlog_off > 0:
            assert not state.can_partial(state.replid, state.backlog_off - 1)
        cut = state.backlog_off + len(window) // 2
        assert state.backlog_since(cut) == window[len(window) // 2:]
