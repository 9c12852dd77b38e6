"""The serving-plane cluster, in-process: routing, redirects, client.

Everything here runs inside one test process — dispatcher-level checks
against a :class:`ClusterState`-attached store, and
:class:`ClusterKvClient` against two real in-process TCP servers that
share a slot table. The multi-*process* half (supervisor, one SMD
across shards) lives in ``tests/integration/test_cluster_processes.py``.

What the client costs is counted, not timed: the round trips each
pooled :class:`TcpKvClient` makes per pipelined burst, the ``CLUSTER
SLOTS`` refreshes and the ``MOVED`` replies, on a warm client.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.cluster import ClusterKvClient
from repro.kvstore.cluster.slots import key_hash_slot
from repro.kvstore.cluster.state import (
    ClusterState,
    node_id_for,
    parse_moved,
)
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore import server as server_module
from repro.kvstore.commands import dispatch
from repro.kvstore.resp import RespError
from repro.kvstore.server import ZERO_COPY_THRESHOLD
from repro.kvstore.store import DataStore

# keys with known owners under a 2-shard split (slots 0-8191 / 8192-16383)
LOW_KEY = b"bar"  # slot 5061 -> shard 0
HIGH_KEY = b"foo"  # slot 12182 -> shard 1
ADDRESSES = [("127.0.0.1", 7000), ("127.0.0.1", 7001)]


def make_store(shard: int) -> DataStore:
    store = DataStore(SoftMemoryAllocator(name=f"shard{shard}"))
    store.attach_cluster(ClusterState(shard, ADDRESSES))
    return store


class TestClusterState:
    def test_owned_key_passes(self):
        state = ClusterState(0, ADDRESSES)
        assert state.check([LOW_KEY]) is None

    def test_foreign_key_moved(self):
        state = ClusterState(0, ADDRESSES)
        err = state.check([HIGH_KEY])
        assert isinstance(err, RespError)
        assert err.message == "MOVED 12182 127.0.0.1:7001"
        assert state.moved_replies == 1

    def test_keyless_commands_always_pass(self):
        # the gate is only ever asked about keys: a keyless command
        # never reaches it, whatever its arguments hash to
        store = make_store(0)
        assert dispatch(store, [b"PING"]) == "PONG"
        assert b"cluster_enabled:1" in dispatch(store, [b"INFO"])
        assert len(dispatch(store, [b"CLUSTER", b"SLOTS"])) == 2
        assert dispatch(store, [b"WAIT", b"1", b"100"]) == 0
        assert store.cluster.moved_replies == 0

    def test_same_shard_multikey_passes(self):
        # bar and {bar}x share a shard via the hash tag
        state = ClusterState(0, ADDRESSES)
        assert state.check([LOW_KEY, b"{bar}x"]) is None

    def test_cross_shard_multikey_is_crossslot(self):
        state = ClusterState(0, ADDRESSES)
        err = state.check([LOW_KEY, HIGH_KEY])
        assert isinstance(err, RespError)
        assert err.message.startswith("CROSSSLOT")
        assert state.crossslot_replies == 1

    def test_parse_moved(self):
        assert parse_moved("MOVED 12182 127.0.0.1:7001") == (
            12182,
            ("127.0.0.1", 7001),
        )
        assert parse_moved("ERR unrelated") is None
        assert parse_moved("MOVED notanint 127.0.0.1:7001") is None


class TestClusterCommands:
    def test_moved_from_dispatch(self):
        store = make_store(0)
        reply = dispatch(store, [b"GET", HIGH_KEY])
        assert isinstance(reply, RespError)
        assert reply.message == "MOVED 12182 127.0.0.1:7001"
        # and the owned key still works
        assert dispatch(store, [b"SET", LOW_KEY, b"v"]) == "OK"

    def test_replication_verbs_are_never_moved(self):
        # b"1" and b"listening-port" hash to shard 1's range; neither
        # is a key, so shard 0 answers them itself
        store = make_store(0)
        assert dispatch(store, [b"WAIT", b"1", b"100"]) == 0
        assert dispatch(
            store, [b"REPLCONF", b"listening-port", b"7000"]
        ) == "OK"
        assert store.cluster.moved_replies == 0

    def test_cluster_keyslot(self):
        store = make_store(0)
        assert dispatch(store, [b"CLUSTER", b"KEYSLOT", b"foo"]) == 12182

    def test_cluster_keyslot_standalone(self):
        # KEYSLOT is pure math; it answers even without a cluster
        store = DataStore(SoftMemoryAllocator(name="solo"))
        assert dispatch(store, [b"CLUSTER", b"KEYSLOT", b"foo"]) == 12182

    def test_cluster_slots(self):
        store = make_store(0)
        reply = dispatch(store, [b"CLUSTER", b"SLOTS"])
        assert len(reply) == 2
        start, end, node = reply[0]
        assert (start, end) == (0, 8191)
        assert node[0] == b"127.0.0.1"
        assert node[1] == 7000
        assert node[2] == node_id_for("127.0.0.1", 7000).encode()

    def test_cluster_slots_standalone_is_empty(self):
        store = DataStore(SoftMemoryAllocator(name="solo"))
        assert dispatch(store, [b"CLUSTER", b"SLOTS"]) == []

    def test_cluster_myid(self):
        store = make_store(1)
        assert dispatch(store, [b"CLUSTER", b"MYID"]) == node_id_for(
            "127.0.0.1", 7001
        ).encode()

    def test_cluster_shards(self):
        store = make_store(0)
        reply = dispatch(store, [b"CLUSTER", b"SHARDS"])
        assert len(reply) == 2

    def test_info_cluster_section(self):
        store = make_store(1)
        dispatch(store, [b"GET", LOW_KEY])  # one MOVED
        text = dispatch(store, [b"INFO", b"cluster"]).decode()
        assert "cluster_enabled:1" in text
        assert "cluster_shard_id:1" in text
        assert "cluster_slot_range:8192-16383" in text
        assert "cluster_moved_replies:1" in text

    def test_info_cluster_disabled_standalone(self):
        store = DataStore(SoftMemoryAllocator(name="solo"))
        text = dispatch(store, [b"INFO", b"cluster"]).decode()
        assert "cluster_enabled:0" in text


@pytest.fixture
def two_shards():
    """Two real TCP servers sharing one slot table, plus their client."""
    servers = []
    addresses = []
    stores = []
    # bind first so the node table carries real ports
    for shard in range(2):
        store = DataStore(SoftMemoryAllocator(name=f"tshard{shard}"))
        server = TcpKvServer(store, "127.0.0.1", 0)
        server.start()
        servers.append(server)
        stores.append(store)
        addresses.append(server.address)
    for shard, store in enumerate(stores):
        store.attach_cluster(ClusterState(shard, addresses))
    client = ClusterKvClient(addresses)
    try:
        yield client, addresses, stores
    finally:
        client.close()
        for server in servers:
            server.stop()


class TestClusterKvClient:
    def test_routes_without_redirects_after_bootstrap(self, two_shards):
        client, _, _ = two_shards
        for i in range(40):
            key = f"k:{i}".encode()
            assert client.execute(b"SET", key, b"v") == "OK"
            assert client.execute(b"GET", key) == b"v"
        assert client.moved_redirects == 0

    def test_wait_routes_like_a_keyless_command(self, two_shards):
        # not to whichever shard owns the slot of its replica count
        client, addresses, _ = two_shards
        assert key_hash_slot(b"1") > 8191  # shard 1's range
        assert client._addr_for((b"WAIT", b"1", b"100")) == addresses[0]
        assert client.execute(b"WAIT", b"0", b"0") == 0

    def test_stale_map_heals_via_moved(self, two_shards):
        client, addresses, _ = two_shards
        # poison the map: point every slot at the wrong shard
        slot = key_hash_slot(HIGH_KEY)
        wrong = addresses[0]
        client._slots = [wrong] * len(client._slots)
        assert client.execute(b"SET", HIGH_KEY, b"v") == "OK"
        assert client.moved_redirects == 1
        # healed: the refresh relearned the true owner
        assert client._slots[slot] == addresses[1]

    def test_pipeline_splits_and_reorders(self, two_shards):
        client, _, stores = two_shards
        keys = [f"p:{i}".encode() for i in range(30)]
        sets = [(b"SET", key, b"v%d" % i) for i, key in enumerate(keys)]
        assert client.execute_pipeline(*sets) == ["OK"] * len(keys)
        gets = [(b"GET", key) for key in keys]
        replies = client.execute_pipeline(*gets)
        assert replies == [b"v%d" % i for i in range(len(keys))]
        # the batch genuinely split: both shards saw traffic
        slots_per_shard = {
            shard: sum(
                1
                for key in keys
                if stores[shard].cluster.owns(key_hash_slot(key))
            )
            for shard in range(2)
        }
        assert all(count > 0 for count in slots_per_shard.values())

    def test_pipeline_chases_strays(self, two_shards):
        client, addresses, _ = two_shards
        client._slots = [addresses[0]] * len(client._slots)
        keys = [f"s:{i}".encode() for i in range(20)]
        sets = [(b"SET", key, b"x") for key in keys]
        assert client.execute_pipeline(*sets) == ["OK"] * len(keys)
        assert client.moved_redirects > 0

    def test_error_replies_stay_in_place(self, two_shards):
        client, _, _ = two_shards
        client.execute(b"SET", b"str", b"v")
        replies = client.execute_pipeline(
            (b"GET", b"str"), (b"INCR", b"str"), (b"GET", b"str")
        )
        assert replies[0] == b"v"
        assert isinstance(replies[1], RespError)
        assert replies[2] == b"v"

    def test_standalone_degrades_gracefully(self):
        # a non-cluster server: empty CLUSTER SLOTS, everything routes
        # to the startup node
        store = DataStore(SoftMemoryAllocator(name="solo-tcp"))
        server = TcpKvServer(store, "127.0.0.1", 0)
        server.start()
        try:
            with ClusterKvClient([server.address]) as client:
                assert client.execute(b"SET", b"any", b"v") == "OK"
                assert client.execute(b"GET", b"any") == b"v"
                assert client.moved_redirects == 0
        finally:
            server.stop()

    def test_mset_with_a_zero_copy_key_does_not_kill_the_shard(
        self, two_shards, monkeypatch
    ):
        # a key of >= ZERO_COPY_THRESHOLD bytes at argv[3] is parsed as a
        # memoryview; it used to reach the slot hash as one, and the
        # AttributeError took the event loop (and its listener) down
        _, addresses, stores = two_shards
        big_key = b"{a}" + b"k" * ZERO_COPY_THRESHOLD
        arrived = []
        materialize = server_module._materialize_views

        def recording(argv):
            arrived.append(type(argv[3]))
            materialize(argv)

        monkeypatch.setattr(server_module, "_materialize_views", recording)
        owner = next(
            shard for shard, store in enumerate(stores)
            if store.cluster.owns(key_hash_slot(b"{a}x"))
        )
        for shard, address in enumerate(addresses):
            with TcpKvClient(address) as conn:
                reply, pong = conn.execute_pipeline(
                    (b"MSET", b"{a}x", b"v", big_key, b"v2"), (b"PING",)
                )
                if shard == owner:
                    assert reply == "OK"
                    assert conn.execute(b"GET", big_key) == b"v2"
                else:
                    assert reply.message.startswith("MOVED ")
                assert pong == "PONG"
            # and the listener still accepts
            with TcpKvClient(address) as again:
                assert again.execute(b"PING") == "PONG"
        # each shard's parser handed the key out as a view
        assert arrived == [memoryview, memoryview]

    def test_close_idempotent(self, two_shards):
        client, _, _ = two_shards
        client.close()
        client.close()


# -- what a warm pipelined burst costs, counted -------------------------------

DEPTH = 64


def burst(batch: int) -> list[tuple]:
    """The ``batch``-th pipelined burst: a SET then a GET of each key
    of a rolling window, so every GET reads what the same burst wrote."""
    commands = []
    for i in range(batch * DEPTH // 2, (batch + 1) * DEPTH // 2):
        key = b"b:%d" % (i % 512)
        commands += [(b"SET", key, b"v" * 64), (b"GET", key)]
    return commands


@pytest.fixture
def round_trips(monkeypatch) -> Counter:
    """``(method, shard address)`` -> calls, for every pooled connection."""
    calls: Counter = Counter()
    for method in ("execute", "execute_pipeline"):
        real = getattr(TcpKvClient, method)

        def counted(self, *args, real=real, method=method):
            calls[method, self._sock.getpeername()] += 1
            return real(self, *args)

        monkeypatch.setattr(TcpKvClient, method, counted)
    return calls


def drive(client, batches: int) -> None:
    for b in range(batches):
        replies = client.execute_pipeline(*burst(b))
        assert replies[::2] == ["OK"] * (DEPTH // 2)
        assert replies[1::2] == [b"v" * 64] * (DEPTH // 2)


class TestClusterBurstCensus:
    def test_a_warm_burst_is_one_pipeline_per_shard_it_touches(
        self, two_shards, round_trips
    ):
        client, addresses, stores = two_shards
        drive(client, 1)  # warm: both shards dialed
        round_trips.clear()
        refreshes = client.slot_map_refreshes
        touched: Counter = Counter()
        for b in range(10):
            touched.update({
                addresses[shard]
                for __, key, *__ in burst(b)
                for shard, store in enumerate(stores)
                if store.cluster.owns(key_hash_slot(key))
            })
        drive(client, 10)
        assert round_trips == Counter({
            ("execute_pipeline", address): count
            for address, count in touched.items()
        })
        assert touched == {addresses[0]: 10, addresses[1]: 10}
        assert client.slot_map_refreshes == refreshes
        assert client.moved_redirects == 0
        assert [store.cluster.moved_replies for store in stores] == [0, 0]

    def test_against_a_standalone_server_a_burst_is_one_pipeline(
        self, round_trips
    ):
        store = DataStore(SoftMemoryAllocator(name="solo-burst"))
        server = TcpKvServer(store, "127.0.0.1", 0)
        server.start()
        try:
            with ClusterKvClient([server.address]) as client:
                drive(client, 1)
                round_trips.clear()
                drive(client, 10)
                assert round_trips == {
                    ("execute_pipeline", server.address): 10
                }
                assert client.slot_map_refreshes == 1  # at bootstrap
                assert client.moved_redirects == 0
        finally:
            server.stop()
