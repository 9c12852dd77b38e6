"""A daemon's DEMAND never lands between a write and its log record.

``DataStore.set`` puts a key (``SoftDict.upsert``) and only then logs
its ``W``, to the AOF and to the replication stream. A DEMAND served
inside that window would log the key's ``T`` before its ``W``, and a
replay of either log would bring back a key the budget took. A kv
process serves its daemon's socket on its own event loop, so a DEMAND
that arrives inside the window waits for the round to end. The hook
here sits in the window for one key: it has the daemon DEMAND
everything the kv holds and waits, bounded, for the REPORT.

Shutdown has the same kind of window: the closing snapshot walks the
keyspace after the loop stopped. The agent closes before it, so a
DEMAND sent meanwhile reclaims nothing the snapshot already holds.
"""

from __future__ import annotations

import glob
import os
import socket
import time

import repro.kvstore.persist.engine
from repro.core.sma import SoftMemoryAllocator
from repro.daemon.smd import SmdConfig
from repro.kvstore import TcpKvClient
from repro.kvstore.dict import SoftDict
from repro.kvstore.persist.codec import read_records
from repro.kvstore.persist.snapshot import read_snapshot
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig
from repro.kvstore.values import value_bytes
from repro.rpc.config import RpcConfig
from repro.rpc.framing import FrameStream
from repro.rpc.server import RpcDaemonServer
from repro.tools.kv_server import GracefulShutdown, build_server
from tests.kvstore.transport_standins import ScriptedDaemon

TARGET = b"window"


def kinds_of(records, key) -> list[str]:
    return [record[0] for record in records if record[1] == key]


def test_a_demand_inside_the_write_window_waits_for_the_round(
    tmp_path, monkeypatch
):
    daemon = ScriptedDaemon(tmp_path / "smd.sock")
    with daemon.welcoming(startup_pages=4):
        store, persistence, server = build_server(
            smd_socket=daemon.path, data_dir=str(tmp_path / "data"), tier=False
        )
    daemon.serve()
    repl = server.enable_replication()
    repl.stream_started = True  # what serving a PSYNC does
    seen = {}
    real_upsert = SoftDict.upsert

    def upsert_then_demand(self, key, value, size=None):
        done = real_upsert(self, key, value, size)
        if key == TARGET and "report" not in seen:
            daemon.send({"op": "demand", "id": 1, "pages": 10_000})
            seen["report"] = daemon.expect("report", timeout=1.0)
        return done

    monkeypatch.setattr(SoftDict, "upsert", upsert_then_demand)
    server.start()
    try:
        with TcpKvClient(server.address) as client:
            for i in range(40):
                assert client.execute("SET", b"k%d" % i, b"v" * 1000) == "OK"
            assert client.execute("SET", TARGET, b"w" * 1000) == "OK"
            if seen["report"] is None:  # it waited out the window
                seen["report"] = daemon.expect("report", timeout=10.0)
            assert seen["report"]["pages_reclaimed"] > 0
            client.execute("PING")  # a round boundary: the T is logged
    finally:
        server.stop()
        store.smd_agent.close()
        daemon.close()
    stream = repl.backlog_since(repl.backlog_off) + repl.drain()
    with open(persistence.aof_path, "rb") as fh:
        aof = fh.read()
    persistence.close()

    live = dict(store.keyspace.items())
    for log in (aof, stream):
        records, valid = read_records(log)
        assert valid == len(log)
        kinds = kinds_of(records, TARGET)
        assert TARGET in live or kinds.index("W") < kinds.index("T"), kinds
    replayed = DataStore(
        SoftMemoryAllocator(name="replayed"),
        StoreConfig(tier=TierConfig(enabled=False)),
    )
    replayed.replay(read_records(aof)[0], int(time.time() * 1000))
    assert dict(replayed.keyspace.items()) == live
    assert store.traditional_bytes == sum(
        len(key) + value_bytes(value) for key, value in live.items()
    )


def test_a_demand_during_term_leaves_the_snapshot_whole(tmp_path, monkeypatch):
    """A second tenant asks for the whole machine once the kv's loop
    has stopped, so the daemon's episode DEMANDs from the kv and waits:
    nobody reads the kv's socket now. The snapshot equals the live
    keyspace, the DEMAND ends unanswered as soon as the agent closes
    (the tenant reads its DENY during the snapshot, long before the
    ``demand_timeout``), and the daemon's ledger forgets the kv."""
    data = str(tmp_path / "data")
    with RpcDaemonServer(
        str(tmp_path / "smd.sock"), 64, SmdConfig(startup_budget_pages=4),
        rpc_config=RpcConfig(demand_timeout=60.0),
    ) as daemon:
        store, persistence, server = build_server(
            smd_socket=daemon.socket_path, data_dir=data, tier=False
        )
        server.start()
        with TcpKvClient(server.address) as client:
            for i in range(30):
                assert client.execute("SET", b"k%d" % i, b"v" * 900) == "OK"
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(daemon.socket_path)
        tenant = FrameStream(sock)
        tenant.send({"op": "hello", "name": "tenant", "held": 0})
        assert tenant.recv()["op"] == "welcome"
        agent = store.smd_agent
        real_close = agent.close
        real_materialize = repro.kvstore.persist.engine.materialize_entries
        replies = []

        def close_mid_demand():
            tenant.send({"op": "request", "id": 1, "pages": 64})
            for __ in range(1000):  # the DEMAND is out: bounded, not timed
                if daemon.smd.demands_issued:
                    break
                time.sleep(0.01)
            real_close()

        def materialize_then_read(store_, now_unix):
            entries = real_materialize(store_, now_unix)
            replies.append(tenant.recv())
            return entries

        monkeypatch.setattr(agent, "close", close_mid_demand)
        monkeypatch.setattr(
            repro.kvstore.persist.engine, "materialize_entries",
            materialize_then_read,
        )
        GracefulShutdown(server, persistence, agent).run()
        assert daemon.smd.demands_issued == 1
        tenant.close()
        for __ in range(1000):  # the deregistrations: bounded, not timed
            if not daemon.smd.registry:
                break
            time.sleep(0.01)
        assert not daemon.smd.registry and daemon.smd.assigned_pages == 0
    newest = max(glob.glob(os.path.join(data, "base-*.snap")),
                 key=os.path.getmtime)
    records, __ = read_snapshot(newest)
    assert {r[1]: r[2] for r in records} == dict(store.keyspace.items())
    assert len(records) == 30
    # nobody was left to answer the DEMAND
    assert replies == [{"op": "deny", "id": 1, "reclaimed": 0}]
    assert agent.demands_served == 0
