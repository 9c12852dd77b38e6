"""Replication satellites: typed READONLY, offset caches, read scaling.

Covers the client/tooling surface that rides along with replication:
the typed :class:`ReadOnlyReplicaError`, the loadgen driver's error
classification and replica read routing, and the last-known
replication section ``metrics_dump`` caches so a dead node's final
coordinates stay visible.
"""

import time

import pytest

from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore.resp import (
    ReadOnlyReplicaError,
    RespError,
    RespParser,
    make_resp_error,
)
from repro.kvstore.store import DataStore
from repro.loadgen.driver import DriverReport, drive
from repro.tools import metrics_dump

pytestmark = pytest.mark.timeout(120)


def make_server(name: str) -> TcpKvServer:
    store = DataStore(LockedSoftMemoryAllocator(name=name))
    return TcpKvServer(store).start()


class TestTypedReadonlyError:
    def test_factory_picks_the_subtype(self):
        err = make_resp_error("READONLY You can't write against a read only replica.")
        assert isinstance(err, ReadOnlyReplicaError)
        assert isinstance(err, RespError)  # old handlers keep working
        assert isinstance(make_resp_error("ERR nope"), RespError)
        assert not isinstance(make_resp_error("ERR nope"), ReadOnlyReplicaError)

    def test_parser_produces_the_subtype(self):
        parser = RespParser()
        parser.feed(b"-READONLY You can't write against a read only replica.\r\n")
        (reply,) = parser.parse_all()
        assert isinstance(reply, ReadOnlyReplicaError)

    def test_live_replica_raises_the_subtype(self):
        master = make_server("typed-master")
        replica = make_server("typed-replica")
        try:
            with TcpKvClient(replica.address) as rc:
                assert str(rc.execute("REPLICAOF", *master.address)) == "OK"
            # WAIT only counts replicas that finished their PSYNC, so
            # let the feed attach before racing a write against it
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                state = master.store.repl
                if state is not None and state.feeds:
                    break
                time.sleep(0.01)
            with TcpKvClient(master.address) as mc:
                mc.execute("SET", "a", "1")
                assert mc.execute("WAIT", 1, 5000) == 1
            with TcpKvClient(replica.address) as rc:
                with pytest.raises(ReadOnlyReplicaError):
                    rc.execute("SET", "b", "2")
        finally:
            replica.stop()
            master.stop()


class ScriptedClient:
    def __init__(self, replies):
        self._replies = iter(replies)
        self.batches = []

    def execute_pipeline(self, *commands):
        self.batches.append(commands)
        return [next(self._replies) for _ in commands]


class TestDriverClassification:
    def test_readonly_counted_not_raised(self):
        replies = [
            b"OK",
            make_resp_error("READONLY You can't write against a read only replica."),
            RespError("ERR whatever"),
        ]
        batch = [(b"SET", b"k", b"v")] * 3
        report = drive(ScriptedClient(replies), iter([batch]), max_ops=3)
        assert report.errors == 2
        assert report.readonly_errors == 1
        assert report.other_errors == 1
        assert report.as_dict()["readonly_errors"] == 1


class TestReadFromReplica:
    def test_fractional_accumulator_routes_deterministically(self):
        # 8 GETs at 0.5: exactly every second read goes to the replica
        primary = ScriptedClient([b"OK"] * 4 + [b"v"] * 4)
        replica = ScriptedClient([b"v", None, b"v", None])
        batch = [(b"SET", b"k%d" % i, b"v") for i in range(4)] + [
            (b"GET", b"k%d" % i) for i in range(8)
        ]
        report = drive(
            primary,
            iter([batch]),
            max_ops=len(batch),
            replica_client=replica,
            read_from_replica=0.5,
        )
        assert report.replica_reads == 4
        # writes never route to the replica
        assert all(
            op[0] != b"SET" for b in replica.batches for op in b
        )
        # empty replies from the replica are stale, counted not raised
        assert report.replica_stale_reads == 2
        assert report.errors == 0
        doc = report.as_dict()
        assert doc["replica_reads"] == 4
        assert doc["replica_stale_reads"] == 2

    def test_zero_fraction_never_touches_the_replica(self):
        primary = ScriptedClient([b"v"] * 6)
        replica = ScriptedClient([])
        batch = [(b"GET", b"k")] * 6
        report = drive(
            primary,
            iter([batch]),
            max_ops=6,
            replica_client=replica,
            read_from_replica=0.0,
        )
        assert report.replica_reads == 0
        assert replica.batches == []

    def test_fraction_without_replica_client_is_refused(self):
        with pytest.raises(ValueError, match="replica_client"):
            drive(
                ScriptedClient([]),
                iter([]),
                max_ops=1,
                read_from_replica=0.5,
            )

    def test_replies_reassemble_in_command_order(self):
        primary = ScriptedClient([b"p0", b"p1", b"p2"])
        replica = ScriptedClient([b"r0", b"r1", b"r2"])
        batch = [(b"GET", b"k%d" % i) for i in range(6)]
        # fraction 1.0: the accumulator fires on every read — but the
        # report only sees merged order, so check the stale accounting
        # path observes replica replies positionally
        report = drive(
            primary,
            iter([batch[:3]]),
            max_ops=3,
            replica_client=replica,
            read_from_replica=1.0,
        )
        assert report.replica_reads == 3
        assert primary.batches == [()] or primary.batches == []


class TestLastKnownOffsets:
    def test_metrics_dump_keeps_last_replication_section(self):
        server = make_server("dump-node")
        host, port = server.address
        addr = [(host, port)]
        live = metrics_dump.cluster_snapshot(addr)
        (shard,) = live["shards"]
        assert shard["info"]["Replication"]["role"] == "master"
        server.stop()
        dead = metrics_dump.cluster_snapshot(addr)
        (entry,) = dead["shards"]
        assert "error" in entry
        assert entry["replication_stale"] is True
        assert entry["replication"]["role"] == "master"
        assert (
            entry["replication"]["master_repl_offset"]
            == shard["info"]["Replication"]["master_repl_offset"]
        )
