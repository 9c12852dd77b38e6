"""BGSAVE from a forked child: the loop's share, the process's threads,
and the synchronous checkpoints that wait for a child instead of
skipping their capture.

The loop switches the log and forks; the child writes ``base-<g>.snap``
from its copy-on-write image and ``_exit``s; the loop reaps it. So:

* the loop's BGSAVE costs the same bytecodes whatever the keyspace
  holds (counted with ``opcodes``, no clock);
* a ``kv_server --dir`` process runs one thread, its loop, also while
  its BGSAVE child runs (read from ``/proc/<pid>/task``);
* ``CONFIG SET appendonly yes`` and a replica's full-sync seal, both
  synchronous checkpoints, wait for a child still writing.

A ``write_snapshot`` patched in this process is inherited by a forked
child (and run by a save thread), so the slow-save tests read the same
on any tree.
"""

from __future__ import annotations

import glob
import os
import time

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore import TcpKvClient
from repro.kvstore.cluster.supervisor import spawn_kv_server
from repro.kvstore.commands import dispatch
from repro.kvstore.persist import engine
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.resp import RespError
from repro.kvstore.store import DataStore, StoreConfig
from repro.obs.oracle import flat_info
from repro.tools.kv_server import build_server
from tests.fleet import hold_bgsave_children, held_child
from tests.kvstore.test_batch_census import opcodes

pytestmark = pytest.mark.timeout(120)

#: the loop's BGSAVE at 65,536 keys over its cost at 4
CENSUS_BOUND = 1.10


def durable_store(path, *, appendonly=True, clock=time.time, **store_config):
    store = DataStore(
        SoftMemoryAllocator(name="fork-save"), StoreConfig(**store_config)
    )
    persist = Persistence(
        PersistenceConfig(dir=str(path), appendonly=appendonly), clock=clock
    )
    store.attach_persistence(persist)
    return store, persist


def run(store, *argv):
    return dispatch(store, [
        a if isinstance(a, bytes) else str(a).encode() for a in argv
    ])


def slow_snapshots(monkeypatch, seconds: float) -> None:
    real = engine.write_snapshot

    def slow(*args):
        time.sleep(seconds)
        return real(*args)

    monkeypatch.setattr(engine, "write_snapshot", slow)


def bgsave_opcodes(path, keys: int) -> int:
    store, persist = durable_store(path)
    for i in range(keys):
        store.set(b"key-%d" % i, b"v" * 16)
    # 3.12 reports no opcode in a process's first tracing session
    opcodes(run, store, "PING")
    count = opcodes(run, store, "BGSAVE")
    persist.join_bgsave()
    assert persist.last_bgsave_error is None
    assert store.dbsize() == keys
    persist.close()
    return count


def test_the_loops_bgsave_costs_the_same_at_any_keyspace_size(tmp_path):
    """Red before the fork: the loop copied the keyspace first."""
    small = bgsave_opcodes(tmp_path / "small", 4)
    large = bgsave_opcodes(tmp_path / "large", 65_536)
    assert large <= small * CENSUS_BOUND, (small, large)


def test_a_bgsave_base_is_byte_identical_to_a_saves(tmp_path):
    bases = []
    for command in ("SAVE", "BGSAVE"):
        store, persist = durable_store(
            tmp_path / command, clock=lambda: 1_700_000_000.0,
            time_fn=lambda: 50.0,
        )
        run(store, "SET", "plain", "v")
        run(store, "SET", "lease", "w", "EX", "100")
        run(store, "HSET", "hash", "f", "1", "g", "2")
        run(store, "RPUSH", "list", "a", "b")
        run(store, command)
        persist.join_bgsave()
        persist.close()
        with open(tmp_path / command / "base-1.snap", "rb") as fh:
            bases.append(fh.read())
    assert bases[0] == bases[1]


def test_a_second_save_while_a_child_runs_is_refused(tmp_path, monkeypatch):
    slow_snapshots(monkeypatch, 0.3)
    store, persist = durable_store(tmp_path)
    run(store, "SET", "k", "v")
    assert run(store, "BGSAVE") == "Background saving started"
    assert persist.bgsave_in_progress
    for command in ("SAVE", "BGSAVE", "BGREWRITEAOF"):
        assert isinstance(run(store, command), RespError), command
    persist.join_bgsave()
    assert not persist.bgsave_in_progress
    assert persist.stats.rdb_saves == 1 and persist.last_bgsave_error is None


def test_enabling_the_aof_during_a_bgsave_keeps_every_acked_write(
    tmp_path, monkeypatch
):
    """Red before the wait rule: the rewrite-on-enable checkpoint saw a
    BGSAVE in flight and skipped, so ``b`` was in no base and no log."""
    slow_snapshots(monkeypatch, 0.5)
    store, persist = durable_store(tmp_path, appendonly=False)
    assert run(store, "SET", "a", "1") == "OK"
    assert run(store, "BGSAVE") == "Background saving started"
    assert run(store, "SET", "b", "2") == "OK"
    assert run(store, "CONFIG", "SET", "appendonly", "yes") == "OK"
    assert run(store, "SET", "c", "3") == "OK"
    persist.close()

    recovered, persist2 = durable_store(tmp_path)
    try:
        assert [recovered.get(k) for k in (b"a", b"b", b"c")] == [
            b"1", b"2", b"3"
        ]
    finally:
        persist2.close()


def test_a_full_sync_landing_during_a_bgsave_is_sealed(tmp_path, monkeypatch):
    """Red before the wait rule: the seal's checkpoint skipped, so the
    replica recovered the keyspace from before the sync."""
    slow_snapshots(monkeypatch, 1.0)
    __, __, master = build_server(port=0)
    master.start()
    replica_dir = tmp_path / "replica"
    host, port = master.address
    store, persist, replica = build_server(
        port=0, data_dir=str(replica_dir), replicaof=f"{host}:{port}"
    )
    try:
        with TcpKvClient(master.address) as client:
            for i in range(20):
                assert client.execute("SET", f"synced-{i}", f"v{i}") == "OK"
        store.set(b"stale", b"x")  # only the replica had it
        assert run(store, "BGSAVE") == "Background saving started"
        replica.start()  # dials, full-syncs while the child sleeps
        deadline = time.monotonic() + 30
        with TcpKvClient(replica.address) as client:
            while flat_info(client.execute("INFO")).get(
                "master_link_status"
            ) != "up":
                assert time.monotonic() < deadline, "no full sync"
                time.sleep(0.01)
        replica.stop()
        persist.close()  # no closing snapshot: the seal must have one
    finally:
        replica.stop()
        master.stop()

    recovered, persist2 = durable_store(replica_dir)
    try:
        assert recovered.get(b"stale") is None
        assert recovered.dbsize() == 20
        assert recovered.get(b"synced-7") == b"v7"
    finally:
        persist2.close()


def task_count(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/task"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs /proc/<pid>/task"
)
def test_a_kv_server_runs_one_thread_also_while_its_child_saves(
    tmp_path, monkeypatch
):
    """Red before ``serve()``: the main thread waited for a signal while
    the loop ran on a second thread (and a save thread made three)."""
    gate = hold_bgsave_children(str(tmp_path), monkeypatch)
    data = tmp_path / "data"
    proc, address = spawn_kv_server(
        ["--port=0", f"--dir={data}"], str(tmp_path / "stderr"), 30.0
    )
    try:
        with TcpKvClient(address) as client:
            assert client.execute("SET", "k", "v") == "OK"
            assert task_count(proc.pid) == 1
            assert client.execute("BGSAVE") == "Background saving started"
            assert held_child(gate) != proc.pid
            assert task_count(proc.pid) == 1
            assert client.execute("SET", "k2", "v") == "OK"  # still serving
            open(os.path.join(gate, "open"), "w").close()
            deadline = time.monotonic() + 30
            while flat_info(client.execute("INFO"))["rdb_bgsave_in_progress"]:
                assert time.monotonic() < deadline, "the child was not reaped"
                time.sleep(0.01)
            info = flat_info(client.execute("INFO"))
            assert info["rdb_saves"] == 1
            assert info["rdb_last_bgsave_status"] == "ok"
        assert glob.glob(str(data / "*.snap")) == [str(data / "base-1.snap")]
    finally:
        open(os.path.join(gate, "open"), "w").close()
        proc.terminate()
        assert proc.wait(timeout=30) == 0
        proc.stdout.close()
