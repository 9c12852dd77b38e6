"""ClusterKvClient under loadgen scenario load.

Three phenomena a cluster under workload traffic shows, each driven by
the workload engine rather than hand-rolled commands:

* CROSSSLOT — untagged sequential multi-key runs straddle slot
  boundaries and must come back as in-place errors (counted, not
  raised); hash-tagged runs must produce none;
* MOVED chase — a stale slot map mid-run heals through MOVED replies
  while every reply stays correct;
* shard restart — a shard process bouncing on its address mid-run is
  absorbed by the client's redial, and the stream keeps flowing.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore import TcpKvServer
from repro.kvstore.cluster import ClusterKvClient
from repro.kvstore.cluster.slots import key_hash_slot
from repro.kvstore.cluster.state import ClusterState
from repro.kvstore.store import DataStore
from repro.loadgen.driver import DriverReport, drive
from repro.loadgen.engine import OperationStream
from repro.loadgen.spec import preset


def start_shard(shard: int, addresses, port: int = 0):
    """One shard server; attaches cluster state when addresses known."""
    store = DataStore(SoftMemoryAllocator(name=f"lgshard{shard}-{port}"))
    server = TcpKvServer(store, "127.0.0.1", port)
    server.start()
    if addresses is not None:
        store.attach_cluster(ClusterState(shard, addresses))
    return server, store


@pytest.fixture
def cluster():
    """Two real TCP shards sharing a slot table, plus their client."""
    servers, stores, addresses = [], [], []
    for shard in range(2):
        server, store = start_shard(shard, None)
        servers.append(server)
        stores.append(store)
        addresses.append(server.address)
    for shard, store in enumerate(stores):
        store.attach_cluster(ClusterState(shard, addresses))
    client = ClusterKvClient(addresses)
    try:
        yield client, addresses, servers, stores
    finally:
        client.close()
        for server in servers:
            server.stop()


# ----------------------------------------------------------------------
# CROSSSLOT from the engine's multi-key runs
# ----------------------------------------------------------------------


def test_untagged_scan_load_surfaces_crossslot(cluster):
    client, _, _, _ = cluster
    spec = preset("ycsb-e", keyspace=512, hash_tags=False)
    stream = OperationStream(spec, 7)
    report = drive(client, stream.batches(), max_ops=400)
    # the run crossed slots often; every violation came back in place
    assert report.crossslot_errors > 10
    assert report.ops >= 400
    # errors were counted, not raised, and non-MGET ops still landed
    assert report.verbs.get("mget", 0) > 0


def test_hash_tagged_scan_load_is_crossslot_free(cluster):
    client, _, _, stores = cluster
    spec = preset("ycsb-e", keyspace=512)  # hash_tags=True
    stream = OperationStream(spec, 7)
    drive(client, stream.prefill_batches(), max_ops=spec.keyspace)
    report = drive(client, stream.batches(), max_ops=400)
    assert report.crossslot_errors == 0
    assert report.errors == 0
    # tags spread the groups across both shards (not all on one)
    for store in stores:
        assert store.stats.keys_set > 0


# ----------------------------------------------------------------------
# MOVED chase mid-run
# ----------------------------------------------------------------------


def test_stale_slot_map_heals_under_load(cluster):
    client, addresses, _, _ = cluster
    spec = preset("ycsb-a", keyspace=256)
    stream = OperationStream(spec, 3)
    drive(client, stream.prefill_batches(), max_ops=spec.keyspace)

    # poison the map mid-run: every slot claims the wrong owner
    client._slots = [
        addresses[1] if addr == addresses[0] else addresses[0]
        for addr in client._slots
    ]
    before = client.moved_redirects
    report = drive(client, stream.batches(), max_ops=300)

    # the chase happened inside the client: the driver saw clean replies
    assert client.moved_redirects > before
    assert report.moved_errors == 0
    assert report.errors == 0
    assert report.ops >= 300

    # and the map healed: a fresh batch routes without new redirects
    healed = client.moved_redirects
    drive(client, stream.batches(), max_ops=200)
    assert client.moved_redirects == healed


def test_poisoned_map_replies_stay_correct(cluster):
    client, addresses, _, _ = cluster
    keys = [f"chk:{i}".encode() for i in range(64)]
    sets = [(b"SET", key, b"v%d" % i) for i, key in enumerate(keys)]
    assert client.execute_pipeline(*sets) == ["OK"] * len(keys)
    client._slots = [addresses[0]] * len(client._slots)
    replies = client.execute_pipeline(*[(b"GET", key) for key in keys])
    assert replies == [b"v%d" % i for i in range(len(keys))]


# ----------------------------------------------------------------------
# shard restart mid-run
# ----------------------------------------------------------------------


def test_shard_restart_mid_run_is_absorbed(cluster):
    client, addresses, servers, stores = cluster
    spec = preset("ycsb-a", keyspace=256)
    stream = OperationStream(spec, 5)
    report = DriverReport()
    drive(client, stream.batches(), max_ops=200, report=report)

    # bounce shard 1 on its own address (new process, same port)
    victim_addr = addresses[1]
    servers[1].stop()
    server, store = start_shard(1, addresses, port=victim_addr[1])
    servers[1] = server
    stores[1] = store
    assert server.address == victim_addr

    # the stream keeps flowing: the client redials the dead socket
    drive(client, stream.batches(), max_ops=300, report=report)
    assert report.ops >= 500
    # the restarted (empty) shard answers GETs with nils, not errors,
    # and no MOVED storm happened — the topology did not change
    assert report.moved_errors == 0
    assert report.other_errors == 0
    # both shards served post-restart traffic
    assert store.stats.keys_set > 0
    assert servers[0].commands_processed > 0


def test_single_command_path_survives_restart(cluster):
    client, addresses, servers, stores = cluster
    # land one key on each shard so both paths get exercised
    low, high = b"bar", b"foo"  # slots 5061 / 12182
    assert client.execute(b"SET", low, b"1") == "OK"
    assert client.execute(b"SET", high, b"2") == "OK"

    victim_addr = addresses[1]
    servers[1].stop()
    server, _ = start_shard(1, addresses, port=victim_addr[1])
    servers[1] = server

    # the dead pooled socket is redialed transparently; the restarted
    # shard lost its (unpersisted) data, so the read answers nil
    assert client.execute(b"GET", high) is None
    assert client.execute(b"GET", low) == b"1"
