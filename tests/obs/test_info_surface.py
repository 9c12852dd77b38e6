"""The RESP-facing surface: sectioned INFO, SLOWLOG, CONFIG, metrics_dump.

The acceptance criterion runs here: INFO over a *live TCP* connection
must return populated soft_memory / stats / latency sections.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.locking import LockedSoftMemoryAllocator
from repro.core.sma import SoftMemoryAllocator
from repro.kvstore import TcpKvClient, TcpKvServer
from repro.kvstore.commands import dispatch
from repro.kvstore.store import DataStore, StoreConfig
from repro.kvstore.tier import TierConfig
from repro.tools import metrics_dump
from repro.util.units import PAGE_SIZE


@pytest.fixture
def server():
    store = DataStore(LockedSoftMemoryAllocator(name="info-test"))
    srv = TcpKvServer(store).start()
    yield srv
    srv.stop()


@pytest.fixture
def tier_servers():
    """Two tier-enabled servers: one for single-node tests, both for
    the merged cluster-snapshot view."""
    servers = []
    for i in range(2):
        store = DataStore(
            LockedSoftMemoryAllocator(name=f"tier-info-{i}"),
            StoreConfig(tier=TierConfig(enabled=True)),
        )
        servers.append(TcpKvServer(store).start())
    yield servers
    for srv in servers:
        srv.stop()


def demote_via_purge(address, keys: int = 12, pages: int = 2) -> int:
    """Fill then MEMORY PURGE; return the demotions that wave caused."""
    with TcpKvClient(address) as client:
        for i in range(keys):
            client.execute("SET", b"t%d" % i, b"T" * 2000)
        client.execute("MEMORY", "PURGE", str(pages))
        payload = client.execute(b"INFO", b"softmemory")
    fields = metrics_dump.parse_info(payload)["SoftMemory"]
    return fields["tier.demotions"]


def info_sections(payload: bytes) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] = {}
    for line in payload.decode().splitlines():
        if line.startswith("#"):
            current = sections.setdefault(line[1:].strip(), {})
        elif ":" in line:
            key, _, value = line.partition(":")
            current[key] = value
    return sections


class TestInfoOverLiveTcp:
    def test_sections_present_and_populated(self, server):
        with TcpKvClient(server.address) as client:
            client.execute("SET", "k", "v")
            client.execute("GET", "k")
            payload = client.execute("INFO")
        sections = info_sections(payload)
        assert set(sections) >= {
            "Server",
            "Keyspace",
            "SoftMemory",
            "Stats",
            "Latency",
        }
        # soft_memory populated from the SMA pull gauges
        assert int(sections["SoftMemory"]["sma.stats.allocations"]) >= 1
        assert int(sections["SoftMemory"]["sma.live_bytes"]) > 0
        # stats populated from store/server gauges
        assert int(sections["Stats"]["store.stats.keys_set"]) == 1
        assert int(sections["Stats"]["server.connections_served"]) == 1
        # latency populated per command actually executed
        assert int(sections["Latency"]["cmd.SET.count"]) == 1
        assert int(sections["Latency"]["cmd.GET.count"]) == 1
        assert float(sections["Latency"]["cmd.GET.p99_us"]) > 0
        # legacy flat keys survive inside Keyspace
        assert sections["Keyspace"]["keys"] == "1"
        assert sections["Keyspace"]["reclaimed_keys"] == "0"

    def test_section_filter(self, server):
        with TcpKvClient(server.address) as client:
            payload = client.execute("INFO", "keyspace")
        sections = info_sections(payload)
        assert set(sections) == {"Keyspace"}

    def test_unknown_section_has_no_fields(self, server):
        with TcpKvClient(server.address) as client:
            assert info_sections(client.execute("INFO", "nonsense")) == {}


class TestSlowlogOverTcp:
    def test_get_len_reset_cycle(self, server):
        with TcpKvClient(server.address) as client:
            # log everything, then generate traffic
            client.execute("CONFIG", "SET", "slowlog-log-slower-than", "0")
            client.execute("SET", "k", "v")
            entries = client.execute("SLOWLOG", "GET")
            assert entries, "threshold 0 must log every command"
            entry_id, timestamp, duration_us, argv = entries[0]
            assert isinstance(entry_id, int)
            assert isinstance(duration_us, int) and duration_us >= 0
            assert argv[0] in (b"SET", b"SLOWLOG")
            length = client.execute("SLOWLOG", "LEN")
            assert length >= 1
            assert str(client.execute("SLOWLOG", "RESET")) == "OK"
            # RESET empties the ring (the RESET itself may re-log after)
            assert client.execute("SLOWLOG", "LEN") <= 1

    def test_config_get_roundtrip(self, server):
        with TcpKvClient(server.address) as client:
            client.execute("CONFIG", "SET", "slowlog-max-len", "16")
            flat = client.execute("CONFIG", "GET", "slowlog-*")
            pairs = dict(zip(flat[::2], flat[1::2]))
            assert pairs[b"slowlog-max-len"] == b"16"
            assert b"slowlog-log-slower-than" in pairs


class TestMetricsDump:
    def test_snapshot_over_tcp(self, server):
        host, port = server.address
        with TcpKvClient(server.address) as client:
            client.execute("CONFIG", "SET", "slowlog-log-slower-than", "0")
            client.execute("SET", "k", "v")
        snap = metrics_dump.snapshot(host, port)
        assert snap["info"]["Keyspace"]["keys"] == 1
        assert snap["info"]["Latency"]["cmd.SET.count"] == 1
        assert snap["slowlog"], "threshold 0 should have logged entries"
        assert {"id", "timestamp", "duration_us", "argv"} <= set(
            snap["slowlog"][0]
        )
        json.dumps(snap)  # the whole document must be JSON-serializable

    def test_diff_subtracts_numeric_series(self, server):
        host, port = server.address
        before = metrics_dump.snapshot(host, port)
        with TcpKvClient(server.address) as client:
            for i in range(5):
                client.execute("SET", b"d%d" % i, "v")
        after = metrics_dump.snapshot(host, port)
        delta = metrics_dump.diff(before, after)["diff"]
        assert delta["Stats"]["store.stats.keys_set"] == 5
        assert delta["Latency"]["cmd.SET.count"] == 5
        # non-numeric values carry the after side verbatim
        assert delta["Server"]["name"] == after["info"]["Server"]["name"]

    def test_cli_writes_snapshot_file(self, server, tmp_path):
        host, port = server.address
        out = tmp_path / "snap.json"
        rc = metrics_dump.main(
            ["--host", host, "--port", str(port), "-o", str(out)]
        )
        assert rc == 0
        document = json.loads(out.read_text())
        assert "info" in document and "slowlog" in document

    def test_snapshot_carries_tier_gauges(self, tier_servers):
        srv = tier_servers[0]
        demoted = demote_via_purge(srv.address)
        assert demoted > 0
        host, port = srv.address
        snap = metrics_dump.snapshot(host, port)
        soft = snap["info"]["SoftMemory"]
        assert soft["tier.enabled"] == 1
        assert soft["tier.demotions"] == demoted
        assert "tier.promote_latency.p99" in soft
        assert snap["info"]["Keyspace"]["compressed_entries"] > 0
        json.dumps(snap)

    def test_cluster_snapshot_merges_tier_totals(self, tier_servers):
        per_shard = [demote_via_purge(srv.address) for srv in tier_servers]
        assert all(d > 0 for d in per_shard)
        snap = metrics_dump.cluster_snapshot(
            [srv.address for srv in tier_servers]
        )
        totals = snap["tier_total"]
        assert totals["tier.demotions"] == sum(per_shard)
        assert totals["tier.promotions"] == 0
        # per-shard latency percentiles must not be summed as if they
        # were counters
        assert "tier.promote_latency.p99" not in totals
        assert "tier.promote_latency.count" in totals
        json.dumps(snap)

    def test_diff_subtracts_tier_series(self, tier_servers):
        srv = tier_servers[0]
        host, port = srv.address
        demoted = demote_via_purge(srv.address)
        before = metrics_dump.snapshot(host, port)
        with TcpKvClient(srv.address) as client:
            for i in range(12):  # read everything the wave demoted
                assert client.execute("GET", b"t%d" % i) == b"T" * 2000
        after = metrics_dump.snapshot(host, port)
        delta = metrics_dump.diff(before, after)["diff"]
        soft = delta["SoftMemory"]
        assert soft["tier.demotions"] == 0
        # each was served from its stub: promoted where the heap owned
        # the room, left compressed (a counted denial) where it did not
        assert soft["tier.promotions"] + soft["tier.promotion_denials"] == demoted
        assert delta["Keyspace"]["compressed_entries"] == -soft["tier.promotions"]

    def test_cli_diff_mode(self, server, tmp_path):
        host, port = server.address
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        metrics_dump.main(["--host", host, "--port", str(port), "-o", str(a)])
        with TcpKvClient(server.address) as client:
            client.execute("SET", "x", "y")
        metrics_dump.main(["--host", host, "--port", str(port), "-o", str(b)])
        out = tmp_path / "d.json"
        rc = metrics_dump.main(["--diff", str(a), str(b), "-o", str(out)])
        assert rc == 0
        delta = json.loads(out.read_text())["diff"]
        assert delta["Stats"]["store.stats.keys_set"] == 1


class TestHeapGauges:
    """INFO's ``sma.heap_bloat`` and ``sma.stranded_bytes`` are what the
    placer's pages say, fresh and after size-changing overwrites."""

    KEYS = 4096

    @staticmethod
    def soft_memory(store: DataStore) -> dict:
        payload = dispatch(store, [b"INFO", b"softmemory"])
        return metrics_dump.parse_info(payload)["SoftMemory"]

    @staticmethod
    def page_sums(store: DataStore) -> tuple[float, int]:
        """Bloat and stranded bytes summed independently: over the
        keyspace heap's pages, and over the entries' own sizes."""
        pages = store.keyspace.context.heap._placer.pages
        live = sum(
            store.keyspace._find(key).size for key in store.keyspace.keys()
        )
        stranded = sum(page.free_bytes for page in pages if not page.is_free)
        return len(pages) * PAGE_SIZE / live, stranded

    def check(self, store: DataStore) -> float:
        fields = self.soft_memory(store)
        bloat, stranded = self.page_sums(store)
        assert fields["sma.heap_bloat"] == pytest.approx(bloat, rel=1e-5)
        assert fields["sma.stranded_bytes"] == stranded
        return bloat

    def test_each_equals_a_sum_over_the_pages(self):
        store = DataStore(SoftMemoryAllocator(name="heap-gauges"))
        fields = self.soft_memory(store)
        assert fields["sma.heap_bloat"] == fields["sma.stranded_bytes"] == 0
        rng = random.Random(1)
        for i in range(self.KEYS):
            store.set(b"key:%d" % i, b"u" * rng.randint(512, 2048))
        fresh = self.check(store)
        for __ in range(50_000):
            key = b"key:%d" % rng.randrange(self.KEYS)
            store.set(key, b"u" * rng.randint(512, 2048))
        aged = self.check(store)
        assert aged > fresh
