"""KvObservability and the pull-gauge bindings."""

from __future__ import annotations

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.daemon.smd import SmdConfig, SoftMemoryDaemon
from repro.kvstore.resp import encode_command
from repro.kvstore.server import KvServer
from repro.kvstore.store import DataStore
from repro.obs.plane import _MAX_CMD_NAMES, KvObservability, bind_smd


@pytest.fixture
def session():
    return KvServer(DataStore(SoftMemoryAllocator(name="observed")))


class TestObserveCommand:
    """What ``pump`` records per executed command, through ``feed``."""

    def test_counts_and_histograms_agree(self, session):
        for i in range(50):
            session.feed(encode_command("GET", "k"))
        session.feed(encode_command("SET", "k", "v"))
        obs = session.obs
        stats = obs.command_stats()
        assert stats["GET"].count == 50
        assert stats["SET"].count == 1
        assert obs.commands == sum(s.count for s in stats.values()) == 51

    def test_casings_share_one_histogram(self, session):
        for spelling in ("get", "GET", "GeT"):
            session.feed(encode_command(spelling, "k"))
        assert session.obs.command_stats()["GET"].count == 3

    def test_learned_names_bounded(self, session):
        # 612 of the 4,096 casings of one 12-letter name the table knows
        name = "bgrewriteaof"
        spellings = [
            "".join(
                c.upper() if mask >> bit & 1 else c
                for bit, c in enumerate(name)
            )
            for mask in range(_MAX_CMD_NAMES + 100)
        ]
        for spelling in spellings:
            session.feed(encode_command(spelling, "too", "many", "args"))
        obs = session.obs
        assert len(obs._cmd_hists) <= _MAX_CMD_NAMES
        # overflowing names are still counted, just not cached
        assert obs.commands == _MAX_CMD_NAMES + 100
        assert (
            obs.command_stats()["BGREWRITEAOF"].count == _MAX_CMD_NAMES + 100
        )

    def test_slow_commands_reach_slowlog(self, session, monkeypatch):
        # pump reads the clock before a batch and after each command
        ticks = iter([0.0, 1e-5, 1.0, 1.5])
        monkeypatch.setattr("repro.kvstore.server.perf_counter", ticks.__next__)
        session.obs.set_slowlog_threshold_us(1000)
        session.feed(encode_command("GET", "fast"))
        session.feed(encode_command("KEYS", "*"))
        entries = session.obs.slowlog.entries()
        assert len(entries) == 1
        assert entries[0].argv == (b"KEYS", b"*")
        assert entries[0].duration_us == 500_000
        assert session.obs.command_stats()["KEYS"].vmax == 0.5

    def test_threshold_reconfigure(self, session):
        session.obs.set_slowlog_threshold_us(3_600_000_000)  # an hour
        session.feed(encode_command("GET", "k"))
        assert len(session.obs.slowlog) == 0
        session.obs.set_slowlog_threshold_us(0)
        session.feed(encode_command("GET", "k"))
        assert len(session.obs.slowlog) == 1

    def test_batch_histogram(self):
        obs = KvObservability("t")
        obs.batch_hist.observe(1)
        obs.batch_hist.observe(16)
        snap = obs.batch_hist.snapshot()
        assert snap.count == 2
        assert snap.vmax == 16


class TestNamesTheTableDoesNotKnow:
    """Only a name that resolves in the command table gets its own
    latency series; garbage shares one and is never cached."""

    def test_unknown_names_share_one_histogram(self):
        store = DataStore(SoftMemoryAllocator(name="unknown-names"))
        session = KvServer(store)
        session.feed(encode_command("GET", "k"))
        before = len(list(store.obs.registry.names()))
        cached = len(store.obs._cmd_hists)
        for i in range(5000):
            reply = session.feed(encode_command("NOPE%d" % i, "k"))
            assert reply.startswith(b"-ERR unknown command")
        assert len(list(store.obs.registry.names())) <= before + 1
        assert len(store.obs._cmd_hists) == cached
        assert store.obs.command_stats()["UNKNOWN"].count == 5000
        assert store.obs.commands == 5001
        info = session.feed(encode_command("INFO", "latency"))
        assert len(info) < 4096

    def test_known_casings_still_share_their_own(self):
        store = DataStore(SoftMemoryAllocator(name="known-names"))
        session = KvServer(store)
        for spelling in ("gEt", "GET", "get"):
            session.feed(encode_command(spelling, "k"))
        stats = store.obs.command_stats()
        assert stats["GET"].count == 3
        assert "UNKNOWN" not in stats


class TestBindings:
    def test_store_owns_a_bound_plane(self):
        store = DataStore(SoftMemoryAllocator(name="p"), name="p")
        store.set(b"k", b"v")
        snap = store.obs.registry.snapshot()
        assert snap["store.keys"] == 1
        assert snap["store.stats.keys_set"] == 1
        assert snap["sma.stats.allocations"] >= 1
        assert snap["sma.live_bytes"] > 0

    def test_bind_smd_exposes_ledger_and_processes(self):
        smd = SoftMemoryDaemon(
            128, SmdConfig(startup_budget_pages=8)
        )
        sma = SoftMemoryAllocator(name="proc")
        record = smd.register(sma)
        store = DataStore(SoftMemoryAllocator(name="kv"), name="kv")
        bind_smd(store.obs.registry, smd)
        snap = store.obs.registry.snapshot()
        assert snap["smd.capacity_pages"] == 128
        assert snap["smd.assigned_pages"] == 8
        assert snap["smd.pages_granted"] == 8
        assert snap["smd.processes"] == 1
        assert (
            snap[f"smd.process.proc.{record.pid}.granted_pages"] == 8
        )

    def test_gauges_track_source_without_writes(self):
        store = DataStore(SoftMemoryAllocator(name="p"), name="p")
        reg = store.obs.registry
        before = reg.snapshot()["store.keys"]
        for i in range(10):
            store.set(b"k%d" % i, b"v")
        assert reg.snapshot()["store.keys"] == before + 10
