"""Unit tests for the metrics core: pull gauges, one-cell histograms,
the registry — and that the series ``INFO`` reports survived the core
losing its set-value gauges, counters and per-thread cells."""

from __future__ import annotations

import random

import pytest

from repro.core.locking import LockedSoftMemoryAllocator
from repro.kvstore import DataStore, TcpKvClient, TcpKvServer
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    CountHistogram,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.plane import BATCH_BOUNDS
from repro.tools.metrics_dump import parse_info


class TestGauge:
    def test_pull_gauge_reads_source(self):
        box = {"v": 1}
        g = Gauge("g", fn=lambda: box["v"])
        assert g.value == 1
        box["v"] = 9
        assert g.value == 9


class TestHistogram:
    def test_default_bounds_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BOUNDS) == sorted(
            set(DEFAULT_LATENCY_BOUNDS)
        )

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=[1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", bounds=[])

    def test_observe_and_snapshot(self):
        h = Histogram("h", bounds=[1.0, 10.0])
        for v in (0.5, 0.7, 5.0, 99.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap.count == 4
        assert snap.counts == (2, 1, 1)  # <=1, <=10, overflow
        assert snap.vmin == 0.5
        assert snap.vmax == 99.0
        assert snap.mean == pytest.approx((0.5 + 0.7 + 5.0 + 99.0) / 4)

    def test_empty_snapshot(self):
        snap = Histogram("h", bounds=[1.0]).snapshot()
        assert snap.count == 0
        assert snap.quantile(0.5) == 0.0

    def test_quantiles_within_observed_range(self):
        h = Histogram("h")
        for v in (1e-5, 2e-5, 3e-4, 0.81):
            h.observe(v)
        snap = h.snapshot()
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert snap.vmin <= snap.quantile(q) <= snap.vmax


class TestCountHistogram:
    """The serving loop writes batch sizes as ``tally[n] += 1``; every
    read must see exactly what :meth:`Histogram.observe` builds."""

    def test_a_seeded_run_of_batch_sizes_reads_as_observe_builds(self):
        rng = random.Random(47)
        sizes = [rng.randint(1, 2000) for __ in range(5000)]
        sizes += [1] * 3000 + [16] * 500 + [1024, 1025, 2000]  # edges
        rng.shuffle(sizes)
        observed = Histogram("batches", bounds=BATCH_BOUNDS)
        tallied = CountHistogram("batches", bounds=BATCH_BOUNDS)
        for n in sizes:
            observed.observe(n)
            tallied.tally[n] += 1  # the loop's write, no call
        snap = tallied.snapshot()
        assert snap == observed.snapshot()
        assert (snap.count, snap.total, snap.vmin, snap.vmax) == (
            len(sizes), float(sum(sizes)), 1, 2000
        )
        for q in (0.0, 0.5, 0.99, 1.0):
            assert snap.quantile(q) == observed.snapshot().quantile(q)

    def test_observe_and_the_registry_series_agree(self):
        mine, theirs = MetricsRegistry("a"), MetricsRegistry("b")
        tallied = mine.count_histogram("b", bounds=BATCH_BOUNDS)
        observed = theirs.histogram("b", bounds=BATCH_BOUNDS)
        assert mine.snapshot() == theirs.snapshot()  # both empty
        for n in (3, 1, 700, 1, 4096):
            tallied.observe(n)
            observed.observe(n)
        assert mine.snapshot() == theirs.snapshot()
        assert mine.count_histogram("b") is tallied
        with pytest.raises(TypeError):
            mine.histogram("b")

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            CountHistogram("h", bounds=[2, 1])


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g", fn=int) is reg.gauge("g", fn=int)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("x")
        with pytest.raises(TypeError):
            reg.gauge("x", fn=int)

    def test_gauge_rebinds_to_new_source(self):
        reg = MetricsRegistry()
        reg.gauge("g", fn=lambda: 1)
        reg.gauge("g", fn=lambda: 2)  # fresh server over the same store
        assert reg.snapshot()["g"] == 2

    def test_snapshot_expands_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=[1.0]).observe(0.5)
        snap = reg.snapshot()
        assert snap["h.count"] == 1
        assert snap["h.sum"] == 0.5
        assert "h.p50" in snap and "h.p99" in snap and "h.max" in snap

    def test_snapshot_expands_multi_gauges(self):
        reg = MetricsRegistry()
        reg.multi_gauge("per", lambda: {"a.x": 1, "b.x": 2})
        snap = reg.snapshot()
        assert snap["per.a.x"] == 1
        assert snap["per.b.x"] == 2

    def test_raising_pull_gauge_is_skipped_not_fatal(self):
        reg = MetricsRegistry()

        def boom() -> float:
            raise RuntimeError("dead source")

        reg.gauge("bad", fn=boom)
        reg.gauge("good", fn=lambda: 1)
        snap = reg.snapshot()
        assert "bad" not in snap
        assert snap["good"] == 1
        assert reg.gauge_errors == 1

    def test_histogram_series_never_decrease(self):
        """What the oracle holds monotonic over INFO: a histogram's
        count and sum grow with every observation; a gauge may fall."""
        level = [7]
        reg = MetricsRegistry()
        reg.gauge("g", fn=lambda: level[0])
        hist = reg.histogram("h", bounds=[1.0])
        before = reg.snapshot()
        for value in (0.5, 0.0, 2.0):
            hist.observe(value)
            level[0] -= 1
            after = reg.snapshot()
            for key in ("h.count", "h.sum"):
                assert after.get(key, 0) >= before.get(key, 0)
            assert after["g"] < before["g"]
            before = after
        assert (after["h.count"], after["h.sum"]) == (3, 2.5)


# ----------------------------------------------------------------------
# the series INFO reports, pinned against the parent of the PR that
# made a histogram one cell: same script, same names
# ----------------------------------------------------------------------

_SCRIPT = [
    command
    for i in range(20)
    for command in (
        ("SET", "k%d" % i, "v" * (i + 1)),
        ("GET", "k%d" % i),
        ("get", "k%d" % i),
        ("INCR", "n"),
        ("HSET", "h", "k%d" % i, i),
        ("LPUSH", "l", i),
        ("MGET", "k%d" % i, "missing"),
        ("EXPIRE", "k%d" % i, 100),
        ("DEL", "k%d" % i) if i % 2 else ("PING",),
        ("NOPE%d" % i,),
    )
]

#: ``INFO``'s keys per section after ``_SCRIPT``, captured at commit
#: 83a13ce (per-thread cells, set-value gauges, a Counter type); the one
#: key added since is ``server.connected_clients`` (the transport's fd map)
_INFO_KEYS = {
    "Server": [
        "name", "commands_processed", "protocol_errors",
        "protocol_dropped_bytes", "slowlog_len", "slowlog_total",
        "slowlog_threshold_us",
    ],
    "Keyspace": [
        "keys", "soft_bytes", "soft_pages", "traditional_bytes", "hits",
        "misses", "hit_rate", "expired_keys", "reclaimed_keys",
        "keyspace_rehashing", "evictions", "compressed_entries",
        "compressed_bytes", "oom_denials",
    ],
    "Persistence": ["enabled", "aof_enabled"],
    "Replication": ["role", "connected_replicas", "master_repl_offset"],
    "Cluster": ["cluster_enabled"],
    "SoftMemory": [
        "sma.callback_errors", "sma.contexts", "sma.degraded",
        "sma.granted_pages", "sma.heap_bloat", "sma.held_pages",
        "sma.live_allocations",
        "sma.live_bytes", "sma.pool_pages", "sma.stats.allocations",
        "sma.stats.batch_denials", "sma.stats.daemon_requests",
        "sma.stats.degraded_denials", "sma.stats.frees",
        "sma.stats.pages_mapped", "sma.stats.pages_rebacked",
        "sma.stats.pages_released", "sma.stats.reclamations",
        "sma.stranded_bytes", "sma.unused_pages", "tier.bytes_saved", "tier.compressed_bytes",
        "tier.compressed_entries", "tier.demotions", "tier.displacements",
        "tier.enabled", "tier.incompressible", "tier.promote_latency.count",
        "tier.promote_latency.max", "tier.promote_latency.mean",
        "tier.promote_latency.p50", "tier.promote_latency.p99",
        "tier.promote_latency.sum", "tier.promotion_denials",
        "tier.promotions", "tier.second_chance_drops",
    ],
    "Stats": [
        "server.batches_executed", "server.clients_dropped",
        "server.commands_processed", "server.connected_clients",
        "server.connections_served",
        "server.max_batch", "server.pipeline_batch.count",
        "server.pipeline_batch.max", "server.pipeline_batch.mean",
        "server.pipeline_batch.p50", "server.pipeline_batch.p99",
        "server.pipeline_batch.sum", "store.keys", "store.soft_bytes",
        "store.stats.expired_keys", "store.stats.hits",
        "store.stats.keys_deleted", "store.stats.keys_set",
        "store.stats.misses", "store.stats.oom_denials",
        "store.stats.reclaimed_keys", "store.traditional_bytes",
        "gauge_errors",
    ],
    "Latency": [
        f"cmd.{name}.{field}"
        for name in (
            "DEL", "EXPIRE", "GET", "HSET", "INCR", "LPUSH", "MGET", "PING",
            "SET", "UNKNOWN",
        )
        for field in ("count", "mean_us", "p50_us", "p99_us", "max_us")
    ],
}


class TestInfoReportsTheSameSeries:
    @pytest.fixture(scope="class")
    def served(self):
        """(store, INFO as ``{section: {key: value}}``) after the script."""
        store = DataStore(LockedSoftMemoryAllocator(name="info-keys"))
        with TcpKvServer(store) as server:
            with TcpKvClient(server.address) as client:
                for at in range(0, len(_SCRIPT), 20):
                    client.execute_pipeline(*_SCRIPT[at:at + 20])
                sections = parse_info(client.execute("INFO"))
        return store, sections

    def test_every_section_has_the_parents_keys(self, served):
        __, sections = served
        assert len(_SCRIPT) == 200
        assert {s: list(keys) for s, keys in sections.items()} == _INFO_KEYS

    def test_commands_equals_the_sum_of_command_counts(self, served):
        store, sections = served
        counts = {
            key: value
            for key, value in sections["Latency"].items()
            if key.endswith(".count")
        }
        assert counts["cmd.GET.count"] == 40  # both casings, one series
        assert counts["cmd.UNKNOWN.count"] == 20
        # the INFO that printed them had not been observed yet
        assert sections["Server"]["commands_processed"] == 200
        assert sum(counts.values()) == 200
        stats = store.obs.command_stats()
        assert store.obs.commands == sum(s.count for s in stats.values())
