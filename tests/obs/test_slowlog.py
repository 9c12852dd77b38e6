"""Slowlog ring behavior, plus the boundedness regressions (satellite):
neither the SLOWLOG ring nor the RPC ReplyCache may grow with traffic."""

from __future__ import annotations

import pytest

from repro.obs.slowlog import Slowlog
from repro.rpc.config import ReplyCache


class TestSlowlog:
    def test_entries_newest_first_with_ids(self):
        log = Slowlog(max_len=4, threshold_us=0, time_fn=lambda: 42.0)
        for i in range(3):
            log.add([b"CMD%d" % i], 0.01 * (i + 1))
        entries = log.entries()
        assert [e.entry_id for e in entries] == [2, 1, 0]
        assert entries[0].timestamp == 42.0
        assert entries[0].duration_us == 30_000

    def test_long_argv_truncated(self):
        log = Slowlog(threshold_us=0)
        argv = [b"MSET"] + [b"x" * 500] * 20
        log.add(argv, 1.0)
        entry = log.entries()[0]
        assert len(entry.argv) <= 9  # 8 kept + "more" marker
        assert all(len(a) < 600 for a in entry.argv)
        assert b"more arguments" in entry.argv[-1]

    def test_reset_keeps_lifetime_total(self):
        log = Slowlog(threshold_us=0)
        log.add([b"A"], 1.0)
        log.reset()
        assert len(log) == 0
        assert log.total_logged == 1
        log.add([b"B"], 1.0)
        assert log.entries()[0].entry_id == 1  # ids keep increasing

    def test_set_max_len_keeps_newest(self):
        log = Slowlog(max_len=8, threshold_us=0)
        for i in range(8):
            log.add([b"%d" % i], 1.0)
        log.set_max_len(3)
        assert [e.entry_id for e in log.entries()] == [7, 6, 5]
        log.add([b"new"], 1.0)
        assert len(log) == 3
        assert log.entries()[0].entry_id == 8

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Slowlog(max_len=0)
        with pytest.raises(ValueError):
            Slowlog().set_max_len(0)


class TestBoundedUnderLoad:
    """10k entries in, bounded memory out — the regression contract."""

    def test_slowlog_ring_bounded_after_10k(self):
        log = Slowlog(max_len=128, threshold_us=0)
        for i in range(10_000):
            log.add([b"CMD", b"arg%d" % i], 0.02)
        assert len(log) == 128
        assert log.total_logged == 10_000
        entries = log.entries()
        assert len(entries) == 128
        # the ring kept exactly the newest 128, in order
        assert [e.entry_id for e in entries] == list(
            range(9_999, 9_999 - 128, -1)
        )

    def test_reply_cache_bounded_after_10k(self):
        cache = ReplyCache(capacity=64)
        for i in range(10_000):
            cache.put(i, {"reply": i})
        assert len(cache) == 64
        # newest entries survive, oldest were evicted
        assert cache.get(9_999) == {"reply": 9_999}
        assert cache.get(0) is None
