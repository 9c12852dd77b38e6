"""Persistence commands: SAVE family, CONFIG knobs, INFO section, shutdown."""

from __future__ import annotations

import errno
import os

import pytest

from repro.core.sma import SoftMemoryAllocator
from repro.kvstore.commands import dispatch
from repro.kvstore.persist import engine
from repro.kvstore.persist.engine import Persistence, PersistenceConfig
from repro.kvstore.resp import RespError, SimpleString
from repro.kvstore.store import DataStore
from repro.tools.kv_server import GracefulShutdown, build_server
from repro.tools.kv_server import main as kv_server_main


@pytest.fixture
def store(tmp_path):
    store = DataStore(SoftMemoryAllocator(name="persist-cmd-test"))
    persist = Persistence(PersistenceConfig(dir=str(tmp_path)))
    store.attach_persistence(persist)
    yield store
    persist.close()


@pytest.fixture
def bare_store():
    return DataStore(SoftMemoryAllocator(name="bare-cmd-test"))


def run(store, *argv):
    return dispatch(store, [
        a if isinstance(a, bytes) else str(a).encode() for a in argv
    ])


def info_section(store, section: str) -> dict[bytes, bytes]:
    raw = run(store, "INFO")
    lines = raw.split(b"\r\n")
    marker = b"# " + section.encode()
    fields: dict[bytes, bytes] = {}
    active = False
    for line in lines:
        if line.startswith(b"# "):
            active = line == marker
            continue
        if active and b":" in line:
            key, __, value = line.partition(b":")
            fields[key] = value
    assert fields, f"INFO section {section} missing or empty"
    return fields


class TestSaveFamily:
    def test_save_returns_ok_and_writes_base(self, store, tmp_path):
        run(store, "SET", "k", "v")
        assert run(store, "SAVE") == SimpleString("OK")
        gen = store.persistence.generation
        assert os.path.exists(tmp_path / f"base-{gen}.snap")

    def test_lastsave_tracks_save(self, store):
        assert run(store, "LASTSAVE") == 0  # never saved
        run(store, "SET", "k", "v")
        run(store, "SAVE")
        assert run(store, "LASTSAVE") > 0

    def test_bgsave_starts_background_save(self, store):
        run(store, "SET", "k", "v")
        reply = run(store, "BGSAVE")
        assert reply == SimpleString("Background saving started")
        store.persistence.join_bgsave()

    def test_bgrewriteaof_compacts_the_log(self, store):
        run(store, "SET", "k", "v")
        reply = run(store, "BGREWRITEAOF")
        assert reply == SimpleString(
            "Background append only file rewriting started"
        )
        store.persistence.join_bgsave()

    def test_a_failed_save_is_an_error_reply(self, store, monkeypatch):
        """A snapshot write that fails (a full disk here) answers
        ``-ERR`` with the error, as Redis's SAVE does, not ``+OK``."""
        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(engine, "write_snapshot", full_disk)
        run(store, "SET", "k", "v")
        reply = run(store, "SAVE")
        assert isinstance(reply, RespError)
        assert str(reply).startswith("ERR OSError: ")
        assert "No space left on device" in str(reply)
        status = info_section(store, "Persistence")[b"rdb_last_bgsave_status"]
        assert status == b"err"
        assert run(store, "LASTSAVE") == 0
        monkeypatch.undo()  # the disk has room again
        assert run(store, "SAVE") == SimpleString("OK")
        status = info_section(store, "Persistence")[b"rdb_last_bgsave_status"]
        assert status == b"ok"

    def test_save_without_persistence_errors(self, bare_store):
        for cmd in ("SAVE", "BGSAVE", "BGREWRITEAOF", "LASTSAVE"):
            reply = run(bare_store, cmd)
            assert isinstance(reply, RespError), cmd


class TestRewriteBoundedness:
    def test_rewrite_bounds_log_by_live_keys(self, store):
        """Satellite: 10k overwrites of few keys must not bloat the log.

        The AOF grows with every overwrite; a rewrite (= checkpoint)
        must leave on-disk state proportional to the *live* keyspace,
        not to write history.
        """
        for i in range(10_000):
            run(store, "SET", b"hot-%d" % (i % 8), b"v" * 32)
        persist = store.persistence
        persist.flush()  # dispatch is write-behind; servers flush per batch
        grown = persist.aof_size
        assert grown > 100_000  # the history really did accumulate
        assert run(store, "BGREWRITEAOF") == SimpleString(
            "Background append only file rewriting started"
        )
        persist.join_bgsave()
        base = os.path.getsize(
            os.path.join(persist.config.dir, f"base-{persist.generation}.snap")
        )
        # 8 live keys × (key + 32-byte value + framing) — nowhere near
        # the 10k-write history
        assert base < 1_000
        assert persist.aof_size == 0  # fresh incremental log


class TestConfig:
    def test_config_get_persistence_params(self, store):
        assert run(store, "CONFIG", "GET", "appendonly") == [
            b"appendonly", b"yes",
        ]
        assert run(store, "CONFIG", "GET", "appendfsync") == [
            b"appendfsync", b"everysec",
        ]
        key, value = run(store, "CONFIG", "GET", "dir")
        assert key == b"dir" and value == store.persistence.config.dir.encode()

    def test_config_set_appendfsync(self, store):
        assert run(store, "CONFIG", "SET", "appendfsync", "always") == (
            SimpleString("OK")
        )
        assert store.persistence.config.appendfsync == "always"
        assert isinstance(
            run(store, "CONFIG", "SET", "appendfsync", "sometimes"),
            RespError,
        )

    def test_config_set_appendonly_toggles(self, store):
        assert run(store, "CONFIG", "SET", "appendonly", "no") == (
            SimpleString("OK")
        )
        assert not store.persistence.aof_enabled
        run(store, "SET", "unlogged", "x")
        assert run(store, "CONFIG", "SET", "appendonly", "yes") == (
            SimpleString("OK")
        )
        assert store.persistence.aof_enabled
        # re-enable checkpoints first (Redis rewrites on enable), so the
        # write issued while the log was off is not lost
        gen = store.persistence.generation
        assert os.path.exists(
            os.path.join(store.persistence.config.dir, f"base-{gen}.snap")
        )

    def test_config_set_dir_is_refused(self, store):
        assert isinstance(
            run(store, "CONFIG", "SET", "dir", "/elsewhere"), RespError
        )

    def test_config_get_defaults_without_persistence(self, bare_store):
        assert run(bare_store, "CONFIG", "GET", "appendonly") == [
            b"appendonly", b"no",
        ]


class TestInfoPersistence:
    def test_info_section_reports_exact_disk_state(self, store):
        run(store, "SET", "k", "v" * 100)
        persist = store.persistence
        persist.flush(force_fsync=True)
        fields = info_section(store, "Persistence")
        assert fields[b"enabled"] == b"1"
        assert fields[b"aof_enabled"] == b"1"
        assert fields[b"appendfsync"] == b"everysec"
        assert int(fields[b"aof_size"]) == os.path.getsize(persist.aof_path)
        assert int(fields[b"aof_pending_bytes"]) == 0
        assert int(fields[b"fsync_errors"]) == 0
        run(store, "SAVE")
        fields = info_section(store, "Persistence")
        assert int(fields[b"rdb_last_save_time"]) > 0
        assert int(fields[b"generation"]) == persist.generation

    def test_info_without_persistence(self, bare_store):
        fields = info_section(bare_store, "Persistence")
        assert fields[b"enabled"] == b"0"


class TestGracefulShutdown:
    def test_second_run_is_a_noop(self, tmp_path):
        """Satellite: double SIGTERM must not raise or double-flush."""
        store, persistence, server = build_server(
            port=0, data_dir=str(tmp_path), appendfsync="always"
        )
        server.start()
        try:
            store.set(b"k", b"v")
            shutdown = GracefulShutdown(server, persistence)
            shutdown.request()  # first signal
            shutdown.run()
            size_after_first = os.path.getsize(
                os.path.join(
                    str(tmp_path), f"base-{persistence.generation}.snap"
                )
            )
            shutdown.request()  # impatient second signal
            shutdown.run()  # must not raise, must not touch disk again
            assert persistence.closed
            assert os.path.getsize(
                os.path.join(
                    str(tmp_path), f"base-{persistence.generation}.snap"
                )
            ) == size_after_first
        finally:
            server.stop()

    def test_shutdown_state_recovers(self, tmp_path):
        store, persistence, server = build_server(
            port=0, data_dir=str(tmp_path)
        )
        server.start()
        store.set(b"survivor", b"v", ex=500.0)
        shutdown = GracefulShutdown(server, persistence)
        shutdown.run()

        store2, persistence2, server2 = build_server(
            port=0, data_dir=str(tmp_path)
        )
        try:
            assert store2.get(b"survivor") == b"v"
            assert 0 < store2.ttl(b"survivor") <= 500
        finally:
            persistence2.close()


class TestDurabilityFlagsNeedADir:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--appendonly", "yes"],
            ["--appendonly=yes"],
            ["--appendo", "yes"],  # argparse accepts any unique prefix
            ["--appendfsync", "always"],
            ["--appendfsync=no"],
        ],
    )
    def test_refused_however_the_flag_is_spelled(self, argv, capsys):
        """Without ``--dir`` there is no log: the server used to start
        and silently persist nothing for every spelling but the first."""
        with pytest.raises(SystemExit) as exit_:
            kv_server_main(["--port", "0", *argv])
        assert exit_.value.code == 2
        assert "require --dir" in capsys.readouterr().err
