"""The persistence engine: checkpoints, recovery, and the AOF plumbing.

One :class:`Persistence` instance owns one data directory and attaches
to one :class:`~repro.kvstore.store.DataStore`. On-disk layout::

    <dir>/base-<g>.snap   point-in-time snapshot: state before incr-<g>
    <dir>/incr-<g>.aof    append-only log of everything after base-<g>

Generations make the naming convention the manifest: checkpoint ``g``
switches appends to a fresh ``incr-<g>.aof`` *first* (under the
caller's serialization, so the switch point is exact), then serializes
``base-<g>.snap``; until the snapshot lands, recovery still finds
``base-<g-1>`` + ``incr-<g-1>`` + ``incr-<g>`` — a contiguous history.
Recovery therefore: picks the newest *valid* snapshot, replays the
contiguous run of incremental logs from that generation upward, and
tolerates a torn or corrupt tail by clean truncation (a corrupt record
*mid*-history ends replay there: later bytes might depend on the lost
ones, so they are discarded rather than risk phantom state).

Soft-memory awareness:

* SMA reclamation of keyspace entries appends **tombstones**, so data
  dropped under memory pressure stays dropped across restart;
* replayed entries are re-admitted through the store's normal
  soft-allocation path, so the SMD budget gates them: a denial (or
  PR 1's degraded mode while the daemon is unreachable) skips the
  entry — the store is a cache, a skipped entry is a future miss, and
  recovery never crashes on it;
* TTLs are persisted as absolute unix-epoch deadlines: replay converts
  them back to the store clock, and keys already past their deadline
  are dropped during replay, never resurrected, never extended.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.kvstore.persist.aof import (
    FSYNC_POLICIES,
    AofWriter,
    FileFactory,
    RealFile,
    load_aof,
)
from repro.kvstore.persist.codec import (
    deadline_ms,
    encode_tombstone,
    encode_write,
    expiry_clause,
)
from repro.kvstore.persist.snapshot import (
    SnapshotEntry,
    materialize_entries,
    read_snapshot,
    write_snapshot,
)
from repro.kvstore.values import Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kvstore.store import DataStore

_BASE_RE = re.compile(r"^base-(\d+)\.snap$")
_INCR_RE = re.compile(r"^incr-(\d+)\.aof$")
#: previous generations kept after a checkpoint (fallback targets for a
#: corrupt newest snapshot)
KEEP_GENERATIONS = 1


@dataclass
class PersistenceConfig:
    """Durability knobs (the CONFIG-visible surface)."""

    dir: str
    appendonly: bool = True
    appendfsync: str = "everysec"  # always | everysec | no

    def __post_init__(self) -> None:
        if self.appendfsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown appendfsync {self.appendfsync!r}")


@dataclass
class PersistStats:
    """Lifetime counters (INFO Persistence)."""

    aof_records: int = 0
    flushes: int = 0
    tombstones_logged: int = 0
    rdb_saves: int = 0
    #: unix seconds of the last *completed* snapshot (LASTSAVE)
    rdb_last_save_time: int = 0
    recovery_truncated_bytes: int = 0
    recovered_records: int = 0
    recovered_keys: int = 0
    #: replayed entries skipped because the SMA denied the allocation
    #: (budget exhausted machine-wide, or degraded mode)
    recovery_admission_denied: int = 0
    #: replayed entries dropped because their absolute deadline passed
    recovery_expired_dropped: int = 0
    #: snapshot files that failed validation during recovery
    snapshots_rejected: int = 0

    def as_dict(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class Persistence:
    """Crash-safe durability for one store; see the module docstring."""

    def __init__(
        self,
        config: PersistenceConfig,
        *,
        file_factory: FileFactory = RealFile,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.config = config
        self.stats = PersistStats()
        self._file_factory = file_factory
        self._clock = clock
        self._store: "DataStore | None" = None
        self._writer: AofWriter | None = None
        self._generation = 0
        self._logging = False
        self._closed = False
        #: guards the writer (buffer + flush) — hooks append on the
        #: event loop thread (a replica's stream and a daemon's DEMAND
        #: too), but BGSAVE/rewrite checkpoints and :meth:`close` swap
        #: the writer from whichever thread calls them
        self._io_lock = threading.Lock()
        #: guards checkpoint bookkeeping (one BGSAVE at a time)
        self._save_lock = threading.Lock()
        self._bgsave_thread: threading.Thread | None = None
        self.bgsave_in_progress = False
        self.last_bgsave_error: str | None = None
        os.makedirs(config.dir, exist_ok=True)

    # ------------------------------------------------------------------
    # paths and generation discovery
    # ------------------------------------------------------------------

    def _base_path(self, gen: int) -> str:
        return os.path.join(self.config.dir, f"base-{gen}.snap")

    def _incr_path(self, gen: int) -> str:
        return os.path.join(self.config.dir, f"incr-{gen}.aof")

    def _scan_generations(self) -> tuple[list[int], list[int]]:
        """Sorted generation numbers present: ``(bases, incrs)``."""
        bases: list[int] = []
        incrs: list[int] = []
        try:
            names = os.listdir(self.config.dir)
        except OSError:
            return [], []
        for name in names:
            if m := _BASE_RE.match(name):
                bases.append(int(m.group(1)))
            elif m := _INCR_RE.match(name):
                incrs.append(int(m.group(1)))
        return sorted(bases), sorted(incrs)

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def aof_enabled(self) -> bool:
        return self._logging

    @property
    def aof_size(self) -> int:
        """Bytes known intact in the current incremental log."""
        writer = self._writer
        return writer.good_size if writer is not None else 0

    @property
    def aof_pending_bytes(self) -> int:
        writer = self._writer
        return writer.pending_bytes if writer is not None else 0

    @property
    def aof_path(self) -> str:
        return self._incr_path(self._generation)

    @property
    def fsync_errors(self) -> int:
        writer = self._writer
        return self._fsync_errors_closed + (
            writer.fsync_errors if writer is not None else 0
        )

    @property
    def write_errors(self) -> int:
        writer = self._writer
        return self._write_errors_closed + (
            writer.write_errors if writer is not None else 0
        )

    _fsync_errors_closed = 0
    _write_errors_closed = 0

    # ------------------------------------------------------------------
    # attach + recovery
    # ------------------------------------------------------------------

    def attach(self, store: "DataStore", *, recover: bool = True) -> None:
        """Bind to ``store``: recover from disk, then start logging."""
        if self._store is not None:
            raise RuntimeError("persistence is already attached to a store")
        self._store = store
        if recover:
            self._recover(store)
        else:
            bases, incrs = self._scan_generations()
            self._generation = max(bases + incrs, default=0)
        if self.config.appendonly:
            self._open_writer()
            self._logging = True

    def _open_writer(self) -> None:
        self._retire_writer()
        self._writer = AofWriter(
            self._incr_path(self._generation),
            fsync_policy=self.config.appendfsync,
            file_factory=self._file_factory,
        )

    def _retire_writer(self) -> None:
        writer = self._writer
        if writer is not None:
            self._fsync_errors_closed += writer.fsync_errors
            self._write_errors_closed += writer.write_errors
            writer.close()
            self._writer = None

    def _recover(self, store: "DataStore") -> None:
        """Load the newest valid snapshot, replay the contiguous tail."""
        self._sweep_tmp_files()
        bases, incrs = self._scan_generations()
        start_gen = 0
        history: list[tuple] = []
        for gen in reversed(bases):
            result = read_snapshot(self._base_path(gen))
            if result is not None:
                history = result[0]  # a snapshot is the W records it holds
                start_gen = gen
                break
            # provably invalid (torn trailer, bad frame): keeping it
            # would only make every future recovery reject it again
            self.stats.snapshots_rejected += 1
            self._remove_quiet(self._base_path(gen))
        else:  # no valid snapshot: the oldest log is the whole history
            if incrs:
                start_gen = incrs[0]
        # append the contiguous run of incremental logs from start_gen up
        gen = start_gen
        last_seen = start_gen
        while os.path.exists(self._incr_path(gen)):
            records, truncated = load_aof(self._incr_path(gen))
            self.stats.recovery_truncated_bytes += truncated
            history += records
            self.stats.recovered_records += len(records)
            last_seen = gen
            if truncated:
                # bytes after a corruption point are unsafe to replay —
                # a later generation may reference state the lost suffix
                # carried. Drop the orphans; their size counts as lost.
                orphan = gen + 1
                while os.path.exists(self._incr_path(orphan)):
                    try:
                        self.stats.recovery_truncated_bytes += (
                            os.path.getsize(self._incr_path(orphan))
                        )
                        os.remove(self._incr_path(orphan))
                    except OSError:
                        pass
                    orphan += 1
                break
            gen += 1
        all_gens = [last_seen] + [g for g in bases if g <= last_seen]
        self._generation = max(all_gens, default=0)
        # the writer is not open yet, so nothing replay does is re-logged
        counts = store.replay(history, int(self._clock() * 1000))
        self.stats.recovered_keys += counts.written
        self.stats.recovery_admission_denied += counts.denied
        # keys whose final replayed deadline already passed die here —
        # after the full replay, so in-log rescues (PERSIST, rewrites)
        # were given their chance first
        self.stats.recovery_expired_dropped += store.sweep_expired()

    # ------------------------------------------------------------------
    # the AOF sink (fed by ``DataStore.log_record`` under its serialization)
    # ------------------------------------------------------------------

    def append(
        self, encoder, args: tuple, ex: "float | None" = None, records: int = 1
    ) -> "bytes | None":
        """``encoder(buffer, *args)`` if logging: the AOF's one guarded
        append. Returns the frame, or ``None`` when nothing was logged.

        ``ex`` (a TTL in seconds) becomes the encoder's last argument, a
        unix-ms deadline on this sink's clock; ``records`` counts what a
        ``copy_frames`` appends. The frame is the encoder's ``bytes``,
        never a view of the buffer: a view that outlived this call would
        make the buffer's next append raise ``BufferError``.
        """
        writer = self._writer
        if writer is None or not self._logging:
            return None
        if ex is not None:
            args += (deadline_ms(self._clock(), ex),)
        with self._io_lock:
            frame = encoder(writer.buffer, *args)
            self.stats.aof_records += records
            if encoder is encode_tombstone:
                self.stats.tombstones_logged += 1
            return frame

    def log_write(
        self,
        key: bytes,
        value: Value,
        ex_relative: "float | None",
        keep_ttl: bool,
    ) -> "bytes | None":
        """One W through :meth:`append`. Nothing in ``src/`` calls it:
        ``benchmarks/e2e/ledger.py`` times it by name, and ROADMAP 1(a)
        retires it."""
        clause = expiry_clause(ex_relative, keep_ttl)
        return self.append(encode_write, (key, value, clause), ex_relative)

    # ------------------------------------------------------------------
    # flushing (called by the serving loop, once per batch)
    # ------------------------------------------------------------------

    def flush(self, *, force_fsync: bool = False) -> bool:
        """Push the write-behind buffer to disk per the fsync policy."""
        writer = self._writer
        if writer is None:
            return True
        with self._io_lock:
            if writer.pending_bytes:
                self.stats.flushes += 1
            # even with nothing pending the writer may owe a deferred
            # everysec fsync for bytes already written
            return writer.flush(force_fsync=force_fsync)

    # ------------------------------------------------------------------
    # checkpoints (SAVE / BGSAVE / BGREWRITEAOF)
    # ------------------------------------------------------------------

    def checkpoint(self, *, background: bool = False) -> bool:
        """Capture a snapshot and (when AOF is on) rotate the log.

        Must be called under the store's serialization (command
        handlers already are). The materialization and the log switch
        happen synchronously — the switch point is exact — and only
        the snapshot serialization moves to a thread for ``BGSAVE``.
        Returns False when a background save is already running.
        """
        store = self._store
        if store is None:
            raise RuntimeError("persistence is not attached to a store")
        with self._save_lock:
            if self.bgsave_in_progress:
                return False
            gen = self._generation + 1
            entries = self._materialize(store)
            if self._logging:
                with self._io_lock:
                    writer = self._writer
                    if writer is not None:
                        writer.flush(force_fsync=True)
                self._generation = gen
                with self._io_lock:
                    self._open_writer()
            else:
                self._generation = gen
            if background:
                self.bgsave_in_progress = True
                self._bgsave_thread = threading.Thread(
                    target=self._write_base,
                    args=(gen, entries),
                    name="kv-bgsave",
                    daemon=True,
                )
                self._bgsave_thread.start()
                return True
        self._write_base(gen, entries)
        return True

    def join_bgsave(self, timeout: float | None = None) -> None:
        """Wait for an in-flight BGSAVE thread (tests, orderly drains)."""
        thread = self._bgsave_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def _materialize(self, store: "DataStore") -> list[SnapshotEntry]:
        """A consistent cut of the keyspace (under store serialization)."""
        return materialize_entries(store, self._clock())

    def _write_base(self, gen: int, entries: list[SnapshotEntry]) -> None:
        try:
            write_snapshot(
                self._base_path(gen), entries, int(self._clock() * 1000)
            )
            self.stats.rdb_saves += 1
            self.stats.rdb_last_save_time = int(self._clock())
            self.last_bgsave_error = None
            self._cleanup(gen)
        except OSError as exc:
            self.last_bgsave_error = f"{type(exc).__name__}: {exc}"
        finally:
            self.bgsave_in_progress = False

    def _cleanup(self, current_gen: int) -> None:
        """Drop generations older than the fallback window."""
        keep_from = current_gen - KEEP_GENERATIONS
        bases, incrs = self._scan_generations()
        for gen in bases:
            if gen < keep_from:
                self._remove_quiet(self._base_path(gen))
        for gen in incrs:
            if gen < keep_from:
                self._remove_quiet(self._incr_path(gen))

    def _sweep_tmp_files(self) -> None:
        """Drop ``*.tmp`` left by a crash mid-snapshot (pre-rename)."""
        try:
            names = os.listdir(self.config.dir)
        except OSError:
            return
        for name in names:
            if name.endswith(".tmp"):
                self._remove_quiet(os.path.join(self.config.dir, name))

    @staticmethod
    def _remove_quiet(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # config surface (CONFIG SET appendonly / appendfsync)
    # ------------------------------------------------------------------

    def set_appendonly(self, enabled: bool) -> None:
        """Toggle the AOF. Enabling checkpoints first (like Redis's
        rewrite-on-enable) so the fresh log has a complete base."""
        if enabled == self.config.appendonly and (
            enabled == self._logging
        ):
            return
        self.config.appendonly = enabled
        if enabled:
            if self._writer is None:
                self._open_writer()
            self._logging = True
            self.checkpoint(background=False)
        else:
            self._logging = False
            with self._io_lock:
                self._retire_writer()

    def set_appendfsync(self, policy: str) -> None:
        if policy not in FSYNC_POLICIES:
            raise ValueError(f"unknown appendfsync {policy!r}")
        self.config.appendfsync = policy
        writer = self._writer
        if writer is not None:
            writer.fsync_policy = policy

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def close(self, *, final_snapshot: bool = False) -> None:
        """Flush and seal. Idempotent: a second close (or a signal
        racing the first) is a no-op — never a double flush."""
        with self._save_lock:
            if self._closed:
                return
            self._closed = True
        thread = self._bgsave_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=10)
        if final_snapshot and self._store is not None:
            try:
                self.checkpoint(background=False)
            except OSError:
                pass
        self._logging = False
        with self._io_lock:
            self._retire_writer()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return (
            f"<Persistence dir={self.config.dir!r} gen={self._generation} "
            f"aof={'on' if self._logging else 'off'}/"
            f"{self.config.appendfsync}>"
        )
