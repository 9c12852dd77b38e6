"""Append-only log writer and tail-tolerant reader.

:class:`AofWriter` owns one incremental log file. Mutation hooks append
encoded records into an in-memory *write-behind* buffer (one
``bytearray`` append per record, no I/O on the command path); the
serving loop flushes the buffer once per pipelined batch, and the
fsync policy decides how often durability is actually bought:

* ``always``  — fsync on every flush (acked writes survive kill -9);
* ``everysec`` — fsync at most once per second (Redis's default
  trade: bounded loss window, near-zero fsync tax);
* ``no``      — never fsync; the OS flushes on its own schedule.

The writer tracks ``good_size`` — bytes known to have reached the file
intact. When a write fails midway (short write, ENOSPC), it rolls the
file back to ``good_size`` with ``truncate`` so a retried flush cannot
leave a duplicated half-record in the middle of the log; if even the
rollback fails, the dirty tail is left for recovery's CRC scan to cut
off. Either way the pending buffer is retained and retried — an I/O
error never drops acknowledged mutations silently.

:func:`load_aof` reads a log back through the codec's one reader
(``read_records``: the valid prefix ends at the first torn, corrupt or
undecodable frame) and (optionally) truncates the file there so the
next writer appends onto a clean tail. Garbage never raises.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Protocol

from repro.kvstore.persist.codec import read_records

FSYNC_POLICIES = ("always", "everysec", "no")
#: seconds an ``everysec`` writer may leave written bytes unsynced
FSYNC_INTERVAL = 1.0


class BinaryFile(Protocol):
    """What the writer needs from a file — real or fault-injected."""

    def write(self, data: bytes) -> int: ...

    def fsync(self) -> None: ...

    def truncate(self, size: int) -> None: ...

    def close(self) -> None: ...


class RealFile:
    """Thin ``os``-level file: append position, explicit fsync/truncate."""

    def __init__(self, path: str) -> None:
        self._fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        os.lseek(self._fd, 0, os.SEEK_END)

    def write(self, data: bytes) -> int:
        return os.write(self._fd, data)

    def fsync(self) -> None:
        os.fsync(self._fd)

    def truncate(self, size: int) -> None:
        os.ftruncate(self._fd, size)
        os.lseek(self._fd, size, os.SEEK_SET)

    def close(self) -> None:
        try:
            os.close(self._fd)
        except OSError:
            pass


FileFactory = Callable[[str], BinaryFile]


class AofWriter:
    """Write-behind appender for one incremental log file."""

    def __init__(
        self,
        path: str,
        *,
        fsync_policy: str = "everysec",
        file_factory: FileFactory = RealFile,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync_policy!r}")
        self.path = path
        self.fsync_policy = fsync_policy
        self._clock = clock
        self._file: BinaryFile | None = file_factory(path)
        #: the write-behind buffer mutation hooks encode into; a plain
        #: attribute, because every logged record reaches it
        self.buffer = bytearray()
        #: bytes known to be intact in the file (resume point on error)
        self.good_size = os.path.getsize(path) if os.path.exists(path) else 0
        #: bytes covered by the last successful fsync — read-only
        #: batches must not pay for fsyncs of nothing
        self._synced_size = self.good_size
        self._last_fsync = clock()
        self.fsyncs = 0
        self.fsync_errors = 0
        self.write_errors = 0
        #: a failed write whose rollback also failed: the file tail is
        #: unverified and only recovery's CRC scan can clean it
        self.dirty_tail = False

    @property
    def pending_bytes(self) -> int:
        return len(self.buffer)

    def append(self, record: bytes) -> None:
        """Queue one already-framed record (slow path, tests/tools)."""
        self.buffer += record

    # ------------------------------------------------------------------

    def flush(self, *, force_fsync: bool = False) -> bool:
        """Push the pending buffer to the file, fsync per policy.

        Returns True when the pending buffer fully reached the file.
        The file is written from the buffer itself, not from a copy; a
        short write drops the bytes that reached the file and leaves
        exactly the unwritten tail pending. On a write error the file is
        rolled back to the last known-good size and the buffer is kept
        for the next flush.
        """
        file = self._file
        pending = self.buffer
        if file is None:
            return not pending
        while pending:
            try:
                with memoryview(pending) as view:
                    written = file.write(view)
            except OSError:
                self.write_errors += 1
                # Roll back to the clean prefix so a retry cannot leave
                # half a record buried mid-file. The pending buffer is
                # untouched: nothing acknowledged is dropped.
                try:
                    file.truncate(self.good_size)
                except OSError:
                    self.dirty_tail = True
                return False
            self.good_size += written
            del pending[:written]
        unsynced = self.good_size > self._synced_size
        if force_fsync:
            if unsynced:
                self._fsync(file)
        elif self.fsync_policy == "always":
            if unsynced:
                self._fsync(file)
        elif self.fsync_policy == "everysec":
            now = self._clock()
            if unsynced and now - self._last_fsync >= FSYNC_INTERVAL:
                self._fsync(file)
        return True

    def _fsync(self, file: BinaryFile) -> None:
        try:
            file.fsync()
            self.fsyncs += 1
            self._synced_size = self.good_size
        except OSError:
            self.fsync_errors += 1
        self._last_fsync = self._clock()

    def close(self, *, flush: bool = True) -> None:
        """Flush (with fsync) and close. Idempotent."""
        file = self._file
        if file is None:
            return
        if flush:
            self.flush(force_fsync=True)
        self._file = None
        file.close()

    @property
    def closed(self) -> bool:
        return self._file is None

    def __repr__(self) -> str:
        return (
            f"<AofWriter {self.path!r} good={self.good_size}B "
            f"pending={len(self.buffer)}B policy={self.fsync_policy}>"
        )


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------


def load_aof(
    path: str, *, truncate: bool = True
) -> tuple[list[tuple], int]:
    """Read a log file; return ``(records, truncated_bytes)``.

    Every byte past the reader's valid prefix counts as truncated. With
    ``truncate`` the file is physically cut back to that prefix so
    subsequent appends continue from a clean tail. A missing file is
    an empty log.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return [], 0
    records, valid_size = read_records(data)
    if truncate and valid_size < len(data):
        _truncate_file(path, valid_size)
    return records, len(data) - valid_size


def _truncate_file(path: str, size: int) -> None:
    try:
        fd = os.open(path, os.O_RDWR)
    except OSError:
        return
    try:
        os.ftruncate(fd, size)
    except OSError:
        pass
    finally:
        os.close(fd)
