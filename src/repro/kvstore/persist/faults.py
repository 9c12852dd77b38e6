"""Storage fault injection: the disk-side sibling of ``rpc/faults.py``.

Wraps the :class:`~repro.kvstore.persist.aof.BinaryFile` the AOF writer
talks to with a configurable chaos layer:

* **short writes** — only a prefix of the buffer reaches the file,
  then the write raises (how a torn record is born);
* **bit flips** — one byte of the written data is corrupted *silently*
  (the write succeeds; only recovery's CRC scan can notice);
* **fsync errors** — ``fsync`` raises ``EIO`` (the writer must count
  and carry on, not crash the serving plane);
* **ENOSPC** — writes past a byte budget fail with ``ENOSPC`` after
  persisting a prefix.

Like the RPC injector, the *injector* owns the RNG and counters so one
plan stays in force across file rotations (each new generation's log is
wrapped again and keeps rolling the same dice).

Usage::

    injector = DiskFaultInjector(DiskFaultPlan(bit_flip=0.05, seed=7))
    persistence = Persistence(config, file_factory=injector.open)
    ...
    print(injector.stats)
"""

from __future__ import annotations

import errno
import random
from dataclasses import dataclass

from repro.kvstore.persist.aof import BinaryFile, RealFile


@dataclass(frozen=True)
class DiskFaultPlan:
    """Per-operation fault probabilities (independent rolls)."""

    short_write: float = 0.0
    bit_flip: float = 0.0
    fsync_error: float = 0.0
    #: total bytes the "disk" accepts before writes fail with ENOSPC
    #: (``None`` = unlimited)
    enospc_after_bytes: int | None = None
    #: first N writes (per injector, across all wrapped files) pass
    #: clean, so a harness can lay down a healthy prefix first
    after_writes: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("short_write", "bit_flip", "fsync_error"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability: {p}")
        if self.enospc_after_bytes is not None and self.enospc_after_bytes < 0:
            raise ValueError("enospc_after_bytes must be non-negative")
        if self.after_writes < 0:
            raise ValueError("after_writes must be non-negative")


class DiskFaultStats:
    """Counters shared by every file an injector has wrapped."""

    __slots__ = (
        "writes",
        "bytes_written",
        "short_writes",
        "bits_flipped",
        "fsync_errors",
        "enospc_errors",
    )

    def __init__(self) -> None:
        self.writes = 0
        self.bytes_written = 0
        self.short_writes = 0
        self.bits_flipped = 0
        self.fsync_errors = 0
        self.enospc_errors = 0

    @property
    def faults_injected(self) -> int:
        return (
            self.short_writes
            + self.bits_flipped
            + self.fsync_errors
            + self.enospc_errors
        )

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        body = " ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<DiskFaultStats {body}>"


class DiskFaultInjector:
    """Factory that wraps files under one plan/RNG/stat set."""

    def __init__(self, plan: DiskFaultPlan) -> None:
        self.plan = plan
        self.stats = DiskFaultStats()
        self._rng = random.Random(plan.seed)
        self._writes_seen = 0

    def open(self, path: str) -> "FaultyFile":
        """``file_factory`` drop-in for :class:`AofWriter`."""
        return FaultyFile(RealFile(path), self)

    def wrap(self, file: BinaryFile) -> "FaultyFile":
        return FaultyFile(file, self)

    # -- dice ----------------------------------------------------------

    def _roll_write(self, size: int) -> dict[str, int | bool]:
        plan = self.plan
        self._writes_seen += 1
        if self._writes_seen <= plan.after_writes:
            return {}
        fate: dict[str, int | bool] = {}
        if (
            plan.enospc_after_bytes is not None
            and self.stats.bytes_written + size > plan.enospc_after_bytes
        ):
            fate["enospc_room"] = max(
                0, plan.enospc_after_bytes - self.stats.bytes_written
            )
            fate["enospc"] = True
        if self._rng.random() < plan.short_write:
            fate["short"] = self._rng.randrange(size) if size else 0
        if self._rng.random() < plan.bit_flip:
            fate["flip_at"] = self._rng.randrange(size) if size else 0
            fate["flip_bit"] = 1 << self._rng.randrange(8)
            fate["flip"] = size > 0
        return fate

    def _roll_fsync(self) -> bool:
        if self._writes_seen <= self.plan.after_writes:
            return False
        return self._rng.random() < self.plan.fsync_error


class FaultyFile:
    """A BinaryFile look-alike that misbehaves on purpose.

    A short write or ENOSPC persists a *prefix* before raising — the
    torn-record shape a real crash mid-``write`` leaves behind. A bit
    flip corrupts the written bytes silently; the caller sees success.
    """

    def __init__(self, inner: BinaryFile, injector: DiskFaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    def write(self, data: bytes) -> int:
        stats = self._injector.stats
        fate = self._injector._roll_write(len(data))
        stats.writes += 1
        if fate.get("enospc"):
            room = int(fate.get("enospc_room", 0))
            torn = data[:room]
            if torn:
                self._write_all(torn)
                stats.bytes_written += len(torn)
            stats.enospc_errors += 1
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        if "short" in fate:
            torn = data[: int(fate["short"])]
            if torn:
                self._write_all(torn)
                stats.bytes_written += len(torn)
            stats.short_writes += 1
            raise OSError(errno.EIO, "injected: short write")
        if fate.get("flip"):
            corrupt = bytearray(data)
            corrupt[int(fate["flip_at"])] ^= int(fate["flip_bit"])
            stats.bits_flipped += 1
            data = bytes(corrupt)
        self._write_all(data)
        stats.bytes_written += len(data)
        return len(data)

    def _write_all(self, data: bytes) -> None:
        written = 0
        while written < len(data):
            written += self._inner.write(data[written:])

    def fsync(self) -> None:
        if self._injector._roll_fsync():
            self._injector.stats.fsync_errors += 1
            raise OSError(errno.EIO, "injected: fsync failed")
        self._inner.fsync()

    def truncate(self, size: int) -> None:
        self._inner.truncate(size)

    def close(self) -> None:
        self._inner.close()
