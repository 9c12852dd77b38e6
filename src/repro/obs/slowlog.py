"""Bounded ring buffer of the slowest commands (Redis SLOWLOG shape).

Entries are only recorded for commands at or above a configurable
duration threshold, the ring holds at most ``max_len`` of them (oldest
evicted first), and long argument vectors are truncated — all three
bounds together guarantee the log cannot grow with traffic, which the
regression tests assert under sustained load.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

#: arguments beyond this count are collapsed into a "... (N more)" marker
_MAX_ARGS = 8
#: bytes kept per argument before truncation
_MAX_ARG_BYTES = 64


@dataclass(frozen=True)
class SlowlogEntry:
    """One slow command: monotonically increasing id, wall-clock stamp,
    duration in microseconds, and the (truncated) argument vector."""

    entry_id: int
    timestamp: float
    duration_us: int
    argv: tuple[bytes, ...]


def _truncate(argv: Iterable[bytes]) -> tuple[bytes, ...]:
    argv = list(argv)
    kept = [
        a if len(a) <= _MAX_ARG_BYTES
        else a[:_MAX_ARG_BYTES] + b"...(truncated)"
        for a in argv[:_MAX_ARGS]
    ]
    if len(argv) > _MAX_ARGS:
        kept.append(b"... (%d more arguments)" % (len(argv) - _MAX_ARGS))
    return tuple(kept)


class Slowlog:
    """Threshold-filtered, size-bounded log of slow commands."""

    def __init__(
        self,
        max_len: int = 128,
        threshold_us: int = 10_000,
        time_fn=time.time,
    ) -> None:
        if max_len < 1:
            raise ValueError(f"max_len must be positive: {max_len}")
        self.max_len = max_len
        self.threshold_us = threshold_us
        self._time_fn = time_fn
        self._entries: list[SlowlogEntry] = []
        self._start = 0  # ring head inside _entries
        self._next_id = 0
        #: lifetime count of entries ever logged (monotonic; survives reset)
        self.total_logged = 0

    def add(self, argv: Iterable[bytes], duration_s: float) -> None:
        """Record one command unconditionally (caller checked the threshold)."""
        entry = SlowlogEntry(
            entry_id=self._next_id,
            timestamp=self._time_fn(),
            duration_us=int(duration_s * 1e6),
            argv=_truncate(argv),
        )
        self._next_id += 1
        self.total_logged += 1
        entries = self._entries
        if len(entries) < self.max_len:
            entries.append(entry)
        else:
            # overwrite the oldest slot: O(1), no list shifting
            entries[self._start] = entry
            self._start = (self._start + 1) % self.max_len

    def entries(self, count: int | None = None) -> list[SlowlogEntry]:
        """Newest-first entries (like ``SLOWLOG GET``)."""
        entries = self._entries
        ordered = (
            entries[self._start:] + entries[:self._start]
        )  # oldest .. newest
        ordered.reverse()
        if count is not None:
            ordered = ordered[: max(0, count)]
        return ordered

    def set_max_len(self, max_len: int) -> None:
        """Resize the ring, keeping the newest entries that still fit."""
        if max_len < 1:
            raise ValueError(f"max_len must be positive: {max_len}")
        ordered = self.entries()  # newest .. oldest
        ordered.reverse()  # oldest .. newest
        self._entries = ordered[-max_len:]
        self._start = 0
        self.max_len = max_len

    def reset(self) -> None:
        self._entries.clear()
        self._start = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<Slowlog len={len(self)}/{self.max_len} "
            f"threshold={self.threshold_us}us>"
        )
