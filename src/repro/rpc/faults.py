"""Fault injection for the cross-process protocol.

Wraps a :class:`~repro.rpc.framing.FrameStream` with a configurable
chaos layer: frames can be silently dropped, delayed, duplicated, or
turned into a full connection teardown, on either direction. Tests and
benchmarks use it to prove the retry/heartbeat/degraded-mode machinery
actually absorbs these faults instead of leaking them into application
code.

Usage::

    injector = FaultInjector(FaultPlan(drop=0.1, seed=7))
    agent = SmaAgent.connect(path, sma, stream_wrapper=injector.wrap)
    ...
    print(injector.stats)   # frames dropped/delayed/duplicated/...

The injector (not the stream) owns the RNG and counters, so a plan
stays in force across reconnects — the freshly dialed stream is wrapped
again and keeps rolling the same dice.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.rpc.framing import FrameClosed, FrameStream


@dataclass(frozen=True)
class FaultPlan:
    """Per-frame fault probabilities (independent rolls, in this order:
    disconnect, drop, delay, duplicate; at most one of disconnect/drop
    fires per frame)."""

    drop: float = 0.0
    delay: float = 0.0
    delay_s: float = 0.02
    duplicate: float = 0.0
    disconnect: float = 0.0
    #: first N frames (per injector, both directions) pass clean, so a
    #: handshake can survive even a hostile plan
    after_frames: int = 0
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in ("drop", "delay", "duplicate", "disconnect"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability: {p}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be non-negative: {self.delay_s}")
        if self.after_frames < 0:
            raise ValueError(
                f"after_frames must be non-negative: {self.after_frames}"
            )


class FaultStats:
    """Counters shared by every stream an injector has wrapped."""

    __slots__ = (
        "frames_sent",
        "frames_received",
        "dropped",
        "delayed",
        "duplicated",
        "disconnects",
    )

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_received = 0
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.disconnects = 0

    @property
    def faults_injected(self) -> int:
        return self.dropped + self.delayed + self.duplicated + self.disconnects

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        body = " ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<FaultStats {body}>"


class FaultInjector:
    """Factory that wraps streams under one plan/RNG/stat set."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()  # rolls come from several threads
        self._frames_seen = 0

    def wrap(self, stream: FrameStream) -> "FaultyStream":
        return FaultyStream(stream, self)

    # -- dice ----------------------------------------------------------

    def _roll(self) -> dict[str, bool]:
        """One frame's fate, decided atomically."""
        plan = self.plan
        with self._lock:
            self._frames_seen += 1
            if self._frames_seen <= plan.after_frames:
                return {}
            fate = {
                "disconnect": self._rng.random() < plan.disconnect,
                "drop": self._rng.random() < plan.drop,
                "delay": self._rng.random() < plan.delay,
                "duplicate": self._rng.random() < plan.duplicate,
            }
        return fate


class FaultyStream:
    """A FrameStream look-alike that misbehaves on purpose.

    ``send`` faults model a lossy path *to* the peer (the peer never
    sees a dropped frame); ``recv`` faults model loss on the way back
    (the peer already acted, this side never learns). An injected
    disconnect closes the real socket — indistinguishable from a peer
    crash, which is the point.
    """

    def __init__(self, inner: FrameStream, injector: FaultInjector) -> None:
        self._inner = inner
        self._injector = injector
        self._replay: list[dict[str, Any]] = []  # recv-side duplicates

    def send(self, frame: dict[str, Any]) -> None:
        stats = self._injector.stats
        fate = self._injector._roll()
        if fate.get("disconnect"):
            stats.disconnects += 1
            self._inner.close()
            raise FrameClosed("injected disconnect (send)")
        if fate.get("drop"):
            stats.dropped += 1
            return
        if fate.get("delay"):
            stats.delayed += 1
            time.sleep(self._injector.plan.delay_s)
        self._inner.send(frame)
        stats.frames_sent += 1
        if fate.get("duplicate"):
            stats.duplicated += 1
            self._inner.send(frame)

    def recv(self) -> dict[str, Any]:
        while not self._replay:
            self._replay = self._arrive(self._inner.recv())
        return self._replay.pop()

    def recv_ready(self) -> list[dict[str, Any]]:
        frames, self._replay = self._replay, []
        for frame in self._inner.recv_ready():
            frames += self._arrive(frame)
        return frames

    def _arrive(self, frame: dict[str, Any]) -> list[dict[str, Any]]:
        """What this side sees of one received frame: 0, 1 or 2 copies."""
        stats = self._injector.stats
        stats.frames_received += 1
        fate = self._injector._roll()
        if fate.get("disconnect"):
            stats.disconnects += 1
            self._inner.close()
            raise FrameClosed("injected disconnect (recv)")
        if fate.get("drop"):
            stats.dropped += 1
            return []
        if fate.get("delay"):
            stats.delayed += 1
            time.sleep(self._injector.plan.delay_s)
        if fate.get("duplicate"):
            stats.duplicated += 1
            return [frame, frame]
        return [frame]

    def fileno(self) -> int:
        return self._inner.fileno()

    def settimeout(self, timeout: float | None) -> None:
        self._inner.settimeout(timeout)

    def close(self) -> None:
        self._inner.close()
