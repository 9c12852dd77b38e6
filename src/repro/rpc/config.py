"""Tunable timing/retry policy for the cross-process RPC plane.

Every timeout the protocol uses lives here instead of being a magic
constant inside the agent or server. One :class:`RpcConfig` is shared
by both sides (each reads the fields relevant to it), so a test or
benchmark can shrink the whole plane's time constants coherently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule: the delay doubles per try.

    ``attempts`` counts total tries (1 = no retry). ``attempts <= 0``
    means unlimited — used for the reconnect loop, which never gives
    up while the agent is alive.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff to sleep after 0-indexed try ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt must be non-negative: {attempt}")
        # the unlimited loop counts tries for as long as the daemon is
        # down and 2.0 ** 1024 is an OverflowError: 64 doublings already
        # outgrow any max_delay, so saturate the exponent there
        return min(self.base_delay * 2.0 ** min(attempt, 64), self.max_delay)


@dataclass(frozen=True)
class RpcConfig:
    """Timing and fault-tolerance knobs for agent and daemon.

    Agent side: ``connect_timeout`` bounds dialing plus the handshake,
    ``request_timeout`` is the per-attempt reply wait for one
    REQUEST/RELEASE round-trip, retried per ``request_retry``;
    exhausting the schedule declares the daemon unreachable (degraded
    mode). ``heartbeat_interval`` is the PING cadence (0 disables) and
    ``heartbeat_timeout`` the silence window after which the peer is
    presumed dead; a degraded agent redials in the background on the
    ``reconnect_backoff`` schedule until it is closed.

    Daemon side: ``demand_timeout`` bounds one DEMAND/REPORT exchange;
    ``heartbeat_timeout`` reaps clients that pinged once and then went
    silent. ``demand_lock_timeout`` is a threaded client's bounded
    SMA-lock wait while serving a demand (the deadlock backstop; a
    loop-driven client never waits for a lock).
    """

    connect_timeout: float = 10.0
    request_timeout: float = 10.0
    request_retry: RetryPolicy = field(default_factory=RetryPolicy)
    demand_timeout: float = 5.0
    demand_lock_timeout: float = 2.0
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 5.0
    reconnect_backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(attempts=0)
    )


DEFAULT_RPC_CONFIG = RpcConfig()


class ReplyCache:
    """Bounded id -> reply map making request handling idempotent.

    Retries and injected duplicates can deliver the same frame id
    twice; the receiver answers the duplicate from this cache instead
    of re-executing the (budget-mutating) operation. Not thread-safe:
    one thread touches each cache (the daemon's loop, or the agent's).
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, dict]" = OrderedDict()

    def get(self, key: Any) -> dict | None:
        return self._entries.get(key)

    def put(self, key: Any, reply: dict) -> None:
        self._entries[key] = reply
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
