"""Structured event log used to build timelines (Figure 2 style plots).

Every interesting state change in the simulators — a soft memory request,
a reclamation demand, a page transfer — is appended as an :class:`Event`.
Benchmarks then turn the log into the time series the paper plots.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Event:
    """One timestamped record.

    ``time`` is in simulated seconds (or wall-clock seconds when the caller
    measures for real); ``kind`` is a short machine-readable tag such as
    ``"reclaim.start"``; ``detail`` carries free-form fields.
    """

    time: float
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:10.4f}s] {self.kind} {parts}".rstrip()


class EventLog:
    """Append-only log of events with simple query helpers.

    Unbounded by default — a simulator's whole run is its timeline.
    With ``max_events`` it is a ring of the most recent events, for a
    long-lived process; subscribers see every event either way.
    """

    def __init__(self, max_events: int | None = None) -> None:
        self._events: deque[Event] = deque(maxlen=max_events)
        self._subscribers: list[Callable[[Event], None]] = []
        #: subscriber callbacks that raised inside :meth:`record`
        self.subscriber_errors = 0

    def record(self, time: float, kind: str, **detail: Any) -> Event:
        """Append an event and notify subscribers.

        A raising subscriber is contained and counted: the event is
        already appended, and every *later* subscriber is still
        notified — one broken observer must not blind the others or
        abort the state change being recorded.
        """
        event = Event(time=time, kind=kind, detail=detail)
        self._events.append(event)
        for callback in self._subscribers:
            try:
                callback(event)
            except Exception:
                self.subscriber_errors += 1
        return event

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Invoke ``callback`` for every subsequently recorded event."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        """Remove a subscriber added with :meth:`subscribe`."""
        self._subscribers.remove(callback)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def of_kind(self, kind: str) -> list[Event]:
        """All events whose kind equals or starts with ``kind``.

        ``of_kind("reclaim")`` matches ``reclaim.start`` and
        ``reclaim.done`` but not ``request``.
        """
        return [
            e
            for e in self._events
            if e.kind == kind or e.kind.startswith(kind + ".")
        ]

    def first(self, kind: str) -> Event | None:
        """Earliest event of ``kind`` (prefix match), or ``None``."""
        matches = self.of_kind(kind)
        return matches[0] if matches else None

    def last(self, kind: str) -> Event | None:
        """Latest event of ``kind`` (prefix match), or ``None``."""
        matches = self.of_kind(kind)
        return matches[-1] if matches else None

    def series(self, kind: str, field_name: str) -> list[tuple[float, Any]]:
        """(time, detail[field_name]) pairs for events of ``kind``."""
        return [
            (e.time, e.detail[field_name])
            for e in self.of_kind(kind)
            if field_name in e.detail
        ]

    def clear(self) -> None:
        self._events.clear()
