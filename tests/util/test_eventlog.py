"""Tests for the structured event log."""

from repro.util.eventlog import Event, EventLog


class TestEventLog:
    def test_record_returns_event(self):
        log = EventLog()
        ev = log.record(1.5, "request", pid=3)
        assert isinstance(ev, Event)
        assert ev.time == 1.5
        assert ev.kind == "request"
        assert ev.detail == {"pid": 3}

    def test_len_and_iter(self):
        log = EventLog()
        log.record(0, "a")
        log.record(1, "b")
        assert len(log) == 2
        assert [e.kind for e in log] == ["a", "b"]

    def test_indexing(self):
        log = EventLog()
        log.record(0, "a")
        assert log[0].kind == "a"

    def test_of_kind_prefix_matching(self):
        log = EventLog()
        log.record(0, "reclaim.start")
        log.record(1, "reclaim.done")
        log.record(2, "reclaimx")  # must NOT match the "reclaim" prefix
        log.record(3, "request")
        assert len(log.of_kind("reclaim")) == 2
        assert len(log.of_kind("reclaim.start")) == 1
        assert len(log.of_kind("request")) == 1

    def test_first_and_last(self):
        log = EventLog()
        assert log.first("x") is None
        assert log.last("x") is None
        log.record(0, "x", n=1)
        log.record(5, "x", n=2)
        assert log.first("x").detail["n"] == 1
        assert log.last("x").detail["n"] == 2

    def test_series_extracts_field(self):
        log = EventLog()
        log.record(0, "footprint", redis=10)
        log.record(1, "footprint", redis=8, other=2)
        log.record(2, "footprint", other=5)  # missing field skipped
        assert log.series("footprint", "redis") == [(0, 10), (1, 8)]

    def test_subscribe(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.record(0, "a")
        log.record(1, "b")
        assert [e.kind for e in seen] == ["a", "b"]

    def test_bounded_log_is_a_ring_of_the_most_recent(self):
        log = EventLog(max_events=4)
        seen = []
        log.subscribe(seen.append)
        for n in range(10):
            log.record(n, "tick" if n % 2 else "tock", n=n)
        assert len(log) == 4
        assert [e.detail["n"] for e in log] == [6, 7, 8, 9]
        assert log[0].detail["n"] == 6 and log[-1].detail["n"] == 9
        assert [e.detail["n"] for e in log.of_kind("tick")] == [7, 9]
        assert len(seen) == 10  # subscribers still see every event

    def test_default_is_unbounded(self):
        log = EventLog()
        for n in range(10_000):
            log.record(n, "tick")
        assert len(log) == 10_000

    def test_clear(self):
        log = EventLog()
        log.record(0, "a")
        log.clear()
        assert len(log) == 0

    def test_event_str_contains_fields(self):
        text = str(Event(1.0, "demand", detail={"pid": 7}))
        assert "demand" in text and "pid=7" in text

    def test_events_are_frozen(self):
        ev = Event(0.0, "a")
        try:
            ev.time = 1.0  # type: ignore[misc]
            raised = False
        except AttributeError:
            raised = True
        assert raised
