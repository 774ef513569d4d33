"""Tests for event-log cursor windows."""

import pytest

from repro.tertiary import SimClock
from repro.tertiary.clock import Event, EventLog


def _event(kind: str = "seek", duration: float = 1.0) -> Event:
    return Event(time=0.0, duration=duration, kind=kind, device="d0")


class TestAbsoluteCursors:
    def test_cursor_is_total_appended(self):
        log = EventLog()
        for _ in range(10):
            log.append(_event())
        assert log.cursor() == 10

    def test_aggregate_over_window(self):
        log = EventLog()
        log.append(_event(kind="seek", duration=2.0))
        start = log.cursor()
        log.append(_event(kind="read", duration=3.0))
        log.append(_event(kind="read", duration=4.0))
        end = log.cursor()
        log.append(_event(kind="seek", duration=5.0))
        totals = log.aggregate(start, end)
        assert set(totals) == {"read"}
        assert totals["read"].count == 2
        assert totals["read"].seconds == pytest.approx(7.0)

    def test_breakdown_with_cursor_start(self):
        log = EventLog()
        log.append(_event(kind="seek", duration=2.0))
        cursor = log.cursor()
        log.append(_event(kind="read", duration=3.0))
        assert log.breakdown(start=cursor) == {"read": pytest.approx(3.0)}


class TestSimClockIntegration:
    def test_charge_totals_equal_clock_now_when_unbounded(self):
        clock = SimClock()
        clock.charge(1.5, "seek", "d0")
        clock.charge(2.5, "read", "d0")
        assert sum(e.duration for e in clock.log) == pytest.approx(clock.now)
