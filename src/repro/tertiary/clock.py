"""Virtual time base of the tertiary-storage simulator.

Every device in :mod:`repro.tertiary` charges its cost model against a shared
:class:`SimClock` instead of sleeping, so experiments that simulate hours of
tape activity run in milliseconds of host time.  The clock also keeps an
:class:`EventLog` used by benchmarks to break total time down into mount,
seek and transfer components — the quantities the HEAVEN paper optimises.

The event log is the *sink* of the observability layer (:mod:`repro.obs`):
spans remember log cursors (append indices) at enter/exit and attribute
every charged virtual second to the span that was active when it was
charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence


class Event(NamedTuple):
    """One timed simulator event (immutable; a named tuple, because every
    charged second makes one).

    Attributes:
        time: virtual time at which the event *started* (seconds).
        duration: how long the event took (seconds).
        kind: event class, e.g. ``"mount"``, ``"seek"``, ``"transfer"``.
        device: identifier of the device that performed the action.
        detail: free-form human-readable description.
        bytes: payload size for transfer events, 0 otherwise.
    """

    time: float
    duration: float
    kind: str
    device: str
    detail: str = ""
    bytes: int = 0


@dataclass
class KindTotals:
    """Aggregate of all events of one kind inside a log window."""

    count: int = 0
    seconds: float = 0.0
    bytes: int = 0

    def add(self, event: Event) -> None:
        self.count += 1
        self.seconds += event.duration
        self.bytes += event.bytes


class EventLog:
    """Record of simulator events with per-kind aggregation.

    Positions in the log are *cursors*: the number of events appended
    before them, so ``[start, end)`` cursor pairs address windows.
    """

    def __init__(self) -> None:
        self._events: List[Event] = []

    def append(self, event: Event) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    # -- windows -------------------------------------------------------------

    def cursor(self) -> int:
        """Position after the newest event (use as window start)."""
        return len(self._events)

    def window(self, start: int, end: Optional[int] = None) -> List[Event]:
        """Events with cursor in ``[start, end)``."""
        return self._events[start:end]

    def aggregate(
        self, start: int = 0, end: Optional[int] = None
    ) -> Dict[str, KindTotals]:
        """Per-kind count/seconds/bytes totals over a cursor window."""
        out: Dict[str, KindTotals] = {}
        for event in self.window(start, end):
            totals = out.get(event.kind)
            if totals is None:
                totals = out[event.kind] = KindTotals()
            totals.add(event)
        return out

    # -- whole-log queries ----------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Return all events, optionally filtered by *kind*."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def count(self, kind: str) -> int:
        """Number of events of the given *kind*."""
        return sum(1 for e in self._events if e.kind == kind)

    def time_in(self, kind: str) -> float:
        """Total virtual seconds spent in events of *kind*."""
        return sum(e.duration for e in self._events if e.kind == kind)

    def bytes_in(self, kind: str) -> int:
        """Total bytes moved by events of *kind*."""
        return sum(e.bytes for e in self._events if e.kind == kind)

    def breakdown(
        self, start: int = 0, end: Optional[int] = None
    ) -> Dict[str, float]:
        """Map of event kind to total virtual seconds spent in it."""
        out: Dict[str, float] = {}
        for event in self.window(start, end):
            out[event.kind] = out.get(event.kind, 0.0) + event.duration
        return out

    def clear(self) -> None:
        self._events.clear()


@dataclass
class Timeline:
    """One device's private virtual timeline inside a parallel batch.

    The simulator normally runs on a single global clock; the parallel
    executor (Kapitel 3.7.3) instead gives every drive its own timeline,
    all rooted at the same global start instant.  While a timeline is
    active (see :meth:`SimClock.timeline`), charges advance *it* rather
    than the global clock, so events carry true per-device start times
    even though the host executes the drives one after another.

    Attributes:
        name: owning device id (used in reports).
        now: current local virtual time (absolute seconds, same origin as
            the global clock).
        started_at: local time when the timeline was (re)based.
        wait_seconds: time spent blocked on shared resources (robot arm)
            rather than doing device work.
    """

    name: str
    now: float = 0.0
    started_at: float = 0.0
    wait_seconds: float = 0.0

    @classmethod
    def at(cls, name: str, start: float) -> "Timeline":
        return cls(name=name, now=start, started_at=start)

    def rebase(self, start: float) -> None:
        """Restart the timeline at *start* (a new parallel batch)."""
        self.now = start
        self.started_at = start
        self.wait_seconds = 0.0

    @property
    def elapsed(self) -> float:
        """Local seconds since the last rebase (busy + waiting)."""
        return self.now - self.started_at

    @property
    def busy_seconds(self) -> float:
        """Local seconds spent doing device work (elapsed minus waits)."""
        return self.elapsed - self.wait_seconds


class SimClock:
    """Monotonically advancing virtual clock.

    The clock starts at 0.0 virtual seconds.  Devices call :meth:`charge`
    with a cost and a description; the clock advances and logs the event.
    ``on_advance`` callbacks let higher layers (e.g. the prefetcher) observe
    the passage of virtual time.

    **Two-clock design.** The global time only ever moves forward, but a
    :class:`Timeline` can be pushed with :meth:`timeline`; while active,
    :attr:`now`/:meth:`advance`/:meth:`charge` operate on the timeline's
    local time instead.  Listeners fire only on *global* advances (a
    timeline is a what-if lane; global time catches up once at
    :meth:`sync_to`), so time-driven layers never observe the same span
    twice.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self.log = EventLog()
        self._listeners: List[Callable[[float, float], None]] = []
        self._timelines: List[Timeline] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds (of the active timeline, if any)."""
        if self._timelines:
            return self._timelines[-1].now
        return self._now

    @property
    def global_now(self) -> float:
        """Global virtual time, ignoring any active timeline."""
        return self._now

    @property
    def active_timeline(self) -> Optional[Timeline]:
        return self._timelines[-1] if self._timelines else None

    def advance(self, seconds: float) -> float:
        """Advance the clock by *seconds* (must be >= 0); returns new time.

        Under an active timeline only that timeline advances and listeners
        are not notified — global time catches up at :meth:`sync_to`.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds!r}")
        if self._timelines:
            timeline = self._timelines[-1]
            timeline.now += seconds
            return timeline.now
        previous = self._now
        self._now += seconds
        for listener in self._listeners:
            listener(previous, self._now)
        return self._now

    def charge(
        self,
        seconds: float,
        kind: str,
        device: str,
        detail: str = "",
        nbytes: int = 0,
    ) -> Event:
        """Advance time by *seconds* and record an :class:`Event` for it."""
        event = Event(self.now, seconds, kind, device, detail, nbytes)
        self.advance(seconds)
        self.log.append(event)
        return event

    def timeline(self, timeline: Timeline) -> "_Lane":
        """Route charges to *timeline* for the duration of a ``with`` block.

        Nestable: an inner ``with`` (e.g. the assembly lane inside a drive
        sweep) shadows the outer timeline and restores it on exit.
        """
        return _Lane(self._timelines, timeline)

    def sync_to(self, timelines: Sequence[Timeline]) -> float:
        """Advance global time to the latest timeline end; returns new now.

        Called once at the end of a parallel batch: the wall-clock of the
        batch is the max of the per-device timelines (its makespan), and
        listeners observe that single jump.
        """
        if self._timelines:
            raise RuntimeError("sync_to must run outside any active timeline")
        target = max((t.now for t in timelines), default=self._now)
        if target > self._now:
            self.advance(target - self._now)
        return self._now

    def on_advance(self, listener: Callable[[float, float], None]) -> None:
        """Register *listener(old_time, new_time)* called on every advance."""
        self._listeners.append(listener)

    def reset(self) -> None:
        """Reset time to zero and clear the event log (listeners kept)."""
        self._now = 0.0
        self._timelines.clear()
        self.log.clear()


class _Lane:
    """The ``with`` block of :meth:`SimClock.timeline` (a plain class: the
    parallel executor enters one per streamed run)."""

    __slots__ = ("stack", "timeline")

    def __init__(self, stack: List[Timeline], timeline: Timeline) -> None:
        self.stack = stack
        self.timeline = timeline

    def __enter__(self) -> Timeline:
        self.stack.append(self.timeline)
        return self.timeline

    def __exit__(self, *_exc) -> None:
        popped = self.stack.pop()
        assert popped is self.timeline, "timeline stack corrupted"


@dataclass
class Stopwatch:
    """Measures elapsed virtual time between two points on a clock."""

    clock: SimClock
    started_at: float = field(default=0.0)

    def __post_init__(self) -> None:
        self.started_at = self.clock.now

    def restart(self) -> None:
        self.started_at = self.clock.now

    @property
    def elapsed(self) -> float:
        return self.clock.now - self.started_at
