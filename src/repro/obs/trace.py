"""Span-based tracer carrying host wall-clock *and* simulated virtual time.

A :class:`Span` measures one operation twice:

* **wall time** via :func:`time.perf_counter` — what the host paid;
* **virtual time** via the shared :class:`~repro.tertiary.clock.SimClock` —
  what the simulated hardware paid.

Virtual-time attribution is exact and needs no per-event bookkeeping: every
charged virtual second is an :class:`~repro.tertiary.clock.Event` in the
clock's log, and a span simply remembers the absolute log cursors at enter
and exit.  The event log therefore *is* the sink feeding the tracer — leaf
"spans" (mount/seek/transfer/…) are synthesised from the events inside a
span's window, and a span's :meth:`Span.self_aggregate` subtracts the
windows of its children.

The tracer is **zero-cost when disabled**: ``span()`` hands out a shared
no-op span and records nothing.  Cost accounting never depends on it:
:class:`~repro.core.admission.RetrievalReport` is built from event-log
windows directly.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Union

from ..tertiary.clock import Event, EventLog, KindTotals, SimClock


class Span:
    """One traced operation: a named window of wall and virtual time."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "wall_start",
        "wall_end",
        "virtual_start",
        "virtual_end",
        "log_start",
        "log_end",
        "children",
        "_log",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int] = None,
        attributes: Optional[Dict[str, Any]] = None,
        log: Optional[EventLog] = None,
        virtual_start: float = 0.0,
        log_start: int = 0,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = attributes if attributes is not None else {}
        self.wall_start = time.perf_counter()
        self.wall_end: Optional[float] = None
        self.virtual_start = virtual_start
        self.virtual_end: Optional[float] = None
        self.log_start = log_start
        self.log_end: Optional[int] = None
        self.children: List["Span"] = []
        self._log = log

    # -- lifecycle -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return True

    @property
    def finished(self) -> bool:
        return self.wall_end is not None

    def finish(self, virtual_now: float, log_cursor: int) -> None:
        if self.finished:
            return
        self.wall_end = time.perf_counter()
        self.virtual_end = virtual_now
        self.log_end = log_cursor

    def set(self, **attributes: Any) -> None:
        """Attach (or overwrite) span attributes."""
        self.attributes.update(attributes)

    # -- measurements --------------------------------------------------------

    @property
    def wall_elapsed(self) -> float:
        end = self.wall_end if self.wall_end is not None else time.perf_counter()
        return end - self.wall_start

    @property
    def virtual_elapsed(self) -> float:
        if self.virtual_end is None:
            return 0.0
        return self.virtual_end - self.virtual_start

    def events(self) -> List[Event]:
        """Simulator events charged inside this span's window."""
        if self._log is None:
            return []
        return self._log.window(self.log_start, self.log_end)

    def aggregate(self) -> Dict[str, KindTotals]:
        """Per-kind totals over every event in the window (children too)."""
        if self._log is None:
            return {}
        return self._log.aggregate(self.log_start, self.log_end)

    def self_aggregate(self) -> Dict[str, KindTotals]:
        """Per-kind totals of events *not* covered by any child span."""
        if self._log is None:
            return {}
        out: Dict[str, KindTotals] = {}
        for start, end in self._self_windows():
            for kind, totals in self._log.aggregate(start, end).items():
                mine = out.get(kind)
                if mine is None:
                    mine = out[kind] = KindTotals()
                mine.count += totals.count
                mine.seconds += totals.seconds
                mine.bytes += totals.bytes
        return out

    def _self_windows(self) -> Iterator[tuple]:
        """Cursor ranges belonging to this span but to none of its children."""
        position = self.log_start
        for child in sorted(self.children, key=lambda s: s.log_start):
            if child.log_start > position:
                yield (position, child.log_start)
            if child.log_end is not None:
                position = max(position, child.log_end)
        end = self.log_end if self.log_end is not None else (
            self._log.cursor() if self._log is not None else position
        )
        if end > position:
            yield (position, end)

    def count(self, kind: str) -> int:
        totals = self.aggregate().get(kind)
        return totals.count if totals is not None else 0

    def time_in(self, kind: str) -> float:
        totals = self.aggregate().get(kind)
        return totals.seconds if totals is not None else 0.0

    def bytes_in(self, kind: str) -> int:
        totals = self.aggregate().get(kind)
        return totals.bytes if totals is not None else 0

    # -- traversal / export ---------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (one node; children listed by id)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": dict(self.attributes),
            "virtual_start_s": round(self.virtual_start, 9),
            "virtual_elapsed_s": round(self.virtual_elapsed, 9),
            "wall_elapsed_ms": round(self.wall_elapsed * 1000.0, 3),
            "breakdown": {
                kind: {
                    "count": totals.count,
                    "seconds": round(totals.seconds, 9),
                    "bytes": totals.bytes,
                }
                for kind, totals in sorted(self.self_aggregate().items())
            },
            "children": [child.span_id for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, virtual={self.virtual_elapsed:.3f}s, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """Shared do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    enabled = False
    finished = True
    name = "noop"
    span_id = 0
    parent_id = None
    attributes: Dict[str, Any] = {}
    children: List[Span] = []
    wall_elapsed = 0.0
    virtual_elapsed = 0.0

    def set(self, **attributes: Any) -> None:
        pass

    def events(self) -> List[Event]:
        return []

    def aggregate(self) -> Dict[str, KindTotals]:
        return {}

    def self_aggregate(self) -> Dict[str, KindTotals]:
        return {}

    def count(self, kind: str) -> int:
        return 0

    def time_in(self, kind: str) -> float:
        return 0.0

    def bytes_in(self, kind: str) -> int:
        return 0

    def walk(self) -> Iterator[Span]:
        return iter(())

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Context-propagating tracer over one simulated clock.

    Spans opened while another span is active become its children, so one
    query naturally yields the tree ``query → heaven.stage → cache.lookup /
    scheduler.plan / library.stage`` without any explicit plumbing.

    Finished *root* spans are retained (up to ``max_finished``, with a drop
    counter) only while :attr:`enabled` — a disabled tracer allocates
    nothing per operation.
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        enabled: bool = False,
        max_finished: int = 1024,
    ) -> None:
        if max_finished < 1:
            raise ValueError("max_finished must be >= 1")
        self.clock = clock
        self.enabled = enabled
        self.max_finished = max_finished
        self.roots: List[Span] = []
        self.dropped_roots = 0
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    def bind_clock(self, clock: SimClock) -> None:
        """Attach (or swap) the virtual clock feeding span windows."""
        self.clock = clock

    @property
    def current(self) -> Optional[Span]:
        """Innermost active span, if tracing is enabled and one is open."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attributes: Any) -> ContextManager[Union[Span, _NoopSpan]]:
        """Open a span around a ``with`` block; a disabled tracer hands out
        the shared no-op span itself, so it allocates nothing.

        Args:
            name: span name (dotted, e.g. ``"heaven.read"``).
            attributes: static key/value annotations.
        """
        return self._span(name, attributes) if self.enabled else NOOP_SPAN

    @contextmanager
    def _span(self, name: str, attributes: Dict[str, Any]) -> Iterator[Span]:
        span = self._start(name, attributes)
        try:
            yield span
        finally:
            self._finish(span)

    def clear(self) -> None:
        """Drop retained roots and the drop counter (active spans stay)."""
        self.roots.clear()
        self.dropped_roots = 0

    # -- internals -----------------------------------------------------------

    def _start(self, name: str, attributes: Dict[str, Any]) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            attributes=attributes,
            log=self.clock.log if self.clock is not None else None,
            virtual_start=self.clock.now if self.clock is not None else 0.0,
            log_start=self.clock.log.cursor() if self.clock is not None else 0,
        )
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.finish(
            virtual_now=self.clock.now if self.clock is not None else 0.0,
            log_cursor=self.clock.log.cursor() if self.clock is not None else 0,
        )
        if self.enabled and self._stack and self._stack[-1] is span:
            self._stack.pop()
            if span.parent_id is None:
                if len(self.roots) >= self.max_finished:
                    self.roots.pop(0)
                    self.dropped_roots += 1
                self.roots.append(span)


#: module-level disabled tracer for components constructed without one
null_tracer = Tracer(enabled=False)
