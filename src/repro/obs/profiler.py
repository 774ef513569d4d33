"""Wall-clock statistical profiler for the Python layers.

The span tracer makes *virtual* time exactly attributable; this module does
the same for *host* time.  A :class:`WallProfiler` samples the interpreter
stack while a workload runs and aggregates the samples three ways:

* **pipeline phases** — each sample is attributed to one of the phases the
  tracer already names (``stage`` / ``plan`` / ``decode`` / ``assemble``
  / ``cache`` / ``metadata``), via the innermost active span at sample time
  plus a frame-name override for the decode kernels that run inside wider
  spans;
* **hot functions** — per-function self and cumulative weight, for the
  "where does the host time actually go" question;
* **call stacks** — a weighted stack trie the exporters render as a
  wall-time flamegraph.

Two capture modes share one output format:

* ``signal`` — a real statistical profiler: ``signal.setitimer`` interrupts
  the main thread every few milliseconds and the handler records the
  interrupted stack.  Overhead is proportional to the sampling rate, not to
  the workload's call rate, so it stays far below the tracing-overhead gate.
* ``deterministic`` — a ``sys.setprofile`` hook that ticks once per call
  event and records every *N*-th tick, weighting samples in ticks instead
  of seconds.  The resulting profile is a pure function of the executed
  code, so tests can assert byte-identical profiles across runs.

The module also computes the **divergence metric**: host microseconds spent
per simulated virtual second, per span kind — the number that makes Python
overhead visible next to modelled device time (a phase whose µs/vs grows is
software getting slower against unchanged hardware).
"""

from __future__ import annotations

import signal
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .trace import Span, Tracer

#: the pipeline phases host time is attributed to (matching the span names
#: the tracer emits along the read path)
PHASES: Tuple[str, ...] = (
    "stage", "plan", "decode", "assemble", "cache", "metadata", "other",
)

#: span name -> phase; the *innermost* active span at sample time decides
SPAN_PHASES: Dict[str, str] = {
    "heaven.stage": "stage",
    "library.stage": "stage",
    "heaven.archive": "stage",
    "export.tct": "stage",
    "scheduler.plan": "plan",
    "heaven.drain": "decode",
    "heaven.assemble": "assemble",
    "cache.lookup": "cache",
    "heaven.read": "metadata",
    "heaven.read_many": "metadata",
    "heaven.read_frame": "metadata",
    "query": "metadata",
    "query.statement": "metadata",
}

#: function name -> phase override, matched innermost-first against the
#: sampled stack.  The decode kernels run *inside* stage/assemble spans, so
#: span attribution alone would hide them.
FRAME_PHASES: Dict[str, str] = {
    "_decode_tile": "decode",
    "decompress": "decode",
    "_materialize_from_run": "decode",
    "materialize_tile": "decode",
}


def phase_of_span(name: str) -> str:
    """Pipeline phase a span name belongs to (``other`` if unknown)."""
    return SPAN_PHASES.get(name, "other")


#: one resolved stack frame: (function, file, first line)
FrameKey = Tuple[str, str, int]


@dataclass
class FunctionStat:
    """Aggregated weight of one function across all samples."""

    name: str
    file: str
    line: int
    self_weight: float = 0.0
    cum_weight: float = 0.0

    @property
    def label(self) -> str:
        return f"{self.name} ({self.file}:{self.line})"


class Profile:
    """Aggregated samples of one profiling session.

    ``unit`` is ``"seconds"`` (signal mode, weights are sampling intervals)
    or ``"ticks"`` (deterministic mode, weights are call-event counts).
    Stacks are stored root-first.
    """

    def __init__(self, unit: str, mode: str, interval_s: float = 0.0) -> None:
        self.unit = unit
        self.mode = mode
        self.interval_s = interval_s
        self.samples = 0
        self.stack_weights: Dict[Tuple[FrameKey, ...], float] = {}
        self.phase_weights: Dict[str, float] = {}

    @property
    def total_weight(self) -> float:
        return sum(self.stack_weights.values())

    def record(
        self, stack: Tuple[FrameKey, ...], phase: str, weight: float
    ) -> None:
        self.samples += 1
        self.stack_weights[stack] = self.stack_weights.get(stack, 0.0) + weight
        self.phase_weights[phase] = self.phase_weights.get(phase, 0.0) + weight

    # -- aggregation ---------------------------------------------------------

    def by_phase(self) -> Dict[str, float]:
        """Weight per pipeline phase, every known phase present."""
        return {
            phase: self.phase_weights.get(phase, 0.0) for phase in PHASES
        }

    def hot_functions(self, top: int = 10) -> List[FunctionStat]:
        """Functions ranked by self weight (leaf frame of each sample)."""
        stats: Dict[FrameKey, FunctionStat] = {}
        for stack, weight in self.stack_weights.items():
            if not stack:
                continue
            seen: set = set()
            for frame in stack:
                if frame in seen:
                    continue  # recursion: count cumulative once per stack
                seen.add(frame)
                stat = stats.get(frame)
                if stat is None:
                    stat = stats[frame] = FunctionStat(*frame)
                stat.cum_weight += weight
            leaf = stack[-1]
            stats[leaf].self_weight += weight
        ranked = sorted(
            stats.values(),
            key=lambda s: (-s.self_weight, -s.cum_weight, s.name, s.file),
        )
        return ranked[:top]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (phases + top functions, not raw stacks)."""
        return {
            "unit": self.unit,
            "mode": self.mode,
            "samples": self.samples,
            "total_weight": self.total_weight,
            "phases": {
                phase: weight
                for phase, weight in sorted(self.by_phase().items())
            },
            "hot_functions": [
                {
                    "name": stat.name,
                    "file": stat.file,
                    "line": stat.line,
                    "self": stat.self_weight,
                    "cum": stat.cum_weight,
                }
                for stat in self.hot_functions()
            ],
        }


def _supports_signal_mode() -> bool:
    """Signal sampling needs setitimer and the main thread."""
    return (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


class ProfilerError(RuntimeError):
    """Raised on invalid profiler configuration or nested sessions."""


class WallProfiler:
    """Low-overhead statistical profiler with a deterministic fallback.

    Use as a context manager::

        profiler = WallProfiler(tracer=heaven.tracer)
        with profiler:
            workload()
        profile = profiler.profile

    Args:
        tracer: span tracer whose innermost active span names the pipeline
            phase of each sample (optional; samples fall back to frame-name
            attribution and ``other``).
        mode: ``"signal"``, ``"deterministic"`` or ``"auto"`` (signal when
            available, else deterministic).
        interval_s: sampling interval of signal mode.
        tick_every: deterministic mode records every N-th call event.
        max_depth: stack frames kept per sample (innermost wins truncation).
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        mode: str = "auto",
        interval_s: float = 0.005,
        tick_every: int = 64,
        max_depth: int = 64,
    ) -> None:
        if mode not in ("auto", "signal", "deterministic"):
            raise ProfilerError(f"unknown profiler mode {mode!r}")
        if interval_s <= 0:
            raise ProfilerError("interval_s must be positive")
        if tick_every < 1:
            raise ProfilerError("tick_every must be >= 1")
        self.tracer = tracer
        self.requested_mode = mode
        self.interval_s = interval_s
        self.tick_every = tick_every
        self.max_depth = max_depth
        self.profile: Optional[Profile] = None
        self._active = False
        self._mode = ""
        self._ticks = 0
        self._previous_handler: Any = None
        self._previous_profile_hook: Any = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def mode(self) -> str:
        """The capture mode actually used (resolved from ``auto``)."""
        if self._mode:
            return self._mode
        if self.requested_mode == "auto":
            return "signal" if _supports_signal_mode() else "deterministic"
        return self.requested_mode

    def start(self) -> None:
        if self._active:
            raise ProfilerError("profiler already running")
        mode = self.mode
        if mode == "signal" and not _supports_signal_mode():
            raise ProfilerError(
                "signal mode needs setitimer and the main thread"
            )
        self._mode = mode
        unit = "seconds" if mode == "signal" else "ticks"
        self.profile = Profile(
            unit, mode, self.interval_s if mode == "signal" else 0.0
        )
        self._ticks = 0
        self._active = True
        if mode == "signal":
            self._previous_handler = signal.signal(
                signal.SIGALRM, self._on_signal
            )
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        else:
            self._previous_profile_hook = sys.getprofile()
            sys.setprofile(self._on_profile_event)

    def stop(self) -> Profile:
        if not self._active:
            raise ProfilerError("profiler not running")
        if self._mode == "signal":
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
        else:
            sys.setprofile(self._previous_profile_hook)
            self._previous_profile_hook = None
        self._active = False
        self._mode = ""
        assert self.profile is not None
        return self.profile

    def __enter__(self) -> "WallProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- capture -------------------------------------------------------------

    def _on_signal(self, _signum: int, frame: Any) -> None:
        try:
            self._record(frame, self.interval_s)
        except Exception:  # pragma: no cover - a handler must never raise
            pass

    def _on_profile_event(self, frame: Any, event: str, _arg: Any) -> None:
        if event not in ("call", "c_call"):
            return
        self._ticks += 1
        if self._ticks % self.tick_every:
            return
        self._record(frame, 1.0)

    def _record(self, frame: Any, weight: float) -> None:
        stack: List[FrameKey] = []
        phase: Optional[str] = None
        depth = 0
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            if phase is None:
                # Innermost frame-name override wins (decode kernels).
                phase = FRAME_PHASES.get(code.co_name)
            stack.append((code.co_name, code.co_filename, code.co_firstlineno))
            frame = frame.f_back
            depth += 1
        if phase is None and self.tracer is not None:
            current = self.tracer.current
            if current is not None:
                phase = phase_of_span(current.name)
        stack.reverse()  # root-first
        assert self.profile is not None
        self.profile.record(tuple(stack), phase or "other", weight)


def profile_call(
    thunk: Callable[[], Any],
    tracer: Optional[Tracer] = None,
    mode: str = "auto",
    **kwargs: Any,
) -> Tuple[Any, Profile]:
    """Run *thunk* under a fresh :class:`WallProfiler`; returns (result, profile)."""
    profiler = WallProfiler(tracer=tracer, mode=mode, **kwargs)
    with profiler:
        result = thunk()
    assert profiler.profile is not None
    return result, profiler.profile


# -- divergence: host time vs virtual time ------------------------------------


@dataclass
class Divergence:
    """Host-vs-virtual cost of all spans of one kind."""

    kind: str
    spans: int = 0
    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    #: phase the kind belongs to, for grouping next to profiler output
    phase: str = ""

    @property
    def host_us_per_virtual_second(self) -> Optional[float]:
        """Host µs paid per simulated second; None when no virtual time
        elapsed inside this kind (pure-software spans)."""
        if self.virtual_seconds <= 0:
            return None
        return self.wall_seconds * 1e6 / self.virtual_seconds


def divergence_by_kind(roots: Sequence[Span]) -> Dict[str, Divergence]:
    """Per-span-kind host/virtual totals over a span forest.

    Sums include descendants of each span (a kind's wall time is what the
    host paid while that operation ran), so comparing kinds at different
    depths double-counts by design — the metric is per kind, not a
    partition of total wall time.
    """
    out: Dict[str, Divergence] = {}
    for root in roots:
        for span in root.walk():
            entry = out.get(span.name)
            if entry is None:
                entry = out[span.name] = Divergence(
                    kind=span.name, phase=phase_of_span(span.name)
                )
            entry.spans += 1
            entry.wall_seconds += span.wall_elapsed
            entry.virtual_seconds += span.virtual_elapsed
    return out


def render_divergence(roots: Sequence[Span]) -> str:
    """Table of host-µs-per-virtual-second per span kind (sorted by kind)."""
    from ..bench import ResultTable

    table = ResultTable(
        "Host time vs virtual time by span kind",
        ["span kind", "phase", "spans", "wall [ms]", "virtual [s]",
         "host µs / virtual s"],
    )
    divergence = divergence_by_kind(roots)
    for kind in sorted(divergence):
        entry = divergence[kind]
        ratio = entry.host_us_per_virtual_second
        table.add(
            entry.kind,
            entry.phase,
            entry.spans,
            entry.wall_seconds * 1000.0,
            entry.virtual_seconds,
            "n/a (no virtual time)" if ratio is None else f"{ratio:.1f}",
        )
    return table.render()
