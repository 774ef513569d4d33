"""Exporters: JSONL trace dumps, Prometheus text, ASCII flamegraphs.

All output is deterministic for a given span tree / registry state (keys
sorted, floats formatted with fixed precision) so tests can assert on it
and diffs between runs stay readable.  Wall-clock fields are the only
nondeterministic values; the JSONL exporter can omit them for stable
golden files.
"""

from __future__ import annotations

import json
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Sequence,
    Tuple,
)

from ..bench.chart import BAR, bar_chart
from ..tertiary.clock import KindTotals
from .metrics import MetricsRegistry
from .trace import Span

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .profiler import Profile

#: display grouping of raw event kinds into the paper's cost phases
KIND_PHASES: Dict[str, str] = {
    "exchange": "mount",
    "load": "mount",
    "seek": "seek",
    "rewind": "seek",
    "settle": "seek",
    "read": "transfer",
    "write": "transfer",
    "disk-read": "disk",
    "disk-write": "disk",
    "pipeline-stall": "stall",
}


def phase_of(kind: str) -> str:
    """Cost phase a raw event kind belongs to (``other`` if unknown)."""
    return KIND_PHASES.get(kind, "other")


# -- trace: JSONL -------------------------------------------------------------


def spans_to_jsonl(
    roots: Sequence[Span], include_wall: bool = True
) -> str:
    """One JSON object per span (depth-first), newline separated."""
    lines: List[str] = []
    for root in roots:
        for span in root.walk():
            record = span.to_dict()
            if not include_wall:
                record.pop("wall_elapsed_ms", None)
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines)


# -- metrics: Prometheus text exposition ---------------------------------------


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _render_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Text exposition format: ``# HELP`` / ``# TYPE`` / samples."""
    lines: List[str] = []
    for instrument in registry.collect():
        if instrument.description:
            lines.append(f"# HELP {instrument.name} {instrument.description}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        for series, labels, value in instrument.samples():
            lines.append(f"{series}{_render_labels(labels)} {_render_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- trace: ASCII span tree and virtual-time flamegraph -------------------------


def _phase_totals(aggregate: Dict[str, KindTotals]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for kind, totals in aggregate.items():
        phase = phase_of(kind)
        out[phase] = out.get(phase, 0.0) + totals.seconds
    return out


def render_span_tree(
    roots: Sequence[Span], include_wall: bool = True
) -> str:
    """Indented tree: one line per span with virtual (and wall) elapsed.

    Each line also shows the span's *self* cost phases — virtual seconds of
    the simulator events it charged directly, excluding child spans.
    """
    lines: List[str] = []
    for root in roots:
        _render_span(root, 0, lines, include_wall)
    return "\n".join(lines)


def _render_span(
    span: Span, depth: int, lines: List[str], include_wall: bool
) -> None:
    indent = "  " * depth
    parts = [f"{indent}{span.name}", f"virtual={span.virtual_elapsed:.3f}s"]
    if include_wall:
        parts.append(f"wall={span.wall_elapsed * 1000.0:.1f}ms")
    phases = _phase_totals(span.self_aggregate())
    self_text = " ".join(
        f"{phase}={seconds:.3f}s"
        for phase, seconds in sorted(phases.items())
        if seconds > 0
    )
    if self_text:
        parts.append(f"[{self_text}]")
    if span.attributes:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        parts.append(f"({attrs})")
    lines.append("  ".join(parts))
    for child in span.children:
        _render_span(child, depth + 1, lines, include_wall)


def render_flamegraph(
    roots: Sequence[Span], width: int = 48, clock: str = "virtual"
) -> str:
    """Sideways ASCII flamegraph scaled by one of the two span clocks.

    Every span gets one row; bar length is proportional to its elapsed
    time relative to the widest root, indentation mirrors depth.  With
    ``clock="virtual"`` (default) bars scale by simulated time; with
    ``clock="wall"`` by host wall time — the same tree, re-weighted, so
    modelled device cost and Python cost can be compared side by side.
    """
    if clock not in ("virtual", "wall"):
        raise ValueError(f"unknown flamegraph clock {clock!r}")
    rows: List[Tuple[int, Span]] = []

    def visit(span: Span, depth: int) -> None:
        rows.append((depth, span))
        for child in span.children:
            visit(child, depth + 1)

    def elapsed(span: Span) -> float:
        return span.virtual_elapsed if clock == "virtual" else span.wall_elapsed

    def fmt(seconds: float) -> str:
        if clock == "virtual":
            return f"{seconds:.3f}s"
        return f"{seconds * 1000.0:.2f}ms"

    for root in roots:
        visit(root, 0)
    if not rows:
        return "(no spans recorded)"
    peak = max(elapsed(span) for _depth, span in rows)
    name_width = max(len("  " * d + s.name) for d, s in rows)
    lines = []
    for depth, span in rows:
        label = ("  " * depth + span.name).ljust(name_width)
        length = 0 if peak <= 0 else int(round(width * elapsed(span) / peak))
        bar = BAR * max(length, 1 if elapsed(span) > 0 else 0)
        lines.append(f"{label} | {bar} {fmt(elapsed(span))}")
    return "\n".join(lines)


# -- profiler: wall-time stack flamegraph and hot-function tables ---------------


def _weight_format(profile: "Profile") -> "Callable[[float], str]":
    if profile.unit == "seconds":
        return lambda w: f"{w * 1000.0:.1f}ms"
    return lambda w: f"{w:.0f} ticks"


def render_profile_flamegraph(
    profile: "Profile", width: int = 48, max_rows: int = 40
) -> str:
    """ASCII flamegraph of a profiler session's weighted stack trie.

    Rows are stack-trie nodes (function names, root-first indentation),
    bars proportional to cumulative sample weight; sub-trees below
    ``max_rows`` are elided heaviest-first so the output stays scannable.
    """
    if not profile.stack_weights:
        return "(no profile samples recorded)"

    class _Node:
        __slots__ = ("name", "weight", "children")

        def __init__(self, name: str) -> None:
            self.name = name
            self.weight = 0.0
            self.children: Dict[str, "_Node"] = {}

    root = _Node("all")
    for stack, weight in profile.stack_weights.items():
        root.weight += weight
        node = root
        for frame_name, _file, _line in stack:
            child = node.children.get(frame_name)
            if child is None:
                child = node.children[frame_name] = _Node(frame_name)
            child.weight += weight
            node = child

    rows: List[Tuple[int, _Node]] = []

    def visit(node: _Node, depth: int) -> None:
        rows.append((depth, node))
        for child in sorted(
            node.children.values(), key=lambda n: (-n.weight, n.name)
        ):
            visit(child, depth + 1)

    visit(root, 0)
    rows = rows[:max_rows]
    fmt = _weight_format(profile)
    peak = root.weight
    name_width = max(len("  " * d + n.name) for d, n in rows)
    lines = []
    for depth, node in rows:
        label = ("  " * depth + node.name).ljust(name_width)
        length = 0 if peak <= 0 else int(round(width * node.weight / peak))
        bar = BAR * max(length, 1 if node.weight > 0 else 0)
        lines.append(f"{label} | {bar} {fmt(node.weight)}")
    if len(profile.stack_weights) and len(rows) == max_rows:
        lines.append(f"(truncated to the {max_rows} heaviest rows)")
    return "\n".join(lines)


def render_hot_functions(profile: "Profile", top: int = 10) -> str:
    """Bar chart of the profiler's top-N functions by self weight."""
    ranked = profile.hot_functions(top)
    if not ranked:
        return "(no profile samples recorded)"
    unit = "ms" if profile.unit == "seconds" else "ticks"
    scale = 1000.0 if profile.unit == "seconds" else 1.0
    labels = [stat.label for stat in ranked]
    values = [round(stat.self_weight * scale, 3) for stat in ranked]
    return bar_chart(
        f"top {len(ranked)} functions by self {profile.unit}",
        labels,
        values,
        unit=unit,
    )


def render_phase_breakdown(profile: "Profile") -> str:
    """Bar chart of host time per pipeline phase."""
    phases = profile.by_phase()
    total = sum(phases.values())
    if total <= 0:
        return "(no profile samples recorded)"
    unit = "ms" if profile.unit == "seconds" else "ticks"
    scale = 1000.0 if profile.unit == "seconds" else 1.0
    ranked = sorted(phases.items(), key=lambda item: (-item[1], item[0]))
    labels = [phase for phase, _weight in ranked]
    values = [round(weight * scale, 3) for _phase, weight in ranked]
    return bar_chart(
        f"host {profile.unit} by pipeline phase", labels, values, unit=unit
    )


def leaf_totals(roots: Sequence[Span]) -> Dict[str, KindTotals]:
    """Per-kind totals of every simulator event inside the given roots.

    Because all virtual time is charged through the clock's event log, the
    summed seconds equal the virtual time that elapsed inside the roots —
    the invariant ``python -m repro trace`` prints and CI asserts.
    """
    out: Dict[str, KindTotals] = {}
    for root in roots:
        for kind, totals in root.aggregate().items():
            mine = out.get(kind)
            if mine is None:
                mine = out[kind] = KindTotals()
            mine.count += totals.count
            mine.seconds += totals.seconds
            mine.bytes += totals.bytes
    return out


def render_leaf_table(roots: Sequence[Span], width: int = 48) -> str:
    """Bar chart of virtual seconds per leaf event kind (sorted, descending)."""
    totals = leaf_totals(roots)
    if not totals:
        return "(no simulator events recorded)"
    ranked = sorted(totals.items(), key=lambda item: -item[1].seconds)
    labels = [f"{kind} ({phase_of(kind)})" for kind, _t in ranked]
    values = [round(t.seconds, 3) for _k, t in ranked]
    return bar_chart(
        "virtual time by leaf event kind", labels, values, width=width, unit="s"
    )
