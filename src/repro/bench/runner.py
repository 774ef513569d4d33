"""Experiment harness: tables, series and ASCII rendering.

Every benchmark builds a :class:`ResultTable` and prints it the way the
dissertation's evaluation chapter presents its measurements, so the shape of
each result (who wins, by what factor, where the crossover sits) is visible
directly in the pytest-benchmark output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List


@dataclass
class ResultTable:
    """A titled table of experiment rows."""

    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        """ASCII-render the table with aligned columns."""
        cells = [self.columns] + [
            [_format(value) for value in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def speedup(baseline: float, improved: float) -> float:
    """Baseline-over-improved ratio (>1 means the improvement wins)."""
    if improved <= 0:
        return float("inf")
    return baseline / improved

