"""ASCII series charts for benchmark output.

The dissertation presents its sweeps as figures; these helpers render the
same series as terminal bar charts so the *shape* (U-curves, crossovers,
saturation) is visible directly in the pytest summary without plotting
dependencies.
"""

from __future__ import annotations

from typing import Sequence

BAR = "#"


def bar_chart(
    title: str,
    labels: Sequence[object],
    values: Sequence[float],
    width: int = 48,
    unit: str = "",
) -> str:
    """Horizontal bar chart: one row per (label, value)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not values:
        return title
    peak = max(values)
    label_texts = [str(label) for label in labels]
    label_width = max(len(t) for t in label_texts)
    lines = [title, "-" * len(title)]
    for text, value in zip(label_texts, values):
        length = 0 if peak <= 0 else int(round(width * value / peak))
        bar = BAR * max(length, 1 if value > 0 else 0)
        lines.append(f"{text.rjust(label_width)} | {bar} {value:g}{unit}")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line trend glyph string (8 levels)."""
    glyphs = " .:-=+*#"
    if not values:
        return ""
    low = min(values)
    high = max(values)
    if high == low:
        return glyphs[4] * len(values)
    out = []
    for value in values:
        level = int((value - low) / (high - low) * (len(glyphs) - 1))
        out.append(glyphs[level])
    return "".join(out)
