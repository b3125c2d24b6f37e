"""Plain-text rendering of experiment results (tables and ASCII charts).

The environment has no plotting stack; every figure is emitted as an aligned
text table plus, for curves, a terminal-friendly ASCII chart so the *shape*
the paper shows (knees, peaks, bands) is visible at a glance.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence

_MARKS = "ox+*#@"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Aligned monospace table: str() of each cell, right-aligned numbers."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0 or 1e-3 <= abs(value) < 1e6:
            return f"{value:.4g}"
        return f"{value:.3e}"
    return str(value)


def ascii_chart(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    title: Optional[str] = None,
    log_y: bool = False,
) -> str:
    """Scatter-style ASCII chart of one or more y-series over shared x.

    Each series gets its own mark character; a legend is appended.  With
    ``log_y`` the vertical axis is log10-scaled (Figure 1/3 are log-scale
    histograms in the paper).
    """
    xs = [float(v) for v in x]
    if not xs:
        raise ValueError("no x values")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length {len(ys)} != x length {len(xs)}")

    def ty(v: float) -> float:
        if not log_y:
            return v
        return math.log10(v) if v > 0 else float("nan")

    all_y = [ty(float(v)) for ys in series.values() for v in ys]
    all_y = [v for v in all_y if v == v]
    if not all_y:
        raise ValueError("no finite y values")
    y_min, y_max = min(all_y), max(all_y)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(xs), max(xs)
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        mark = _MARKS[si % len(_MARKS)]
        for xv, yv in zip(xs, ys):
            yt = ty(float(yv))
            if yt != yt:
                continue
            col = round((xv - x_min) / (x_max - x_min) * (width - 1))
            row = round((yt - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][col] = mark

    top_label = f"{10**y_max:.3g}" if log_y else f"{y_max:.3g}"
    bot_label = f"{10**y_min:.3g}" if log_y else f"{y_min:.3g}"
    label_w = max(len(top_label), len(bot_label))
    lines: List[str] = []
    if title:
        lines.append(title)
    for i, row_chars in enumerate(grid):
        label = top_label if i == 0 else (bot_label if i == height - 1 else "")
        lines.append(f"{label.rjust(label_w)} |{''.join(row_chars)}")
    lines.append(" " * label_w + " +" + "-" * width)
    x_axis = f"{x_min:.3g}".ljust(width - 8) + f"{x_max:.3g}".rjust(8)
    lines.append(" " * label_w + "  " + x_axis)
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]} = {name}" for i, name in enumerate(series)
    )
    lines.append(" " * label_w + "  " + legend + ("   [log y]" if log_y else ""))
    return "\n".join(lines)
