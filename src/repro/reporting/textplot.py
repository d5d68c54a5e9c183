"""Terminal plotting: line charts, CDFs, sparklines.

Good enough to eyeball the shapes the paper's figures show — trends,
anomaly spikes, method-line separation, CDF knees — directly in a test log
or benchmark output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
#: Rows of a line chart's plot area.
_LINE_HEIGHT = 14
#: Columns and rows of a CDF chart's plot area.
_CDF_WIDTH = 60
_CDF_HEIGHT = 10


def sparkline(values: Sequence[float]) -> str:
    """A one-line block-character rendering of *values*.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▅█'
    """
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span == 0:
        return _SPARK_LEVELS[0] * len(values)
    out = []
    for value in values:
        index = int((value - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[index])
    return "".join(out)


def _resample(values: Sequence[float], width: int) -> List[float]:
    """Reduce *values* to *width* points by bucket-averaging."""
    if len(values) <= width:
        return list(values)
    out: List[float] = []
    for index in range(width):
        lo = index * len(values) // width
        hi = max(lo + 1, (index + 1) * len(values) // width)
        bucket = values[lo:hi]
        out.append(sum(bucket) / len(bucket))
    return out


def line_chart(
    series: Dict[str, Sequence[float]],
    width: int = 72,
    x_labels: Optional[Tuple[str, str]] = None,
    y_format: str = "{:.0f}",
) -> str:
    """A multi-series ASCII line chart; each series gets its own glyph."""
    if not series:
        return "(empty chart)"
    glyphs = "*o+x#@%&"
    resampled = {
        label: _resample(values, width) for label, values in series.items()
    }
    all_values = [v for values in resampled.values() for v in values]
    lo, hi = min(all_values), max(all_values)
    if hi == lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(_LINE_HEIGHT)]
    for series_index, (label, values) in enumerate(resampled.items()):
        glyph = glyphs[series_index % len(glyphs)]
        for x, value in enumerate(values):
            y = int((value - lo) / (hi - lo) * (_LINE_HEIGHT - 1))
            grid[_LINE_HEIGHT - 1 - y][x] = glyph
    label_width = max(
        len(y_format.format(hi)), len(y_format.format(lo))
    )
    lines = []
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = y_format.format(hi)
        elif row_index == _LINE_HEIGHT - 1:
            label = y_format.format(lo)
        else:
            label = ""
        lines.append(f"{label:>{label_width}} |" + "".join(row))
    lines.append(" " * label_width + " +" + "-" * width)
    if x_labels:
        left, right = x_labels
        pad = max(0, width - len(left) - len(right))
        lines.append(
            " " * (label_width + 2) + left + " " * pad + right
        )
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {label}"
        for i, label in enumerate(resampled)
    )
    lines.append(" " * (label_width + 2) + legend)
    return "\n".join(lines)


def cdf_chart(
    points: Sequence[Tuple[float, float]],
    marker: Optional[float] = None,
    marker_label: str = "",
) -> str:
    """An ASCII CDF plot from ``(x, P(X<=x))`` points.

    *marker* draws a vertical line (e.g. the Fig. 8 P80 duration).
    """
    if not points:
        return "(empty cdf)"
    xs = [p[0] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    grid = [[" "] * _CDF_WIDTH for _ in range(_CDF_HEIGHT)]
    marker_col = None
    if marker is not None:
        marker_col = int((marker - x_lo) / (x_hi - x_lo) * (_CDF_WIDTH - 1))
        marker_col = min(max(marker_col, 0), _CDF_WIDTH - 1)
        for row in grid:
            row[marker_col] = ":"
    for x, y in points:
        col = int((x - x_lo) / (x_hi - x_lo) * (_CDF_WIDTH - 1))
        row = int(y * (_CDF_HEIGHT - 1))
        grid[_CDF_HEIGHT - 1 - row][col] = "*"
    lines = ["1.0 |" + "".join(row) for row in grid[:1]]
    for row in grid[1:-1]:
        lines.append("    |" + "".join(row))
    lines.append("0.0 |" + "".join(grid[-1]))
    lines.append("    +" + "-" * _CDF_WIDTH)
    footer = f"    x: {x_lo:.0f} .. {x_hi:.0f}"
    if marker is not None:
        footer += f"   (: marks {marker_label or marker})"
    lines.append(footer)
    return "\n".join(lines)
