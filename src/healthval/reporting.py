"""Report rendering: deterministic JSON, plain-text tables, inline SVG.

Everything here is a pure function of its inputs so identical runs emit
byte-identical files: keys are sorted, floats use Python's shortest
round-trip repr, SVG is assembled from fixed-precision coordinates with
no timestamps or external resources.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np


def dumps(payload) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.

    numpy arrays and scalars are written as their Python values
    (``np.float64`` is a ``float`` and is written as one).  NaN and
    infinities raise ``ValueError``: RFC 8259 JSON has no token for them.
    """
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False, default=_numpy_value) + "\n"


def _numpy_value(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table with a dashed header rule."""
    cells = [[str(h) for h in headers]] + [[_cell(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return str(value)


_SVG_STYLE = 'font-family="monospace" font-size="11"'
#: Canvas size and plot margins, shared by both charts.
_WIDTH, _HEIGHT = 760.0, 360.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 58.0, 12.0, 34.0, 40.0
_PLOT_W, _PLOT_H = _WIDTH - _LEFT - _RIGHT, _HEIGHT - _TOP - _BOTTOM
_Y_AXIS = (
    f'<line x1="{_LEFT:.1f}" y1="{_TOP:.1f}" x2="{_LEFT:.1f}" y2="{_HEIGHT - _BOTTOM:.1f}" '
    f'stroke="black" stroke-width="1"/>'
)


def _x_axis(y: str) -> str:
    """The horizontal axis across the plot at the formatted height ``y``."""
    return (
        f'<line x1="{_LEFT:.1f}" y1="{y}" x2="{_WIDTH - _RIGHT:.1f}" y2="{y}" '
        f'stroke="black" stroke-width="1"/>'
    )


def _svg(title: str, axes: Sequence[str], range_text: str, body: Sequence[str]) -> str:
    """One chart: canvas, title, ``axes``, the x label t, ``range_text`` at the top left, ``body``."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
        f'<text x="{_LEFT:.1f}" y="18" {_SVG_STYLE}>{_esc(title)}</text>',
        *axes,
        f'<text x="{_LEFT:.1f}" y="{_HEIGHT - 8:.1f}" {_SVG_STYLE}>t</text>',
        f'<text x="6" y="{_TOP:.1f}" {_SVG_STYLE}>{range_text}</text>',
        *body,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def svg_bar_chart(values, title: str) -> str:
    """Self-contained SVG bar chart of per-date BE values (bars from the zero line)."""
    values = np.asarray(values, dtype=float)
    lo = min(0.0, float(values.min())) if len(values) else 0.0
    hi = max(0.0, float(values.max())) if len(values) else 1.0
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo

    def y_of(v: float) -> float:
        return _TOP + (hi - v) / span * _PLOT_H

    n = max(len(values), 1)
    step = _PLOT_W / n
    bar_w = max(step * 0.8, 0.5)
    body = []
    for idx, value in enumerate(values):
        x = _LEFT + idx * step + (step - bar_w) / 2.0
        y0, y1 = y_of(max(value, 0.0)), y_of(min(value, 0.0))
        body.append(
            f'<rect x="{x:.2f}" y="{y0:.2f}" width="{bar_w:.2f}" height="{max(y1 - y0, 0.0):.2f}" '
            f'fill="#4477aa"><title>t={idx}: {float(value)!r}</title></rect>'
        )
    if len(values) > 1:
        for tick in range(0, len(values), max(1, len(values) // 10)):
            x = _LEFT + tick * step + step / 2.0
            body.append(
                f'<text x="{x:.2f}" y="{_HEIGHT - _BOTTOM + 14:.1f}" text-anchor="middle" '
                f"{_SVG_STYLE}>{tick}</text>"
            )
    return _svg(title, [_x_axis(f"{y_of(0.0):.2f}"), _Y_AXIS], f"BE: [{lo:.6g}, {hi:.6g}]", body)


def svg_line_chart(series: Mapping[str, Sequence[float]], title: str) -> str:
    """Self-contained SVG line chart of a few named series over t on a shared grid."""
    colors = ("#000000", "#cc3311", "#4477aa", "#228833")
    arrays = {name: np.asarray(vals, dtype=float) for name, vals in series.items()}
    all_vals = np.concatenate(list(arrays.values())) if arrays else np.zeros(1)
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi == lo:
        hi = lo + 1.0
    n = max(max((len(a) for a in arrays.values()), default=1) - 1, 1)

    def x_of(idx: int) -> float:
        return _LEFT + idx / n * _PLOT_W

    def y_of(v: float) -> float:
        return _TOP + (hi - v) / (hi - lo) * _PLOT_H

    body = []
    for pos, (name, vals) in enumerate(arrays.items()):
        color = colors[pos % len(colors)]
        points = " ".join(f"{x_of(i):.2f},{y_of(v):.2f}" for i, v in enumerate(vals))
        body.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        body.append(
            f'<text x="{_WIDTH - _RIGHT - 4:.1f}" y="{_TOP + 14 * (pos + 1):.1f}" '
            f'text-anchor="end" fill="{color}" {_SVG_STYLE}>{_esc(name)}</text>'
        )
    axes = [_Y_AXIS, _x_axis(f"{_HEIGHT - _BOTTOM:.1f}")]
    return _svg(title, axes, f"range [{lo:.6g}, {hi:.6g}]", body)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
