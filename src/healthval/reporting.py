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

    NaN and infinities raise ``ValueError``: RFC 8259 JSON has no token for them.
    """
    return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _plain(value):
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


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


def svg_bar_chart(values, title: str, x_label: str = "t", y_label: str = "value") -> str:
    """Self-contained SVG bar chart of indexed values (bars from the zero line)."""
    values = np.asarray(values, dtype=float)
    width, height = 760.0, 360.0
    left, right, top, bottom = 58.0, 12.0, 34.0, 40.0
    plot_w, plot_h = width - left - right, height - top - bottom
    lo = min(0.0, float(values.min())) if len(values) else 0.0
    hi = max(0.0, float(values.max())) if len(values) else 1.0
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo

    def y_of(v: float) -> float:
        return top + (hi - v) / span * plot_h

    n = max(len(values), 1)
    step = plot_w / n
    bar_w = max(step * 0.8, 0.5)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{left:.1f}" y="18" {_SVG_STYLE}>{_esc(title)}</text>',
        f'<line x1="{left:.1f}" y1="{y_of(0.0):.2f}" x2="{width - right:.1f}" '
        f'y2="{y_of(0.0):.2f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{height - bottom:.1f}" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{left:.1f}" y="{height - 8:.1f}" {_SVG_STYLE}>{_esc(x_label)}</text>',
        f'<text x="6" y="{top:.1f}" {_SVG_STYLE}>{_esc(y_label)}: '
        f"[{lo:.6g}, {hi:.6g}]</text>",
    ]
    for idx, value in enumerate(values):
        x = left + idx * step + (step - bar_w) / 2.0
        y0, y1 = y_of(max(value, 0.0)), y_of(min(value, 0.0))
        parts.append(
            f'<rect x="{x:.2f}" y="{y0:.2f}" width="{bar_w:.2f}" height="{max(y1 - y0, 0.0):.2f}" '
            f'fill="#4477aa"><title>t={idx}: {float(value)!r}</title></rect>'
        )
    if len(values) > 1:
        for tick in range(0, len(values), max(1, len(values) // 10)):
            x = left + tick * step + step / 2.0
            parts.append(
                f'<text x="{x:.2f}" y="{height - bottom + 14:.1f}" text-anchor="middle" '
                f"{_SVG_STYLE}>{tick}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_line_chart(series: Mapping[str, Sequence[float]], title: str, x_label: str = "t") -> str:
    """Self-contained SVG line chart for a few named series on a shared grid."""
    colors = ("#000000", "#cc3311", "#4477aa", "#228833")
    arrays = {name: np.asarray(vals, dtype=float) for name, vals in series.items()}
    width, height = 760.0, 360.0
    left, right, top, bottom = 58.0, 12.0, 34.0, 40.0
    plot_w, plot_h = width - left - right, height - top - bottom
    all_vals = np.concatenate(list(arrays.values())) if arrays else np.zeros(1)
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi == lo:
        hi = lo + 1.0
    n = max(max((len(a) for a in arrays.values()), default=1) - 1, 1)

    def x_of(idx: int) -> float:
        return left + idx / n * plot_w

    def y_of(v: float) -> float:
        return top + (hi - v) / (hi - lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{left:.1f}" y="18" {_SVG_STYLE}>{_esc(title)}</text>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{height - bottom:.1f}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.1f}" y1="{height - bottom:.1f}" x2="{width - right:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black" stroke-width="1"/>',
        f'<text x="{left:.1f}" y="{height - 8:.1f}" {_SVG_STYLE}>{_esc(x_label)}</text>',
        f'<text x="6" y="{top:.1f}" {_SVG_STYLE}>range [{lo:.6g}, {hi:.6g}]</text>',
    ]
    for pos, (name, vals) in enumerate(arrays.items()):
        color = colors[pos % len(colors)]
        points = " ".join(f"{x_of(i):.2f},{y_of(v):.2f}" for i, v in enumerate(vals))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - right - 4:.1f}" y="{top + 14 * (pos + 1):.1f}" '
            f'text-anchor="end" fill="{color}" {_SVG_STYLE}>{_esc(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
