"""Deterministic SVG figure emitters and plain-text tables.

Standalone SVG 1.1 documents built by string assembly: no drawing library,
no timestamps, fixed decimal formatting, so identical inputs give byte
identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "GROUP_COLORS",
    "Svg",
    "svg_bar_chart",
    "svg_curve_panels",
    "svg_group_bars",
    "svg_stack",
    "emit_svg_bar",
    "emit_svg_curves",
    "metrics_table",
]

_FONT = "font-family=\"Helvetica, Arial, sans-serif\""

# Figure geometry (px) and colours.
GROUP_COLORS = {"control": "#4472c4", "patient": "#c0504d"}
_BAR_WIDTH, _BAR_HEIGHT = 640, 360
_BAR_COLOR = "#4472c4"
_PANEL_WIDTH, _PANEL_HEIGHT = 320, 220
_PANEL_COLUMNS = 2
_GROUP_BARS_WIDTH, _GROUP_BARS_HEIGHT = 640, 300


def escape(text: str) -> str:
    """``xml.sax.saxutils.escape``: ``&``, ``>`` and ``<`` as entities, in that
    order. Importing saxutils loads urllib.request, http.client and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _f(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(v) for v in raw]


def _svg_open(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )


class Svg(str):
    """The text of an SVG document on a white background, which also keeps
    its size and the elements inside its root, so that ``svg_stack`` can
    compose documents without parsing them back."""

    def __new__(cls, width: int, height: int, elements: Sequence[str]):
        background = f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>'
        body = "\n" + "\n".join([background, *elements]) + "\n"
        doc = super().__new__(cls, _svg_open(width, height) + body + "</svg>\n")
        doc.width, doc.height, doc.body = width, height, body
        return doc


def svg_stack(docs: Sequence[Svg]) -> str:
    """One document showing ``docs`` one below the other, left-aligned."""
    inner = []
    top = 0
    for doc in docs:
        inner.append(f'<g transform="translate(0 {top})">{doc.body}</g>')
        top += doc.height
    return _svg_open(max(doc.width for doc in docs), top) + "".join(inner) + "</svg>\n"


def svg_bar_chart(
    values: Sequence[float],
    labels: Sequence[str],
    title: str = "",
    y_label: str = "",
) -> Svg:
    """Vertical bar chart with the exact value printed above each bar."""
    vals = [float(v) for v in values]
    if not vals or len(vals) != len(labels):
        raise ValueError("bar chart needs equal, nonempty values and labels")
    width, height = _BAR_WIDTH, _BAR_HEIGHT
    ml, mr, mt, mb = 64, 16, 36, 64
    w = width - ml - mr
    h = height - mt - mb
    vmax = max(max(vals), 0.0)
    vmax = vmax if vmax > 0 else 1.0
    slot = w / len(vals)
    bar_w = slot * 0.7
    parts = []
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" {_FONT} font-size="14" '
            f'text-anchor="middle">{escape(title)}</text>'
        )
    parts.append(
        f'<line x1="{ml}" y1="{mt + h}" x2="{ml + w}" y2="{mt + h}" stroke="#333"/>'
    )
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + h}" stroke="#333"/>')
    for tick in _ticks(0.0, vmax):
        y = mt + h - (tick / vmax) * h
        parts.append(
            f'<text x="{ml - 6}" y="{_f(y + 3)}" {_FONT} font-size="9" '
            f'text-anchor="end">{tick:.3g}</text>'
        )
    for i, (v, label) in enumerate(zip(vals, labels)):
        bh = (max(v, 0.0) / vmax) * h
        x = ml + i * slot + (slot - bar_w) / 2
        y = mt + h - bh
        parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(bar_w)}" height="{_f(bh)}" '
            f'fill="{_BAR_COLOR}"/>'
        )
        parts.append(
            f'<text x="{_f(x + bar_w / 2)}" y="{_f(y - 4)}" {_FONT} font-size="8" '
            f'text-anchor="middle">{v:.3g}</text>'
        )
        cx = x + bar_w / 2
        cy = mt + h + 10
        parts.append(
            f'<text x="{_f(cx)}" y="{_f(cy)}" {_FONT} font-size="8" '
            f'text-anchor="end" transform="rotate(-45 {_f(cx)} {_f(cy)})">'
            f"{escape(label)}</text>"
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{mt + h / 2:.1f}" {_FONT} font-size="11" '
            f'text-anchor="middle" transform="rotate(-90 14 {mt + h / 2:.1f})">'
            f"{escape(y_label)}</text>"
        )
    return Svg(width, height, parts)


def _polyline(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(f"{_f(x)},{_f(y)}" for x, y in zip(xs, ys))


def svg_curve_panels(
    panels: Sequence[tuple[str, Sequence[tuple[str, np.ndarray, np.ndarray, str]]]],
    fs: float,
    title: str = "",
    y_label: str = "",
) -> Svg:
    """Grid of line panels with shaded +-std bands, two panels a row.

    Each panel is (panel_title, curves); each curve is
    (label, mean, std, color). A zero std degenerates the band to the line.
    """
    if not panels:
        raise ValueError("no panels to draw")
    for _, curves in panels:
        if not curves:
            raise ValueError("panel without curves")
    panel_width, panel_height = _PANEL_WIDTH, _PANEL_HEIGHT
    n_cols = min(_PANEL_COLUMNS, len(panels))
    n_rows = (len(panels) + n_cols - 1) // n_cols
    width = n_cols * panel_width
    height = n_rows * panel_height + (30 if title else 0)
    top = 30 if title else 0
    parts = []
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" {_FONT} font-size="14" '
            f'text-anchor="middle">{escape(title)}</text>'
        )
    for pi, (panel_title, curves) in enumerate(panels):
        px = (pi % n_cols) * panel_width
        py = top + (pi // n_cols) * panel_height
        ml, mr, mt, mb = 52, 12, 24, 34
        w = panel_width - ml - mr
        h = panel_height - mt - mb
        n = len(curves[0][1])
        t = np.arange(n) / fs
        lo = min(float(np.min(m - s)) for _, m, s, _ in curves)
        hi = max(float(np.max(m + s)) for _, m, s, _ in curves)
        if hi <= lo:
            hi = lo + 1.0
        span = hi - lo

        def sx(x):
            return px + ml + (x / t[-1] if t[-1] > 0 else 0.0) * w

        def sy(y):
            return py + mt + (1.0 - (y - lo) / span) * h

        parts.append(
            f'<text x="{px + panel_width / 2:.1f}" y="{py + 14:.1f}" {_FONT} '
            f'font-size="11" text-anchor="middle">{escape(panel_title)}</text>'
        )
        parts.append(
            f'<line x1="{px + ml}" y1="{_f(py + mt + h)}" x2="{px + ml + w}" '
            f'y2="{_f(py + mt + h)}" stroke="#333"/>'
        )
        parts.append(
            f'<line x1="{px + ml}" y1="{_f(py + mt)}" x2="{px + ml}" '
            f'y2="{_f(py + mt + h)}" stroke="#333"/>'
        )
        for tick in _ticks(lo, hi, 4):
            parts.append(
                f'<text x="{px + ml - 4}" y="{_f(sy(tick) + 3)}" {_FONT} font-size="8" '
                f'text-anchor="end">{tick:.3g}</text>'
            )
        for tick in _ticks(0.0, float(t[-1]) if n > 1 else 1.0, 5):
            parts.append(
                f'<text x="{_f(sx(tick))}" y="{_f(py + mt + h + 12)}" {_FONT} '
                f'font-size="8" text-anchor="middle">{tick:.3g}</text>'
            )
        xs = np.array([sx(x) for x in t])
        for li, (label, mean, std, color) in enumerate(curves):
            mean = np.asarray(mean, dtype=float)
            std = np.asarray(std, dtype=float)
            upper = np.array([sy(v) for v in mean + std])
            lower = np.array([sy(v) for v in mean - std])
            band = (
                _polyline(xs, upper)
                + " "
                + _polyline(xs[::-1], lower[::-1])
            )
            parts.append(
                f'<polygon points="{band}" fill="{color}" fill-opacity="0.2" '
                f'stroke="none"/>'
            )
            line = np.array([sy(v) for v in mean])
            parts.append(
                f'<polyline points="{_polyline(xs, line)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{px + ml + 4}" y="{py + mt + 10 + 10 * li:.1f}" {_FONT} '
                f'font-size="8" fill="{color}">{escape(label)}</text>'
            )
        parts.append(
            f'<text x="{px + panel_width / 2:.1f}" y="{py + panel_height - 6:.1f}" '
            f'{_FONT} font-size="9" text-anchor="middle">time (s)</text>'
        )
        if y_label:
            parts.append(
                f'<text x="{px + 12}" y="{py + mt + h / 2:.1f}" {_FONT} font-size="9" '
                f'text-anchor="middle" '
                f'transform="rotate(-90 {px + 12} {py + mt + h / 2:.1f})">'
                f"{escape(y_label)}</text>"
            )
    return Svg(width, height, parts)


def svg_group_bars(
    entries: Sequence[tuple[str, str, float]],
    title: str = "",
    y_label: str = "",
) -> Svg:
    """Per-individual bars colored by group (GROUP_COLORS): (individual,
    group, value)."""
    if not entries:
        raise ValueError("no entries to draw")
    width, height = _GROUP_BARS_WIDTH, _GROUP_BARS_HEIGHT
    ml, mr, mt, mb = 56, 16, 36, 56
    w = width - ml - mr
    h = height - mt - mb
    vmax = max(v for _, _, v in entries)
    vmax = vmax if vmax > 0 else 1.0
    slot = w / len(entries)
    bar_w = slot * 0.72
    parts = []
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" {_FONT} font-size="13" '
            f'text-anchor="middle">{escape(title)}</text>'
        )
    parts.append(
        f'<line x1="{ml}" y1="{mt + h}" x2="{ml + w}" y2="{mt + h}" stroke="#333"/>'
    )
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + h}" stroke="#333"/>')
    for tick in _ticks(0.0, vmax, 5):
        y = mt + h - (tick / vmax) * h
        parts.append(
            f'<text x="{ml - 6}" y="{_f(y + 3)}" {_FONT} font-size="9" '
            f'text-anchor="end">{tick:.3g}</text>'
        )
    for i, (name, group, value) in enumerate(entries):
        bh = (max(value, 0.0) / vmax) * h
        x = ml + i * slot + (slot - bar_w) / 2
        y = mt + h - bh
        color = GROUP_COLORS.get(group, "#888888")
        parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(bar_w)}" height="{_f(bh)}" '
            f'fill="{color}"/>'
        )
        cx = x + bar_w / 2
        parts.append(
            f'<text x="{_f(cx)}" y="{_f(mt + h + 10)}" {_FONT} font-size="7" '
            f'text-anchor="end" transform="rotate(-60 {_f(cx)} {_f(mt + h + 10)})">'
            f"{escape(name)}</text>"
        )
    for gi, (group, color) in enumerate(sorted(GROUP_COLORS.items())):
        gx = ml + 8 + gi * 110
        parts.append(f'<rect x="{gx}" y="{mt - 14}" width="10" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{gx + 14}" y="{mt - 5}" {_FONT} font-size="9">{escape(group)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{mt + h / 2:.1f}" {_FONT} font-size="10" '
            f'text-anchor="middle" transform="rotate(-90 14 {mt + h / 2:.1f})">'
            f"{escape(y_label)}</text>"
        )
    return Svg(width, height, parts)


def emit_svg_bar(values, labels, path: str | Path, title: str = "", y_label: str = ""):
    """Write a bar chart SVG to ``path``."""
    Path(path).write_text(
        svg_bar_chart(values, labels, title=title, y_label=y_label),
        encoding="utf-8",
        newline="\n",
    )


def emit_svg_curves(panels, fs: float, path: str | Path, title: str = "", y_label: str = ""):
    """Write a curve-panel SVG to ``path``."""
    Path(path).write_text(
        svg_curve_panels(panels, fs, title=title, y_label=y_label),
        encoding="utf-8",
        newline="\n",
    )


def metrics_table(rows: Sequence[tuple[str, object]], header: tuple[str, ...]) -> str:
    """Fixed-width text table; floats rendered with 4 decimals."""
    txt_rows = []
    for name, metrics in rows:
        cells = [name]
        for col in header[1:]:
            v = getattr(metrics, col)
            cells.append(f"{v:.4f}" if isinstance(v, float) else str(v))
        txt_rows.append(cells)
    widths = [
        max(len(str(header[i])), *(len(r[i]) for r in txt_rows)) if txt_rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for r in txt_rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    return "\n".join(lines) + "\n"
