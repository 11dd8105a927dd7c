"""Deterministic SVG figure emitters and plain-text tables.

Standalone SVG 1.1 documents built by string assembly: no drawing library,
no timestamps, fixed decimal formatting, so identical inputs give byte
identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .model import GROUPS

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


class _Geometry(NamedTuple):
    """One figure kind: size (px), margins (left, right, top, bottom) and the
    font sizes of its text; a bar figure also sets its bar's share of a slot
    and the angle of the labels under the bars."""

    size: tuple[int, int]
    margins: tuple[int, int, int, int]
    title: int
    ticks: int  # y tick values; the legend
    labels: int  # bar labels and values; curve labels and x tick values
    axis: int  # axis labels
    heading: int = 0  # panel titles
    bar_share: float = 0.0
    label_angle: int = 0


# Figure geometry (px), font sizes and colours. A curve figure sets the
# geometry of each of its panels.
_GEOMETRY = {
    "bar": _Geometry((640, 360), (64, 16, 36, 64), 14, 9, 8, 11, bar_share=0.7, label_angle=-45),
    "group_bars": _Geometry(
        (640, 300), (56, 16, 36, 56), 13, 9, 7, 10, bar_share=0.72, label_angle=-60
    ),
    "panel": _Geometry((320, 220), (52, 12, 24, 34), 14, 8, 8, 9, heading=11),
}
_PANEL_COLUMNS = 2
GROUP_COLORS = dict(zip(GROUPS, ("#4472c4", "#c0504d")))
_BAR_COLOR = "#4472c4"


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


def _text(
    x, y, size: int, text: str, anchor: str | None = "middle", angle=None, fill=None
) -> str:
    """One escaped text element at (x, y), which the callers format; an
    ``angle`` rotates it about that point."""
    attrs = f'x="{x}" y="{y}" {_FONT} font-size="{size}"'
    if anchor:
        attrs += f' text-anchor="{anchor}"'
    if fill:
        attrs += f' fill="{fill}"'
    if angle is not None:
        attrs += f' transform="rotate({angle} {x} {y})"'
    return f"<text {attrs}>{escape(text)}</text>"


def _rect(x, y, width, height, fill: str) -> str:
    return f'<rect x="{x}" y="{y}" width="{width}" height="{height}" fill="{fill}"/>'


def _frame(left, right, top, bottom, ticks, size: int, gap: int) -> list[str]:
    """The bottom and left axes of the box from (left, top) to (right,
    bottom), and each (y, value) tick's value right-aligned ``gap`` px left
    of the y axis."""
    return [
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="#333"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="#333"/>',
        *(_text(left - gap, _f(y + 3), size, f"{tick:.3g}", "end") for y, tick in ticks),
    ]


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
        body = "\n" + "\n".join([_rect(0, 0, width, height, "white"), *elements]) + "\n"
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


def _bars(kind: str, bars, title: str, y_label: str, values=False, legend=False) -> Svg:
    """(label, value, colour) bars up from zero on a figure of ``kind``, each
    label turned under its bar; ``values`` prints each value above its bar,
    ``legend`` names the colours of GROUP_COLORS."""
    g = _GEOMETRY[kind]
    width, height = g.size
    ml, mr, mt, mb = g.margins
    w = width - ml - mr
    h = height - mt - mb
    vmax = max(v for _, v, _ in bars)
    vmax = vmax if vmax > 0 else 1.0
    slot = w / len(bars)
    bar_w = slot * g.bar_share
    parts = [_text(f"{width / 2:.1f}", 20, g.title, title)] if title else []
    ticks = [(mt + h - (tick / vmax) * h, tick) for tick in _ticks(0.0, vmax)]
    parts += _frame(ml, ml + w, mt, mt + h, ticks, g.ticks, 6)
    for i, (label, value, color) in enumerate(bars):
        bh = (max(value, 0.0) / vmax) * h
        x = ml + i * slot + (slot - bar_w) / 2
        y = mt + h - bh
        parts.append(_rect(_f(x), _f(y), _f(bar_w), _f(bh), color))
        if values:
            parts.append(_text(_f(x + bar_w / 2), _f(y - 4), g.labels, f"{value:.3g}"))
        parts.append(
            _text(_f(x + bar_w / 2), _f(mt + h + 10), g.labels, label, "end", g.label_angle)
        )
    if legend:
        for gi, (group, color) in enumerate(sorted(GROUP_COLORS.items())):
            gx = ml + 8 + gi * 110
            parts.append(_rect(gx, mt - 14, 10, 10, color))
            parts.append(_text(gx + 14, mt - 5, g.ticks, group, None))
    if y_label:
        parts.append(_text(14, f"{mt + h / 2:.1f}", g.axis, y_label, angle=-90))
    return Svg(width, height, parts)


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
    bars = [(label, v, _BAR_COLOR) for v, label in zip(vals, labels)]
    return _bars("bar", bars, title, y_label, values=True)


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
    g = _GEOMETRY["panel"]
    panel_width, panel_height = g.size
    ml, mr, mt, mb = g.margins
    w = panel_width - ml - mr
    h = panel_height - mt - mb
    n_cols = min(_PANEL_COLUMNS, len(panels))
    n_rows = (len(panels) + n_cols - 1) // n_cols
    width = n_cols * panel_width
    top = 30 if title else 0
    height = n_rows * panel_height + top
    parts = [_text(f"{width / 2:.1f}", 20, g.title, title)] if title else []
    for pi, (panel_title, curves) in enumerate(panels):
        px = (pi % n_cols) * panel_width
        py = top + (pi // n_cols) * panel_height
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

        cx = f"{px + panel_width / 2:.1f}"
        parts.append(_text(cx, f"{py + 14:.1f}", g.heading, panel_title))
        ticks = [(sy(tick), tick) for tick in _ticks(lo, hi, 4)]
        parts += _frame(px + ml, px + ml + w, _f(py + mt), _f(py + mt + h), ticks, g.ticks, 4)
        for tick in _ticks(0.0, float(t[-1]) if n > 1 else 1.0, 5):
            parts.append(_text(_f(sx(tick)), _f(py + mt + h + 12), g.labels, f"{tick:.3g}"))
        xs = np.array([sx(x) for x in t])
        for li, (label, mean, std, color) in enumerate(curves):
            mean = np.asarray(mean, dtype=float)
            std = np.asarray(std, dtype=float)
            upper = np.array([sy(v) for v in mean + std])
            lower = np.array([sy(v) for v in mean - std])
            band = _polyline(xs, upper) + " " + _polyline(xs[::-1], lower[::-1])
            parts.append(
                f'<polygon points="{band}" fill="{color}" fill-opacity="0.2" stroke="none"/>'
            )
            line = np.array([sy(v) for v in mean])
            parts.append(
                f'<polyline points="{_polyline(xs, line)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            label_y = f"{py + mt + 10 + 10 * li:.1f}"
            parts.append(_text(px + ml + 4, label_y, g.labels, label, None, fill=color))
        parts.append(_text(cx, f"{py + panel_height - 6:.1f}", g.axis, "time (s)"))
        if y_label:
            parts.append(_text(px + 12, f"{py + mt + h / 2:.1f}", g.axis, y_label, angle=-90))
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
    bars = [(name, value, GROUP_COLORS.get(group, "#888888")) for name, group, value in entries]
    return _bars("group_bars", bars, title, y_label, legend=True)


def emit_svg_bar(values, labels, path: str | Path, title: str = "", y_label: str = ""):
    """Write a bar chart SVG to ``path``."""
    _write(path, svg_bar_chart(values, labels, title=title, y_label=y_label))


def emit_svg_curves(panels, fs: float, path: str | Path, title: str = "", y_label: str = ""):
    """Write a curve-panel SVG to ``path``."""
    _write(path, svg_curve_panels(panels, fs, title=title, y_label=y_label))


def _write(path: str | Path, doc: str) -> None:
    Path(path).write_text(doc, encoding="utf-8", newline="\n")


def metrics_table(rows: Sequence[tuple[str, object]], header: tuple[str, ...]) -> str:
    """Fixed-width text table; floats rendered with 4 decimals."""
    table = [[str(h) for h in header]]
    for name, metrics in rows:
        values = (getattr(metrics, col) for col in header[1:])
        table.append([name, *(f"{v:.4f}" if isinstance(v, float) else str(v) for v in values)])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    table.insert(1, ["-" * w for w in widths])
    return "".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) + "\n" for r in table)
