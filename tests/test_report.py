import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from nirscope.report import (
    escape,
    metrics_table,
    svg_bar_chart,
    svg_curve_panels,
    svg_group_bars,
)

GOLDEN = Path(__file__).parent / "golden"

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg_text):
    return ET.fromstring(svg_text)


def test_single_bar_is_parseable_with_one_bar_rect():
    svg = svg_bar_chart([1.0], ["only"], title="t", y_label="y")
    root = _parse(svg)
    rects = root.findall(f".//{SVG_NS}rect")
    bar_rects = [r for r in rects if r.get("fill") not in ("white",)]
    assert len(bar_rects) == 1
    assert float(bar_rects[0].get("height")) > 0


def test_bar_values_printed_above_bars():
    svg = svg_bar_chart([0.25, 1.5], ["a", "b"])
    assert ">0.25<" in svg
    assert ">1.5<" in svg


def test_zero_std_band_degenerates_to_line():
    mean = np.linspace(0, 1, 10)
    std = np.zeros(10)
    svg = svg_curve_panels([("p", [("c", mean, std, "#123456")])], fs=2.0)
    root = _parse(svg)
    polygon = root.find(f".//{SVG_NS}polygon")
    polyline = root.find(f".//{SVG_NS}polyline")
    pts = polygon.get("points").split()
    upper = pts[: len(pts) // 2]
    lower = list(reversed(pts[len(pts) // 2 :]))
    assert upper == lower  # band collapsed onto the line
    assert polyline is not None


def test_group_bars_color_by_group():
    svg = svg_group_bars(
        [("P01", "patient", 5.0), ("C01", "control", 4.0)],
        title="ttp",
    )
    assert "#c0504d" in svg and "#4472c4" in svg
    _parse(svg)


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        svg_bar_chart([], [])
    with pytest.raises(ValueError):
        svg_curve_panels([], fs=1.0)
    with pytest.raises(ValueError):
        svg_group_bars([])


def test_caller_text_is_escaped_in_every_drawer():
    # Titles, panel titles, curve labels, bar labels, individual names and y
    # labels: each document parses and shows the text as given.
    text = "x<&>y"
    curve = np.linspace(0.0, 1.0, 8)
    docs = [
        (svg_bar_chart([1.0, 2.0], [text, text], title=text, y_label=text), 4),
        (
            svg_curve_panels(
                [(text, [(text, curve, 0.1 * curve, "#123456")])], fs=2.0, title=text,
                y_label=text,
            ),
            4,
        ),
        (svg_group_bars([(text, "patient", 1.0)], title=text, y_label=text), 3),
    ]
    for svg, n_slots in docs:
        texts = [el.text for el in _parse(svg).iter(f"{SVG_NS}text")]
        assert texts.count(text) == n_slots


def test_outputs_deterministic():
    mean = np.sin(np.linspace(0, 3, 25))
    std = np.abs(np.cos(np.linspace(0, 3, 25))) * 0.2
    panels = [("panel", [("curve", mean, std, "#4472c4")])]
    assert svg_curve_panels(panels, fs=3.9) == svg_curve_panels(panels, fs=3.9)
    assert svg_bar_chart([1, 2, 3], ["a", "b", "c"]) == svg_bar_chart(
        [1, 2, 3], ["a", "b", "c"]
    )


def test_bar_chart_matches_golden_file():
    svg = svg_bar_chart(
        [0.5, 0.25, 0.125],
        ["S7-D6 hbr", "S5-D6 hbr", "S1-D1 hbo"],
        title="importance",
        y_label="mean |attribution|",
    )
    golden = GOLDEN / "bar_chart.svg"
    assert svg == golden.read_text(encoding="utf-8")


def test_metrics_table_layout():
    from nirscope.learn import Metrics

    rows = [
        ("fold 0", Metrics(1.0, 1.0, 1.0, 1.0)),
        ("pooled", Metrics(0.75, 0.76, 0.75, 0.717)),
    ]
    text = metrics_table(rows, ("fold", "accuracy", "precision", "recall", "f1"))
    lines = text.splitlines()
    assert lines[0].split() == ["fold", "accuracy", "precision", "recall", "f1"]
    assert "0.7500" in lines[3]
    assert "0.7170" in lines[3]


@pytest.mark.parametrize(
    "text", ["", "plain", "a & b", "<tag>", "&amp; stays escaped", "x<&>y&&<<>>", "S1-D1 hbo > 0"]
)
def test_escape_equals_saxutils(text):
    assert escape(text) == sax_escape(text)
