"""Layer spans for the nirscope benchmark.

Run as a program, this file executes one nirscope CLI invocation with a span
around every call into a layer's public functions:

    python3 perfbench/tracer.py SPANS.json <nirscope arguments...>

Each function is patched where its caller looks the name up: a module
attribute (``optics.mbll_invert``, called as ``optics.X`` by the pipeline) or
a name bound by ``from ... import`` (``pipeline.bandpass``). Spans are kept in
memory and written to SPANS.json once, after ``nirscope.cli.main`` returns.
A target that no longer exists is listed as missing instead of failing.

Imported, it turns the span files of one traced iteration into the per-layer
metrics (``layer_metrics``).
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from pathlib import Path

KINDS = ("knn", "random_forest", "linear_svm", "boosted_trees")


def _dir_mb(path) -> float:
    p = Path(path)
    return sum(f.stat().st_size for f in p.rglob("*") if f.is_file()) / 1e6


def _kind_of_spec(args, kwargs):
    return args[0].kind


def _kind_of_cv(args, kwargs):
    return args[2].kind


def _kind_of_attribution(args, kwargs):
    return args[0].spec.kind


def _count_load(args, kwargs, out):
    return {"mb": _dir_mb(args[0])}


def _count_segments(args, kwargs, out):
    return {
        "segments": len(out),
        "flagged": int(len(out) > 0),
        "samples": len(args[0]),
        "corrected": int(sum(seg.end - seg.start for seg in out)),
    }


def _count_columns(args, kwargs, out):
    return {"columns": int(out.x.shape[1])}


def _count_rows(args, kwargs, out):
    return {"rows": len(args[1])}


# (module, attribute path, span name, kind suffix, counter). Several targets
# may share a span name when different callers bind the same function.
TARGETS = [
    ("nirscope.cli", "load_dataset", "model.load", None, _count_load),
    ("nirscope.pipeline", "load_dataset", "model.load", None, _count_load),
    ("nirscope.synth", "generate_dataset", "synth.generate", None, None),
    ("nirscope.optics", "intensity_to_od", "optics.od", None, None),
    ("nirscope.optics", "mbll_invert", "optics.mbll", None, None),
    ("nirscope.pipeline", "bandpass", "signal.bandpass", None, None),
    ("nirscope.pipeline", "short_channel_regress", "signal.short_regress", None, None),
    ("nirscope.pipeline", "detect_artifacts", "motion.detect", None, _count_segments),
    ("nirscope.pipeline", "spline_correct", "motion.spline", None, None),
    ("nirscope.pipeline", "wavelet_correct", "motion.wavelet", None, None),
    ("nirscope.cli", "preprocess_dataset", "pipeline.preprocess_dataset", None, None),
    ("nirscope.pipeline", "preprocess_dataset", "pipeline.preprocess_dataset", None, None),
    ("nirscope.pipeline", "preprocess_recording", "pipeline.preprocess_recording", None, None),
    ("nirscope.epochs", "segment", "epochs.segment", None, None),
    ("nirscope.epochs", "block_average", "epochs.block_average", None, None),
    ("nirscope.learn", "build_features", "features.build", None, _count_columns),
    ("nirscope.learn", "anova_f_scores", "features.anova", None, None),
    ("nirscope.learn", "cross_validate", "learn.cv", _kind_of_cv, None),
    ("nirscope.learn", "fit", "learn.fit", _kind_of_spec, None),
    ("nirscope.learn", "KnnModel.predict_score", "learn.predict_score", None, _count_rows),
    ("nirscope.learn", "ForestModel.predict_score", "learn.predict_score", None, _count_rows),
    ("nirscope.learn", "SvmModel.predict_score", "learn.predict_score", None, _count_rows),
    ("nirscope.learn", "BoostModel.predict_score", "learn.predict_score", None, _count_rows),
    ("nirscope.explain", "attribute_cross_validation", "explain.attribute",
     _kind_of_attribution, None),
    ("nirscope.explain", "exact_shapley", "explain.exact", None, None),
    ("nirscope.explain", "kernel_shap", "explain.kernel", None, None),
    ("nirscope.stats", "t_test", "stats.test", None, None),
    ("nirscope.stats", "levene", "stats.test", None, None),
    ("nirscope.stats", "one_way_anova", "stats.test", None, None),
    ("nirscope.report", "metrics_table", "report.render", None, None),
    ("nirscope.report", "emit_svg_bar", "report.render", None, None),
    ("nirscope.report", "emit_svg_curves", "report.render", None, None),
    ("nirscope.report", "svg_group_bars", "report.render", None, None),
]


class Tracer:
    """Spans in call order: [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, counter=None):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            rec[4] = counter(args, kwargs, out)
        return out

    def wrap(self, fn, name, kind_of=None, counter=None):
        def wrapper(*args, **kwargs):
            full = f"{name}.{kind_of(args, kwargs)}" if kind_of else name
            return self.call(full, fn, args, kwargs, counter)

        return wrapper

    def install(self, targets=TARGETS):
        for module_name, attr_path, name, kind_of, counter in targets:
            *owners, attr = attr_path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            setattr(owner, attr, self.wrap(fn, name, kind_of, counter))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from nirscope import cli

    code = None
    try:
        code = tracer.call("cli.main", cli.main, (cli_args,), {})
    finally:
        Path(spans_path).write_text(
            json.dumps({"spans": tracer.spans, "missing": tracer.missing, "exit": code}),
            encoding="utf-8",
        )
    return code


# ---------------------------------------------------------------------------
# Span files -> per-layer metrics

# Per-layer metrics in report order: (name, unit, better). ``better`` is the
# direction an optimisation should move the number; counts that describe the
# data (segments, fractions, columns) are "lower" only by convention.
PER_LAYER = [
    ("model.load_s", "s", "lower"),
    ("model.load_mb", "MB", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("optics.od_s", "s", "lower"),
    ("optics.od_calls", "count", "lower"),
    ("optics.mbll_s", "s", "lower"),
    ("optics.mbll_calls", "count", "lower"),
    ("signal.bandpass_s", "s", "lower"),
    ("signal.bandpass_calls", "count", "lower"),
    ("signal.short_regress_s", "s", "lower"),
    ("signal.short_regress_calls", "count", "lower"),
    ("motion.detect_s", "s", "lower"),
    ("motion.detect_calls", "count", "lower"),
    ("motion.spline_s", "s", "lower"),
    ("motion.spline_calls", "count", "lower"),
    ("motion.wavelet_s", "s", "lower"),
    ("motion.wavelet_calls", "count", "lower"),
    ("motion.segments", "count", "lower"),
    ("motion.flagged_frac", "fraction", "lower"),
    ("motion.corrected_frac", "fraction", "lower"),
    ("pipeline.preprocess_recording_s", "s", "lower"),
    ("pipeline.preprocess_self_s", "s", "lower"),
    ("epochs.segment_s", "s", "lower"),
    ("epochs.block_average_s", "s", "lower"),
    ("epochs.block_average_calls", "count", "lower"),
    ("features.build_s", "s", "lower"),
    ("features.columns", "count", "lower"),
    ("features.anova_s", "s", "lower"),
    *[(f"learn.cv_s.{k}", "s", "lower") for k in KINDS],
    *[(f"learn.fit_s.{k}", "s", "lower") for k in KINDS],
    ("learn.fit_calls", "count", "lower"),
    ("learn.predict_s", "s", "lower"),
    *[(f"explain.attribute_s.{k}", "s", "lower") for k in KINDS],
    ("explain.exact_rows", "count", "lower"),
    ("explain.kernel_rows", "count", "lower"),
    ("explain.score_calls", "count", "lower"),
    ("explain.score_rows", "count", "lower"),
    ("explain.rows_per_score_call", "rows", "higher"),
    ("explain.score_s", "s", "lower"),
    ("explain.self_s", "s", "lower"),
    ("stats.s", "s", "lower"),
    ("stats.tests", "count", "lower"),
    ("report.s", "s", "lower"),
    ("report.bytes", "B", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("cli.cpu_util", "fraction", "higher"),
    ("trace.overhead_s", "s", "lower"),
    *[(f"{layer}.growth_2x", "ratio", "lower")
      for layer in ("optics", "signal", "motion", "learn", "explain")],
]

# Span names whose total time is a layer's time in the scale probe.
GROWTH_SPANS = {
    "optics": ("optics.od", "optics.mbll"),
    "signal": ("signal.bandpass", "signal.short_regress"),
    "motion": ("motion.detect", "motion.spline", "motion.wavelet"),
    "learn": tuple(f"learn.cv.{k}" for k in KINDS),
    "explain": tuple(f"explain.attribute.{k}" for k in KINDS),
}


class SpanSet:
    """The spans of one or more traced processes, with parent links."""

    def __init__(self, span_files):
        # (name, start, end, parent index, counts, base names of ancestors)
        self.spans: list[tuple] = []
        self.missing: set[str] = set()
        for data in span_files:
            self.missing.update(data["missing"])
            offset = len(self.spans)
            for name, start, end, parent, counts in data["spans"]:
                above: frozenset = frozenset()
                if parent >= 0:
                    parent += offset
                    p = self.spans[parent]
                    above = p[5] | {_base(p[0])}
                self.spans.append((name, start, end, parent, counts or {}, above))

    def select(self, name, under=None):
        """Spans called ``name`` (or ``name.<kind>``) not nested in a span of
        the same name, optionally only those below a span called ``under``."""
        return [
            s
            for s in self.spans
            if name in (s[0], _base(s[0]))
            and _base(s[0]) not in s[5]
            and (under is None or under in s[5])
        ]

    def total(self, name, under=None) -> float:
        return sum(s[2] - s[1] for s in self.select(name, under))

    def count(self, name, under=None) -> int:
        return len(self.select(name, under))

    def counted(self, name, key, under=None) -> float:
        return sum(s[4].get(key, 0) for s in self.select(name, under))

    def self_time(self, name, child_layers) -> float:
        """Total time of ``name`` spans minus the outermost descendant spans
        of the layers in ``child_layers``."""
        total = self.total(name)
        for child in self.spans:
            if _layer(child[0]) not in child_layers:
                continue
            p = child[3]
            while p >= 0 and _layer(self.spans[p][0]) not in child_layers:
                if self.spans[p][0] == name:
                    total -= child[2] - child[1]
                    break
                p = self.spans[p][3]
        return total


def _base(name: str) -> str:
    """Span name without its kind suffix: learn.cv.knn -> learn.cv."""
    return ".".join(name.split(".")[:2])


def _layer(name: str) -> str:
    return name.split(".")[0]


def layer_metrics(spans: SpanSet) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (trace-only figures such as
    cpu time, overhead and growth are added by the caller)."""
    m: dict[str, float] = {}
    m["model.load_s"] = spans.total("model.load")
    m["model.load_mb"] = spans.counted("model.load", "mb")
    m["synth.generate_s"] = spans.total("synth.generate")
    for name in ("optics.od", "optics.mbll", "signal.bandpass", "signal.short_regress",
                 "motion.detect", "motion.spline", "motion.wavelet"):
        m[f"{name}_s"] = spans.total(name)
        m[f"{name}_calls"] = spans.count(name)
    detect_calls = spans.count("motion.detect")
    samples = spans.counted("motion.detect", "samples")
    m["motion.segments"] = spans.counted("motion.detect", "segments")
    m["motion.flagged_frac"] = (
        spans.counted("motion.detect", "flagged") / detect_calls if detect_calls else 0.0
    )
    m["motion.corrected_frac"] = (
        spans.counted("motion.detect", "corrected") / samples if samples else 0.0
    )
    per_recording = [s[2] - s[1] for s in spans.select("pipeline.preprocess_recording")]
    m["pipeline.preprocess_recording_s"] = (
        statistics.median(per_recording) if per_recording else 0.0
    )
    m["pipeline.preprocess_self_s"] = spans.self_time(
        "pipeline.preprocess_recording", ("optics", "signal", "motion")
    )
    m["epochs.segment_s"] = spans.total("epochs.segment")
    m["epochs.block_average_s"] = spans.total("epochs.block_average")
    m["epochs.block_average_calls"] = spans.count("epochs.block_average")
    m["features.build_s"] = spans.total("features.build")
    m["features.columns"] = max(
        (s[4].get("columns", 0) for s in spans.select("features.build")), default=0
    )
    m["features.anova_s"] = spans.total("features.anova")
    for k in KINDS:
        m[f"learn.cv_s.{k}"] = spans.total(f"learn.cv.{k}")
        m[f"learn.fit_s.{k}"] = spans.total(f"learn.fit.{k}")
    m["learn.fit_calls"] = spans.count("learn.fit")
    m["learn.predict_s"] = spans.total("learn.predict_score", under="learn.cv")
    for k in KINDS:
        m[f"explain.attribute_s.{k}"] = spans.total(f"explain.attribute.{k}")
    m["explain.exact_rows"] = spans.count("explain.exact")
    m["explain.kernel_rows"] = spans.count("explain.kernel")
    calls = spans.count("learn.predict_score", under="explain.attribute")
    rows = spans.counted("learn.predict_score", "rows", under="explain.attribute")
    m["explain.score_calls"] = calls
    m["explain.score_rows"] = rows
    m["explain.rows_per_score_call"] = rows / calls if calls else 0.0
    m["explain.score_s"] = spans.total("learn.predict_score", under="explain.attribute")
    m["explain.self_s"] = spans.total("explain.attribute") - m["explain.score_s"]
    m["stats.s"] = spans.total("stats.test")
    m["stats.tests"] = spans.count("stats.test")
    m["report.s"] = spans.total("report.render")
    return m


def growth_time(spans: SpanSet, layer: str) -> float:
    return sum(spans.total(name) for name in GROWTH_SPANS[layer])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
