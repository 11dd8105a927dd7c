"""Self-tests of the benchmark: its metric lists match BENCHMARK.json, traced
counts repeat exactly, and the output check catches corrupted artifacts.

    python3 -m pytest perfbench/test_perfbench.py -q

The traced tests run the real workloads at their benchmark size (a few
minutes on two cores).
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

EXACT_SUFFIXES = ("_calls", "_rows", ".segments", ".columns", "_mb", "_frac")


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _new_run(workload: str) -> run.Run:
    """A run whose output references start empty and are never saved."""
    (run.ROOT / run.WORK / "logs").mkdir(parents=True, exist_ok=True)
    checker = run.Checker(run.ROOT / run.WORK / "test" / "unsaved.json")
    return run.Run(workload, 3, time.monotonic() + 600, run.child_env(), checker)


def _traced_counts(workload: str) -> dict:
    """Exact counts of one traced process: the first of the workload's."""
    r = _new_run(workload)
    ops = r.setup(run.PARTICIPANTS)[:1]
    spans_dir = run.ROOT / run.WORK / workload / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    r.iterate(ops, run.PARTICIPANTS, spans_dir)
    spans = tracer.SpanSet(json.loads((spans_dir / f"{i}.json").read_text())
                           for i in range(len(ops)))
    metrics = tracer.layer_metrics(spans)
    assert not r.failures, r.failures
    assert not spans.missing
    return {k: v for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}


@pytest.mark.parametrize(
    "workload, nonzero",
    [
        ("run-raw-knn", ("signal.bandpass_calls", "motion.segments", "explain.exact_rows")),
        ("sweep-summary", ("model.load_mb", "explain.kernel_rows", "explain.score_rows")),
    ],
)
def test_traced_counts_repeat_exactly(workload, nonzero):
    first = _traced_counts(workload)
    second = _traced_counts(workload)
    assert first == second
    for name in nonzero:
        assert first[name] > 0, name
    shutil.rmtree(run.ROOT / run.WORK / workload, ignore_errors=True)


def _ranking(tmp: Path, order: list[tuple[str, str]]) -> Path:
    tmp.mkdir(parents=True, exist_ok=True)
    path = tmp / "channel_importance.csv"
    rows = [f"{ch},{chrom},{1.0 / i:.6f}" for i, (ch, chrom) in enumerate(order, start=1)]
    path.write_text("channel,chromophore,mean_abs_shap\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "ranks, summary, ok",
    [
        ((1, 2), False, True),
        ((3, 4), False, True),
        ((1, 5), False, False),
        ((1, 10), True, True),
        ((14, 13), True, True),
        ((1, 15), True, False),
    ],
)
def test_ranking_rule(ranks, summary, ok):
    others = [(f"S{i}-D{i}", "hbo") for i in range(1, 55)]
    order = list(others)
    for key, r in sorted(zip(run.EFFECT_KEYS, ranks), key=lambda kr: kr[1]):
        order.insert(r - 1, key)
    path = _ranking(run.ROOT / run.WORK / "test" / "ranking", order)
    assert (run.ranking_reasons(path, summary) == []) is ok


def _check(r: run.Run, op: run.Op, code: int = 0) -> list[str]:
    return r.check(0, op, run.Proc(code, 1.0, 1.0, 1.0), run.PARTICIPANTS)[0]


def test_check_fails_on_corrupted_report():
    r = _new_run("run-raw-knn")
    op = r.setup(run.PARTICIPANTS)[0]
    r.iterate([op], run.PARTICIPANTS)
    assert not r.failures and r.attempted == 1
    assert 0.5 < r.accuracy[0] <= 1.0
    assert _check(r, op) == []
    assert _check(r, op, code=3) == ["exit code 3"]

    out = run.ROOT / op.out
    metrics = out / "metrics.txt"
    original = metrics.read_bytes()
    metrics.write_bytes(original.replace(b"pooled", b"pooled ", 1))
    reasons = _check(r, op)
    assert any("byte-identical" in reason for reason in reasons), reasons
    metrics.write_bytes(original)

    # A ranking that loses one effect pair from the top 4.
    csv = out / "channel_importance.csv"
    lines = csv.read_text(encoding="utf-8").splitlines()
    effect = next(i for i, line in enumerate(lines) if line.startswith("S7-D6,hbr"))
    lines.append(lines.pop(effect))
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any(reason.startswith("S7-D6 hbr ranked") for reason in _check(r, op))

    (out / "stats_tests.txt").unlink()
    assert _check(r, op) == ["missing ['stats_tests.txt']"]
    shutil.rmtree(run.ROOT / run.WORK / "run-raw-knn", ignore_errors=True)
