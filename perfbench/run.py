"""Benchmark for nirscope: CLI workloads timed end to end, with output checks
and a traced pass that splits the time by layer.

    python3 perfbench/run.py --workload run-raw-knn --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it uses the package under src/ as is.
One iteration of a workload is a sequence of fresh ``nirscope`` processes,
started one at a time by this process (a closed loop with one client).
Iterations repeat until --seconds of measured time have passed (at least one).

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced and one
traced iteration (perfbench/tracer.py) and prints the per-layer metrics.
Every operation (one process plus its output check) that fails counts in
``failed``. The last line of standard output is one JSON object; a full
record with the child environment and the machine goes to
perfbench/work/results/. Without --workload every workload runs in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench") / "work"  # relative to ROOT, which is every child's cwd
DEADLINE_S = 165.0  # one run must end within 180 s
SETUP_REPEATS = 3

CLI = "import sys; from nirscope.cli import main; sys.exit(main())"
EFFECT = (
    "--trials", "5", "--effect-channels", "S7-D6", "S5-D6",
    "--amplitude-ratio", "0.5", "--peak-delay", "1.5",
)
EFFECT_KEYS = (("S7-D6", "hbr"), ("S5-D6", "hbr"))
# What `nirscope run` writes: nirscope.pipeline.REPORT_FILES plus
# stats_tests.txt, which is written but not listed there.
REPORT_FILES = (
    "metrics.txt", "channel_importance.csv", "channel_importance.svg",
    "block_average_curves.svg", "time_to_peak.svg", "provenance.txt", "stats_tests.txt",
)
PARTICIPANTS = 12  # per group; the scale probe doubles it
MODELS = ("knn", "rf", "svm", "gbdt")
# Summary columns kept per fold in sweep-summary. 52 columns span at least
# 13 (channel, chromophore) pairs, so every fold takes the kernel Shapley
# path (more than 12 groups). With the default of 20, a fold that keeps 12
# or fewer pairs enumerates up to 2^12 coalitions per row instead, and the
# iteration takes about three times as long (seed 7: 134 s against 45 s).
SUMMARY_K = "52"
# Variables that set thread pools; passed through to children when set.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
]


@dataclass(frozen=True)
class Op:
    """One nirscope CLI process and the directory its report lands in."""

    args: tuple[str, ...]
    out: str


def plan(workload: str, seed: int, n: int = PARTICIPANTS):
    """Set-up commands and the operations of one iteration."""
    w = f"{WORK}/{workload}/n{n}"
    s = str(seed)
    groups = ("--patients", str(n), "--controls", str(n))
    if workload == "run-raw-knn":
        out = f"{w}/report"
        return [], [Op(("run", "--out", out, "--seed", s, "--model", "knn", *groups, *EFFECT),
                       out)]
    if workload == "sweep-summary":
        setup = [("synth", "--seed", s, "--out", f"{w}/raw", *groups, *EFFECT),
                 ("preprocess", "--dataset", f"{w}/raw", "--out", f"{w}/hemo")]
        ops = []
        for model in MODELS:
            out = f"{w}/report-{model}"
            ops.append(Op(("run", "--dataset", f"{w}/hemo", "--out", out, "--seed", s,
                           "--feature-mode", "summary", "--select-k", SUMMARY_K,
                           "--model", model), out))
        return setup, ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("run-raw-knn", "sweep-summary")
# The workload whose traced pass is repeated at twice the participants.
SCALE_PROBE = "run-raw-knn"


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float


def child_env() -> dict[str, str]:
    """One environment for every child, built from scratch so that nothing
    else in the caller's environment (NIRSCOPE_THREADS among it) reaches
    the program."""
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "PYTHONPATH": "src",
        "PYTHONHASHSEED": "0",
    }
    env.update({k: os.environ[k] for k in THREAD_VARS if k in os.environ})
    return env


def spawn(argv, env, log: Path, deadline: float) -> Proc:
    """Run one child to its end; read its peak RSS and CPU time from wait4."""
    with open(ROOT / log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)


@dataclass
class Iteration:
    wall_s: float
    procs: list[Proc]


def run_iteration(ops, env, deadline, spans_dir: Path | None = None) -> Iteration:
    """Start the operations one after another; time first spawn to last exit."""
    for op in ops:
        shutil.rmtree(ROOT / op.out, ignore_errors=True)
    logs = ROOT / WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    procs = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if spans_dir is None:
            argv = [sys.executable, "-c", CLI, *op.args]
        else:
            argv = [sys.executable, "perfbench/tracer.py", str(spans_dir / f"{i}.json"), *op.args]
        procs.append(spawn(argv, env, WORK / "logs" / f"op{i}.log", deadline))
    return Iteration(time.perf_counter() - t0, procs)


# ---------------------------------------------------------------------------
# Output checks


def _digest(files) -> dict[str, str]:
    return {
        str(f.relative_to(ROOT)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(files)
    }


def pooled_accuracy(report_dir: Path) -> float:
    for line in (report_dir / "metrics.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("pooled"):
            return float(line.split()[1])
    raise ValueError(f"no pooled row in {report_dir / 'metrics.txt'}")


def ranking_reasons(importance_csv: Path, summary: bool) -> list[str]:
    """Where the synthetic effect pairs must rank among the 56 pairs. On raw
    features both are in the top 4. Summary features rank them less
    steadily (seed 3 puts S5-D6 hbr 10th with svm), so there both must be
    in the top quarter, 14; a random ranking passes that 6% of the time."""
    limit = 14 if summary else 4
    lines = importance_csv.read_text(encoding="utf-8").splitlines()[1:]
    rank = {tuple(line.split(",")[:2]): i for i, line in enumerate(lines, start=1)}
    reasons = []
    for ch, chrom in EFFECT_KEYS:
        r = rank.get((ch, chrom))
        if r is None or r > limit:
            reasons.append(f"{ch} {chrom} ranked {r}, not in the top {limit}")
    return reasons


class Checker:
    """Checks each operation's outputs; the first artifacts seen for a key
    (workload, size, seed, operation) are the reference for later ones.
    References persist across runs in one checkout, keyed by the code."""

    def __init__(self, path: Path):
        self.path = path
        self.refs = json.loads(path.read_text()) if path.exists() else {}

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.refs, indent=1, sort_keys=True))
        os.replace(tmp, self.path)

    def check(self, key: str, op: Op, proc: Proc):
        """Failure reasons (empty when the operation passed) and accuracy."""
        if proc.code != 0:
            return [f"exit code {proc.code}"], None
        out = ROOT / op.out
        files = [out / name for name in REPORT_FILES]
        missing = [f.name for f in files if not f.is_file()]
        if missing:
            return [f"missing {missing}"], None
        try:
            reasons = ranking_reasons(out / "channel_importance.csv", "summary" in op.args)
            accuracy = pooled_accuracy(out)
        except (OSError, ValueError, IndexError) as e:  # a malformed report
            return [f"{type(e).__name__}: {e}"], None
        digest = _digest(files)
        ref = self.refs.setdefault(key, digest)
        if digest != ref:
            changed = sorted(k for k in set(digest) | set(ref) if digest.get(k) != ref.get(k))
            reasons.append(f"not byte-identical to the first iteration: {changed}")
        return reasons, accuracy


# ---------------------------------------------------------------------------
# One run


@dataclass
class Run:
    workload: str
    seed: int
    deadline: float
    env: dict
    checker: Checker
    attempted: int = 0
    failures: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)

    def setup(self, n: int):
        setup, ops = plan(self.workload, self.seed, n)
        shutil.rmtree(ROOT / WORK / self.workload / f"n{n}", ignore_errors=True)
        (ROOT / WORK / self.workload / f"n{n}").mkdir(parents=True)
        for args in setup:
            proc = spawn([sys.executable, "-c", CLI, *args], self.env,
                         WORK / "logs" / "setup.log", self.deadline)
            if proc.code != 0:
                raise RuntimeError(f"set-up command {' '.join(args)} exited {proc.code}; "
                                   f"see {WORK / 'logs' / 'setup.log'}")
        return ops

    def check(self, i: int, op: Op, proc: Proc, n: int):
        key = f"{self.workload}/n{n}/seed{self.seed}/op{i}"
        return self.checker.check(key, op, proc)

    def iterate(self, ops, n: int, spans_dir: Path | None = None) -> Iteration:
        it = run_iteration(ops, self.env, self.deadline, spans_dir)
        accuracies = []
        for i, (op, proc) in enumerate(zip(ops, it.procs)):
            reasons, accuracy = self.check(i, op, proc, n)
            self.attempted += 1
            if reasons:
                self.failures.append({"op": " ".join(op.args), "reasons": reasons})
            if accuracy is not None:
                accuracies.append(accuracy)
        if accuracies and n == PARTICIPANTS:
            self.accuracy.append(statistics.fmean(accuracies))
        return it


def measure_setup_s(env, deadline) -> float:
    """Median wall time of a fresh interpreter importing nirscope.cli."""
    walls = [
        spawn([sys.executable, "-c", "import nirscope.cli"], env,
              WORK / "logs" / "import.log", deadline).wall_s
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(walls)


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    ops = run.setup(PARTICIPANTS)
    setup_s = measure_setup_s(run.env, run.deadline)
    iterations: list[Iteration] = []
    measured = 0.0
    while not iterations or measured < seconds:
        if iterations and time.monotonic() + 1.5 * iterations[-1].wall_s > run.deadline:
            break
        iterations.append(run.iterate(ops, PARTICIPANTS))
        measured += iterations[-1].wall_s
    return {
        "run_s": statistics.median(it.wall_s for it in iterations),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in it.procs) for it in iterations),
        "accuracy": statistics.fmean(run.accuracy) if run.accuracy else 0.0,
        "iterations": [
            {"wall_s": it.wall_s, "cpu_s": sum(p.cpu_s for p in it.procs)} for it in iterations
        ],
    }


def traced(run: Run, n: int):
    """Spans of one traced iteration at ``n`` participants per group, with
    the untraced iteration before it when ``n`` is the workload's size."""
    ops = run.setup(n)
    plain = run.iterate(ops, n) if n == PARTICIPANTS else None
    spans_dir = ROOT / WORK / run.workload / f"n{n}" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    it = run.iterate(ops, n, spans_dir)
    files = [spans_dir / f"{i}.json" for i in range(len(ops))]
    spans = tracer.SpanSet(json.loads(f.read_text()) for f in files if f.exists())
    report_bytes = sum(f.stat().st_size for op in ops for f in (ROOT / op.out).glob("*"))
    return plain, it, spans, report_bytes


def per_layer(run: Run) -> tuple[dict[str, float], list[str], list[str]]:
    plain, it, spans, report_bytes = traced(run, PARTICIPANTS)
    m = tracer.layer_metrics(spans)
    m["report.bytes"] = report_bytes
    m["cli.cpu_s"] = sum(p.cpu_s for p in plain.procs)
    m["cli.cpu_util"] = m["cli.cpu_s"] / plain.wall_s
    m["trace.overhead_s"] = it.wall_s - plain.wall_s
    big = traced(run, 2 * PARTICIPANTS)[2] if run.workload == SCALE_PROBE else None
    for layer in tracer.GROWTH_SPANS:
        base = tracer.growth_time(spans, layer)
        m[f"{layer}.growth_2x"] = tracer.growth_time(big, layer) / base if big and base else 0.0
    not_called = [name for name, _, _ in tracer.PER_LAYER if m.get(name, 0.0) == 0.0]
    return m, not_called, sorted(spans.missing)


# ---------------------------------------------------------------------------
# Records


def code_hash() -> str:
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for f in sorted((ROOT / base).rglob("*.py")):
            if "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower() and ".so" in path:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                if hasattr(lib, name):
                    fn = getattr(lib, name)
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def machine() -> dict:
    """The machine and library versions. The children share this
    interpreter and their thread settings with this process."""
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3": l3.read_text().strip() if l3.exists() else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    env = child_env()
    (ROOT / WORK / "logs").mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "code": code_hash(), "env": env,
              "env_dropped": sorted(k for k in ("NIRSCOPE_THREADS",) if k in os.environ)}
    checker = Checker(ROOT / WORK / "reference" / f"{record['code']}.json")
    run = Run(workload, seed, start + DEADLINE_S, env, checker)
    try:
        if trace:
            metrics, record["not_called"], record["missing"] = per_layer(run)
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        else:
            metrics = end_to_end(run, seconds)
            record["iterations"] = metrics.pop("iterations")
            units = dict(END_TO_END)
    finally:
        checker.save()
        shutil.rmtree(ROOT / WORK / workload, ignore_errors=True)
    failed = len(run.failures)
    record.update(
        machine=machine(),
        wall_s=time.monotonic() - start,
        correct=failed == 0 and run.attempted > 0,
        attempted=run.attempted,
        failed=failed,
        error_rate=failed / run.attempted,
        failures=run.failures,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    )
    results = ROOT / WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def print_record(record: dict):
    print(f"== {record['workload']} seed {record['seed']} trace {record['trace']}")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {record['error_rate']:.6g} fraction "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for failure in record["failures"]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['reasons'])}")
    if record.get("not_called"):
        print("not called: " + ", ".join(record["not_called"]))
    if record.get("missing"):
        print("missing wrap targets: " + ", ".join(record["missing"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nirscope" / "cli.py").is_file():
        print(f"no nirscope sources under {ROOT / 'src'}: run from a checkout",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for workload in workloads:
        try:
            records.append(run_workload(workload, args.seed, args.seconds, bool(args.trace)))
        except RuntimeError as e:
            print(f"{workload}: {e}", file=sys.stderr)
            return 1
        print_record(records[-1])
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
