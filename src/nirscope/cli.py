"""Command-line front end.

Subcommands: synth, preprocess, epoch, train, explain, stats, report, run.
The flags of `run` can be overridden wholesale by --config FILE (JSON with
pipeline config keys). Exit codes: 0 success, 2 config error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, epochs as epochs_mod, stats, synth
from .features import FEATURE_MODES
from .model import CHROMOPHORES, GROUPS, DatasetFormatError, load_dataset, save_dataset
from .pipeline import (
    MODELS,
    POOLS,
    PipelineConfig,
    PipelineError,
    descriptive_report,
    epochs_from_dataset,
    metrics_text,
    preprocess_dataset,
    run_pipeline,
    synthesize,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_preprocess_flags(p: argparse.ArgumentParser):
    p.add_argument("--low-cut", dest="low_cut_hz", type=float, help="band-pass low cutoff (Hz)")
    p.add_argument("--high-cut", dest="high_cut_hz", type=float, help="band-pass high cutoff (Hz)")
    p.add_argument("--filter-order", type=int, help="band-pass order (even)")
    p.add_argument("--no-short-channel", dest="short_channel", action="store_false",
                   help="skip short-channel regression")
    p.add_argument("--no-motion", dest="motion_correction", action="store_false",
                   help="skip motion correction")
    p.add_argument("--motion-amp-sigma", type=float)
    p.add_argument("--motion-iqr", type=float)


def _add_epoch_flags(p: argparse.ArgumentParser):
    p.add_argument("--task", help="task label to analyze")
    p.add_argument("--window", dest="window_s", type=float, help="epoch window (s)")


def _add_learn_flags(p: argparse.ArgumentParser):
    _add_epoch_flags(p)
    p.add_argument("--model", choices=MODELS)
    p.add_argument("--folds", type=int)
    p.add_argument("--feature-mode", choices=FEATURE_MODES)
    p.add_argument("--select-k", type=int)


def _add_synth_flags(p: argparse.ArgumentParser):
    p.add_argument("--patients", type=int)
    p.add_argument("--controls", type=int)
    p.add_argument("--trials", dest="trials_per_task", type=int, help="trials per task")
    p.add_argument("--effect-channels", nargs="*")
    p.add_argument("--amplitude-ratio", type=float)
    p.add_argument("--peak-delay", dest="peak_delay_s", type=float)
    p.add_argument("--effect-chromophore", choices=CHROMOPHORES)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.

    Each config flag stores into the PipelineConfig field named by its dest
    and is left out of the namespace when not given, so every default comes
    from PipelineConfig.
    """
    parser = argparse.ArgumentParser(
        prog="nirscope",
        description="fNIRS preprocessing, classification, attribution, and statistics",
    )
    parser.add_argument("--version", action="version", version=f"nirscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    p = command("synth", "generate a synthetic dataset with ground truth")
    _add_synth_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir", required=True, help="output dataset directory")

    p = command("preprocess", "raw intensities to hemoglobin series")
    p.add_argument("--dataset", dest="dataset_path", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    _add_preprocess_flags(p)

    p = command("epoch", "segment a preprocessed dataset and summarize")
    p.add_argument("--dataset", dest="dataset_path", required=True)
    _add_epoch_flags(p)

    p = command("train", "cross-participant validation metrics")
    p.add_argument("--dataset", dest="dataset_path", required=True)
    p.add_argument("--seed", type=int)
    _add_preprocess_flags(p)
    _add_learn_flags(p)

    p = command("explain", "train, then rank channels by attribution")
    p.add_argument("--dataset", dest="dataset_path", required=True)
    p.add_argument("--out", dest="out_dir", required=True, help="output directory for reports")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", dest="shap_samples", type=int, help="attribution sample budget")
    _add_preprocess_flags(p)
    _add_learn_flags(p)

    p = sub.add_parser("stats", help="t-test / ANOVA / Levene on samples or summaries")
    p.add_argument("test", choices=["ttest", "anova", "levene"])
    p.add_argument(
        "--csv",
        action="extend",
        nargs="+",
        default=[],
        help="one-column sample CSVs, one per group; repeat or list several",
    )
    p.add_argument(
        "--summary",
        action="append",
        default=[],
        metavar="N,MEAN,SD",
        help="one group summary as a comma triple; repeat per group",
    )
    p.add_argument("--welch", action="store_true", help="unequal-variance t-test")
    p.add_argument("--center", default="mean", choices=["mean", "median"])

    p = command("report", "descriptive figures without training")
    p.add_argument("--dataset", dest="dataset_path", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    _add_epoch_flags(p)
    _add_preprocess_flags(p)

    p = command("run", "full pipeline (synthetic unless --dataset)")
    p.add_argument("--dataset", dest="dataset_path")
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", dest="shap_samples", type=int)
    p.add_argument("--pool", choices=POOLS)
    p.add_argument("--config", help="JSON config overriding flags")
    _add_synth_flags(p)
    _add_preprocess_flags(p)
    _add_learn_flags(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """PipelineConfig defaults, overridden by the given flags, then by --config.

    A list (a JSON array or an nargs flag) becomes a tuple. The flags the
    file leaves alone are checked first, so an error after them involves a
    key from the file and names the file.
    """
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    values = {k: v for k, v in vars(args).items() if k in fields}
    overrides = {}
    if getattr(args, "config", None):
        try:
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ValueError(f"{args.config}:{e.lineno}: {e.msg}") from e
        if not isinstance(overrides, dict):
            raise ValueError(
                f"{args.config}: config must be a JSON object, got {type(overrides).__name__}"
            )
        unknown = set(overrides) - fields
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {sorted(unknown)}")
        values.update(overrides)
    values = {k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}
    PipelineConfig(**{k: v for k, v in values.items() if k not in overrides})
    try:
        return PipelineConfig(**values)
    except ValueError as e:
        raise ValueError(f"{args.config}: {e}") from e


def _parse_summaries(raw: list[str]) -> list[stats.GroupSummary]:
    out = []
    for triple in raw:
        parts = triple.split(",")
        if len(parts) != 3:
            raise ValueError(f"--summary expects N,MEAN,SD, got {triple!r}")
        out.append(
            stats.GroupSummary(n=int(parts[0]), mean=float(parts[1]), sd=float(parts[2]))
        )
    return out


def _load_sample_csvs(paths: list[str]) -> list[np.ndarray]:
    groups = []
    for path in paths:
        values = []
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                value = np.nan
            if not np.isfinite(value):
                raise DatasetFormatError(f"{path}:{lineno}: not a finite number: {line.strip()!r}")
            values.append(value)
        if len(values) < 2:
            raise DatasetFormatError(f"{path}: a group needs at least 2 values, got {len(values)}")
        groups.append(np.asarray(values))
    return groups


def _cmd_stats(args) -> int:
    summaries = _parse_summaries(args.summary)
    groups = _load_sample_csvs(args.csv)
    if summaries and groups:
        raise ValueError("give either --summary or --csv, not both")
    if args.test == "ttest":
        if summaries:
            if len(summaries) != 2:
                raise ValueError("ttest needs exactly 2 groups")
            res = stats.t_test_from_summary(
                summaries[0], summaries[1], equal_variance=not args.welch
            )
        elif len(groups) == 2:
            res = stats.t_test(groups[0], groups[1], equal_variance=not args.welch)
        else:
            raise ValueError("ttest needs exactly 2 groups")
        print(
            f"t = {res.statistic:.6g}, df = {res.df:.6g}, "
            f"p = {res.p_two_sided:.6g}, mean difference = {res.mean_difference:.6g}"
        )
    elif args.test == "anova":
        res = (
            stats.one_way_anova_from_summary(summaries)
            if summaries
            else stats.one_way_anova(groups)
        )
        print(
            f"F = {res.statistic:.6g}, df = ({res.df[0]:.6g}, {res.df[1]:.6g}), "
            f"p = {res.p_two_sided:.6g}"
        )
    else:
        if not groups:
            raise ValueError("levene needs raw sample CSVs")
        res = stats.levene(groups, center=args.center)
        print(
            f"F = {res.statistic:.6g}, df = ({res.df[0]:.6g}, {res.df[1]:.6g}), "
            f"p = {res.p_two_sided:.6g}"
        )
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = _config_from_args(args)
    dataset, gt = synthesize(cfg)
    save_dataset(dataset, cfg.out_dir)
    out = Path(cfg.out_dir)
    (out / "ground_truth.json").write_text(
        synth.ground_truth_report(gt), encoding="utf-8", newline="\n"
    )
    print(f"wrote {len(dataset.recordings)} recordings to {out}")
    return EXIT_OK


def _cmd_preprocess(args) -> int:
    cfg = _config_from_args(args)
    hemo = preprocess_dataset(load_dataset(cfg.dataset_path), cfg)
    save_dataset(hemo, cfg.out_dir)
    print(f"wrote preprocessed dataset ({len(hemo.hemo)} participants) to {cfg.out_dir}")
    return EXIT_OK


def _cmd_epoch(args) -> int:
    cfg = _config_from_args(args)
    epoch_set = epochs_from_dataset(load_dataset(cfg.dataset_path), cfg)
    print(
        f"{len(epoch_set.tasks)} epochs total, {epoch_set.tasks.count(cfg.task)} for task "
        f"{cfg.task!r}, window {epoch_set.window_samples} samples "
        f"@ {epoch_set.sample_rate_hz} Hz"
    )
    for group in GROUPS:
        try:
            avg = epochs_mod.block_average(epoch_set, cfg.task, group=group)
        except ValueError:
            continue
        peak = float(np.max(np.abs(avg.mean[0])))  # hbo
        print(f"  {group}: {avg.n_trials} trials, max |hbo mean| = {peak:.3e} mol/L")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
    print(metrics_text(cfg, train(cfg)))
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    result = run_pipeline(config)
    pooled = result["cv"].pooled
    print(
        f"pooled accuracy = {pooled.accuracy:.4f} (precision {pooled.precision:.4f}, "
        f"recall {pooled.recall:.4f}, f1 {pooled.f1:.4f})"
    )
    for path in result["files"]:
        print(f"wrote {path}")
    top = result["importance"].top(config.top_channels)
    print("top channels: " + (", ".join(f"{c} {h}" for c, h, _ in top) or "none"))
    return EXIT_OK


def _cmd_report(args) -> int:
    for path in descriptive_report(_config_from_args(args)):
        print(f"wrote {path}")
    return EXIT_OK


# `explain` is `run` on an existing dataset: it trains, attributes and
# writes the same report files.
_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "epoch": _cmd_epoch,
    "train": _cmd_train,
    "explain": _cmd_run,
    "stats": _cmd_stats,
    "report": _cmd_report,
    "run": _cmd_run,
}


def _failure(error: Exception) -> tuple[int, str] | None:
    """Exit code and message prefix for an error, or None if it is not handled.

    A failed pipeline stage is classified by its cause, and is a config error
    when the cause is neither a data nor a numerical failure.
    """
    cause = error.cause if isinstance(error, PipelineError) else error
    if isinstance(cause, DatasetFormatError):
        return EXIT_DATA, "data error"
    if isinstance(cause, (np.linalg.LinAlgError, ArithmeticError)):
        return EXIT_NUMERIC, "numerical failure"
    if isinstance(error, (PipelineError, ValueError, KeyError, OSError)):
        return EXIT_CONFIG, "error"
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:
        failure = _failure(e)
        if failure is None:
            raise
        code, label = failure
        print(f"{label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
