"""End-to-end pipeline: preprocess, epoch, classify, attribute, test.

run_pipeline drives synth/ingest -> preprocessing -> epoching ->
cross-participant validation -> channel attribution -> group statistics and
writes the report artifacts (metrics table, channel-importance CSV + SVG,
group block-average curves, per-participant time-to-peak bars, provenance
log). train stops after validation and descriptive_report after epoching;
all three run their shared stages on one path. Failures name the stage and
remove partial outputs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, epochs as epochs_mod, explain, learn, optics, report, stats, synth
from .features import SUMMARY_STATS, FeatureMode, default_select_k
from .model import Dataset, EpochSet, HemoSeries, ProvenanceStep, load_dataset, merge_epoch_sets
# perfbench/tracer.py wraps ``pipeline.detect_artifacts`` and reads what it
# returns as one series' segment list. The name stays bound to the one-row
# detector, which the pipeline no longer calls, so that the tracer finds its
# target; the stack detector has a name of its own.
from .motion import detect_artifact_stack, detect_artifacts, wavelet_correct  # noqa: F401
# The in-place fit, bound under the name that stage timings and tests patch.
from .motion import _spline_correct_in_place as spline_correct
from .signal import BandpassSpec, bandpass, match_short_channel, short_channel_regress

__all__ = [
    "PipelineConfig",
    "PipelineError",
    "preprocess_recording",
    "preprocess_dataset",
    "epochs_from_dataset",
    "run_pipeline",
    "train",
    "descriptive_report",
    "synthesize",
    "metrics_text",
    "REPORT_FILES",
]

REPORT_FILES = (
    "metrics.txt",
    "channel_importance.csv",
    "channel_importance.svg",
    "block_average_curves.svg",
    "time_to_peak.svg",
    "provenance.txt",
    "stats_tests.txt",
)

_MICROMOLAR = 1e6  # report curves in umol/L
# Hemoglobin samples (recordings x 2 x long channels x samples) preprocessed
# together. The band-pass copies them, so this bounds its memory (16 MB of
# series) on large datasets and long recordings; the 12 + 12
# synthetic dataset (1.57 million samples) is one chunk.
_CHUNK_CELLS = 1 << 21


class PipelineError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline failed in stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: str = "nirscope-run"
    dataset_path: str | None = None  # None: generate synthetic data
    seed: int = 0
    # synthetic generation
    patients: int = 12
    controls: int = 12
    trials_per_task: int = 5
    effect_channels: tuple[str, ...] = ()
    amplitude_ratio: float = 1.0
    peak_delay_s: float = 0.0
    effect_chromophore: str = "hbr"
    # preprocessing
    low_cut_hz: float = 0.05
    high_cut_hz: float = 0.7
    filter_order: int = 4
    short_channel: bool = True
    motion_correction: bool = True
    motion_amp_sigma: float = 5.0
    motion_iqr: float = 1.5
    # epoching
    window_s: float = 20.0
    baseline_s: float = 2.0
    task: str = "single"
    # learning
    model: str = "knn"
    folds: int = 6
    feature_mode: str = "raw"
    select_k: int | None = None
    # attribution
    shap_samples: int = 256
    top_channels: int = 4
    # statistics
    pool: str = "sample"  # "sample" | "trial"

    def bandpass_spec(self) -> BandpassSpec:
        return BandpassSpec(
            low_cut_hz=self.low_cut_hz,
            high_cut_hz=self.high_cut_hz,
            order=self.filter_order,
        )

    def classifier_spec(self) -> learn.ClassifierSpec:
        kind = {
            "knn": "knn",
            "rf": "random_forest",
            "random_forest": "random_forest",
            "svm": "linear_svm",
            "linear_svm": "linear_svm",
            "gbdt": "boosted_trees",
            "boosted_trees": "boosted_trees",
        }.get(self.model)
        if kind is None:
            raise ValueError(f"unknown model {self.model!r}")
        return learn.ClassifierSpec(kind=kind, seed=self.seed)

    def effect_spec(self) -> synth.EffectSpec | None:
        if not self.effect_channels:
            return None
        weights = {"hbo": 0.0, "hbr": 0.0}
        weights[self.effect_chromophore] = 1.0
        return synth.EffectSpec(
            target_channels=tuple(self.effect_channels),
            amplitude_ratio=self.amplitude_ratio,
            peak_delay_s=self.peak_delay_s,
            chromophore_weights=weights,
        )


def _hemoglobin(recording, montage, config: PipelineConfig, extinction, out) -> list:
    """Optical density, short-channel regression and Beer-Lambert inversion
    of one recording into ``out`` (2, long channels, samples): hbo, then hbr.
    Each step is one call over the recording's (channels x samples) arrays.
    Returns the provenance of these steps."""
    wl = recording.wavelengths_nm
    index = {c: i for i, c in enumerate(recording.channel_ids)}
    longs = montage.long_channels
    long_rows = np.array([index[ch.id] for ch in longs])
    provenance = [ProvenanceStep.make("intensity_to_od", reference="series_mean")]

    od = {w: optics.intensity_to_od(recording.intensity[w]) for w in wl}

    if config.short_channel and montage.short_channels:
        short_rows = np.array([index[match_short_channel(montage, ch.id)] for ch in longs])
        for w in wl:
            short = od[w][short_rows]
            # A constant short channel has nothing to regress out.
            keep = np.ptp(short, axis=1) != 0.0
            if keep.any():
                rows = long_rows[keep]
                od[w][rows] = short_channel_regress(od[w][rows], short[keep])
        provenance.append(
            ProvenanceStep.make("short_channel_regression", method="shared_source")
        )

    out[0], out[1] = optics.mbll_invert(
        (od[wl[0]][long_rows], od[wl[1]][long_rows]),
        wl,
        [ch.distance_m for ch in longs],
        extinction,
    )
    provenance.append(
        ProvenanceStep.make(
            "mbll_invert",
            wavelengths_nm=list(wl),
            dpf=[extinction.pathlength_factor(w) for w in wl],
        )
    )
    return provenance


def _correct_motion(rows: np.ndarray, fs: float, longs, config: PipelineConfig) -> None:
    """Spline + wavelet motion correction, in place, of the rows of
    (series, long channels) that have detected artifacts.

    Rows with no detected artifacts are left untouched, so clean recordings
    survive motion correction bit-for-bit. One detection call covers every
    row and one spline call fits the flagged rows of every series, in place;
    the wavelet pass runs once per series, because one call over every
    flagged row at once runs slower, out of cache.
    """
    segments = detect_artifact_stack(
        rows, fs, amp_threshold=config.motion_amp_sigma,
        channel_ids=[ch.id for ch in longs] * (len(rows) // len(longs)),
    )
    flagged = np.flatnonzero([bool(segs) for segs in segments])
    if not flagged.size:
        return
    spline_correct(rows, segments, fs=fs)
    series_of = flagged // len(longs)
    for series in np.unique(series_of):
        mine = flagged[series_of == series]
        rows[mine] = wavelet_correct(rows[mine], iqr_multiplier=config.motion_iqr)


def _preprocess(recordings, montage, config: PipelineConfig) -> list[HemoSeries]:
    """Preprocess recordings, in order, into hemo series.

    Each recording's hemoglobin series come from its own intensities, into
    one stack per (sample rate, length). One spline call fits the flagged
    rows of a stack, and one band-pass call per sample rate filters all of
    its stacks, whatever their lengths. Every row comes out exactly as it
    would on its own, so a recording's result does not depend on which
    others share the calls.
    """
    spec = config.bandpass_spec()
    extinction = optics.default_extinction_table()
    longs = montage.long_channels
    groups: dict[tuple[float, int], list[int]] = {}
    for i, rec in enumerate(recordings):
        groups.setdefault((rec.sample_rate_hz, rec.n_samples), []).append(i)
    # (recording, chromophore, channel, sample); chromophore 0 is hbo.
    stacks = {
        key: np.empty((len(members), 2, len(longs), key[1]))
        for key, members in groups.items()
    }
    provenance = [None] * len(recordings)
    for key, members in groups.items():
        for i, out in zip(members, stacks[key]):
            provenance[i] = _hemoglobin(recordings[i], montage, config, extinction, out)
    steps = []

    if config.motion_correction:
        for (fs, n), stack in stacks.items():
            _correct_motion(stack.reshape(-1, n), fs, longs, config)
        steps.append(
            ProvenanceStep.make(
                "motion_correction",
                order="spline_then_wavelet",
                amp_sigma=config.motion_amp_sigma,
                iqr_multiplier=config.motion_iqr,
            )
        )

    rates: dict[float, list[tuple[float, int]]] = {}
    for key in stacks:
        rates.setdefault(key[0], []).append(key)
    for fs, keys in rates.items():
        stacks.update(zip(keys, bandpass([stacks[key] for key in keys], spec, fs)))
    steps.append(
        ProvenanceStep.make(
            "bandpass",
            low_cut_hz=spec.low_cut_hz,
            high_cut_hz=spec.high_cut_hz,
            order=spec.order,
            zero_phase=spec.zero_phase,
        )
    )

    hemo = [None] * len(recordings)
    for key, members in groups.items():
        for i, series in zip(members, stacks[key]):
            hemo[i] = series
    return [
        HemoSeries(
            participant_id=rec.participant_id,
            group=rec.group,
            sample_rate_hz=rec.sample_rate_hz,
            channel_ids=tuple(ch.id for ch in longs),
            hbo=hbo,
            hbr=hbr,
            annotations=rec.annotations,
            provenance=tuple(prov + steps),
        )
        for rec, prov, (hbo, hbr) in zip(recordings, provenance, hemo)
    ]


def preprocess_recording(recording, montage, config: PipelineConfig) -> HemoSeries:
    """Raw intensities to band-limited hemoglobin concentration changes.

    Order: optical density, short-channel regression (per wavelength, on
    OD), Beer-Lambert inversion, spline + wavelet motion correction, then
    the band-pass. Every step is recorded in the provenance.
    """
    return _preprocess([recording], montage, config)[0]


def preprocess_dataset(dataset: Dataset, config: PipelineConfig) -> Dataset:
    """Preprocess every recording into a hemo-series dataset.

    Consecutive recordings of at most _CHUNK_CELLS hemoglobin samples in
    all are preprocessed together: one band-pass call per sample rate and
    one spline call per (sample rate, length). Each recording comes out
    exactly as ``preprocess_recording`` gives it.
    """
    if dataset.kind != "intensity":
        return dataset
    per_sample = 2 * len(dataset.montage.long_channels)
    hemo, chunk, cells = [], [], 0
    for rec in dataset.recordings:
        if chunk and cells + per_sample * rec.n_samples > _CHUNK_CELLS:
            hemo += _preprocess(chunk, dataset.montage, config)
            chunk, cells = [], 0
        chunk.append(rec)
        cells += per_sample * rec.n_samples
    hemo += _preprocess(chunk, dataset.montage, config)
    return Dataset(
        montage=dataset.montage,
        hemo=tuple(hemo),
        creator=dataset.creator,
        seed=dataset.seed,
    )


def epochs_from_dataset(dataset: Dataset, config: PipelineConfig) -> EpochSet:
    if dataset.kind != "hemo":
        raise ValueError("epoching needs a preprocessed (hemo) dataset")
    return merge_epoch_sets(
        epochs_mod.segment(h, window_s=config.window_s, baseline_s=config.baseline_s)
        for h in dataset.hemo
    )


def synthesize(config: PipelineConfig):
    """The synthetic dataset and ground truth that ``config`` describes."""
    return synth.generate_dataset(
        n_patients=config.patients,
        n_controls=config.controls,
        trials_per_task=config.trials_per_task,
        effect=config.effect_spec(),
        seed=config.seed,
    )


def metrics_text(config: PipelineConfig, cv) -> str:
    """The metrics.txt report: the run settings, then per-fold and pooled metrics."""
    rows = [(f"fold {fr.fold_index}", fr.metrics) for fr in cv.folds]
    rows.append(("pooled", cv.pooled))
    return (
        f"model = {config.model}, task = {config.task}, "
        f"mode = {config.feature_mode}, k = {cv.select_k}, folds = {config.folds}, "
        f"seed = {config.seed}\n\n"
        + report.metrics_table(rows, ("fold", "accuracy", "precision", "recall", "f1"))
    )


def _pooled_observations(epochs, ci: int, chromophore: str, pool: str) -> np.ndarray:
    """One channel/chromophore of ``epochs``: every sample, or one mean per trial."""
    windows = [getattr(ep, chromophore)[ci] for ep in epochs]
    if not windows:
        return np.array([])
    if pool == "sample":
        return np.concatenate(windows)
    return np.array([w.mean() for w in windows])


def _stats_report(epoch_set: EpochSet, importance, config: PipelineConfig, montage) -> str:
    by_group = [
        epoch_set.filter(task=config.task, group=group).epochs
        for group in ("control", "patient")
    ]
    lines = ["Group statistics", "================", ""]
    # A pair with zero importance sits in the ranking only by its name's
    # place in a tie; testing it would report a channel no model used.
    tested = [(ch, chrom) for ch, chrom, v in importance.top(config.top_channels) if v > 0]
    if len(tested) < config.top_channels:
        lines += [
            f"Only {len(tested)} channel/chromophore pairs have nonzero importance "
            f"(top_channels = {config.top_channels}); only those are tested.",
            "",
        ]
    for channel, chrom in tested:
        ci = epoch_set.channel_ids.index(channel)
        control, patient = (
            _pooled_observations(eps, ci, chrom, config.pool) for eps in by_group
        )
        if control.size < 2 or patient.size < 2:
            continue
        pooled = stats.t_test(control, patient, equal_variance=True)
        welch = stats.t_test(control, patient, equal_variance=False)
        lev = stats.levene([control, patient])
        lines.append(
            f"{channel} {chrom} (pool={config.pool}, "
            f"n_control={control.size}, n_patient={patient.size})"
        )
        lines.append(
            f"  pooled t = {pooled.statistic: .4f}, df = {pooled.df:.1f}, "
            f"p = {pooled.p_two_sided:.4g}, mean diff = {pooled.mean_difference:.4g}"
        )
        lines.append(
            f"  welch  t = {welch.statistic: .4f}, df = {welch.df:.2f}, "
            f"p = {welch.p_two_sided:.4g}"
        )
        lines.append(
            f"  levene F = {lev.statistic:.4f}, p = {lev.p_two_sided:.4g}"
        )
        lines.append("")
    lines.append("Hemisphere ROI one-way ANOVA (task mean per trial)")
    for roi in ("left_motor", "right_motor"):
        members = montage.roi_map.get(roi)
        if not members:
            continue
        for chrom in ("hbo", "hbr"):
            groups = [
                [
                    float(
                        epochs_mod.roi_average(
                            getattr(ep, chrom), epoch_set.channel_ids, members
                        ).mean()
                    )
                    for ep in eps
                ]
                for eps in by_group
            ]
            if min(len(g) for g in groups) < 2:
                continue
            res = stats.one_way_anova(groups)
            lines.append(
                f"  {roi} {chrom}: F = {res.statistic:.4f}, "
                f"df = ({res.df[0]:.0f}, {res.df[1]:.0f}), p = {res.p_two_sided:.4g}"
            )
    return "\n".join(lines) + "\n"


def _preprocessing_lines(hemo) -> list[str]:
    """The preprocessing steps of every participant for provenance.txt: one
    block per distinct step sequence, naming its participants unless all of
    them share it."""
    sequences: dict[tuple[str, ...], list[str]] = {}
    for series in hemo:
        steps = tuple(f"  {step.name}: {dict(step.params)}" for step in series.provenance)
        sequences.setdefault(steps, []).append(series.participant_id)
    lines = []
    for steps, ids in sequences.items():
        if len(sequences) == 1:
            lines.append(f"preprocessing steps (all {len(ids)} participants):")
        else:
            lines.append(
                f"preprocessing steps ({len(ids)} of {len(hemo)} participants: "
                f"{', '.join(ids)}):"
            )
        lines += [*steps, ""]
    return lines


def _peak_roi(montage) -> tuple[str, tuple[str, ...]]:
    if "supramarginal_angular" in montage.roi_map:
        return "supramarginal_angular", montage.roi_map["supramarginal_angular"]
    name = sorted(montage.roi_map)[0] if montage.roi_map else "all"
    members = montage.roi_map.get(name, tuple(ch.id for ch in montage.long_channels))
    return name, members


def _emit_block_average_curves(path: Path, epoch_set: EpochSet, task: str, pairs, title: str):
    """Group mean and std curves in umol/L, one panel per (channel, chromophore).

    Groups without epochs for the task are left out of every panel.
    """
    averages = []
    for group, color in (("control", "#4472c4"), ("patient", "#c0504d")):
        try:
            averages.append((group, color, epochs_mod.block_average(epoch_set, task, group=group)))
        except ValueError:
            continue
    panels = []
    for channel, chrom in pairs:
        ci = epoch_set.channel_ids.index(channel)
        curves = [
            (
                group,
                getattr(avg, f"{chrom}_mean")[ci] * _MICROMOLAR,
                getattr(avg, f"{chrom}_std")[ci] * _MICROMOLAR,
                color,
            )
            for group, color, avg in averages
        ]
        if curves:
            panels.append((f"{channel} {chrom}", curves))
    report.emit_svg_curves(
        panels,
        epoch_set.sample_rate_hz,
        path,
        title=title,
        y_label="concentration change (umol/L)",
    )


def _time_to_peak_svg(epoch_set: EpochSet, task: str, roi) -> str:
    """Per-participant time to peak of the ROI mean response, hbo above hbr."""
    roi_name, roi_members = roi
    task_epochs: dict[str, list] = {}
    for ep in epoch_set.filter(task=task).epochs:
        task_epochs.setdefault(ep.participant_id, []).append(ep)
    sections = []
    for chrom in ("hbo", "hbr"):
        entries = []
        for pid, group in epoch_set.participants:
            if pid not in task_epochs:
                continue
            mean_curve = np.mean(
                [
                    epochs_mod.roi_average(
                        getattr(ep, chrom), epoch_set.channel_ids, roi_members
                    )
                    for ep in task_epochs[pid]
                ],
                axis=0,
            )
            ttp = epochs_mod.time_to_peak(mean_curve, epoch_set.sample_rate_hz, chrom)
            entries.append((pid, group, ttp))
        sections.append(
            report.svg_group_bars(
                entries,
                title=f"Time to peak {chrom}, ROI {roi_name}, {task} task",
                y_label="time to peak (s)",
            )
        )
    return _stack_svgs(sections)


class _Outputs:
    """Report files of one run in ``out_dir``, and the stage the run is in.

    Used as a context manager: an exception inside it removes every file
    registered so far and is raised again as a PipelineError naming the stage.
    ``out_dir`` is created when the first file is registered, so a run that
    writes nothing leaves no directory behind.
    """

    def __init__(self, out_dir):
        self.dir = Path(out_dir)
        self.written: list[Path] = []
        self.stage = "ingest"

    def path(self, name: str) -> Path:
        """Register ``name`` as an output and return where to write it."""
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / name
        self.written.append(path)
        return path

    def emit(self, name: str, text: str):
        self.path(name).write_text(text, encoding="utf-8", newline="\n")

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, kind, error, traceback):
        if not isinstance(error, Exception):
            return False
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass
        raise PipelineError(self.stage, error) from error


def _shared_stages(out: _Outputs, config: PipelineConfig, classify: bool):
    """Ingest, preprocess and epoch; with ``classify``, then features and train.

    Returns (dataset, ground truth or None, hemo dataset, epochs, cross
    validation or None). ``out.stage`` names each stage as it starts.
    """
    ground_truth = None
    if config.dataset_path is None:
        dataset, ground_truth = synthesize(config)
    else:
        dataset = load_dataset(config.dataset_path)

    out.stage = "preprocess"
    hemo_dataset = preprocess_dataset(dataset, config)

    out.stage = "epoch"
    epoch_set = epochs_from_dataset(hemo_dataset, config)
    if not classify:
        return dataset, ground_truth, hemo_dataset, epoch_set, None

    out.stage = "features"
    mode = FeatureMode(config.feature_mode)
    per_pair = epoch_set.window_samples if mode is FeatureMode.RAW else len(SUMMARY_STATS)
    n_features = len(epoch_set.channel_ids) * 2 * per_pair
    select_k = config.select_k
    if select_k is None:
        select_k = min(default_select_k(mode), n_features)
    if not 1 <= select_k <= n_features:
        raise ValueError(
            f"select_k={select_k} outside [1, {n_features}] for mode {mode.value}"
        )

    out.stage = "train"
    plan = learn.make_fold_plan(
        hemo_dataset.participants, n_folds=config.folds, seed=config.seed
    )
    cv = learn.cross_validate(
        epoch_set,
        config.task,
        config.classifier_spec(),
        plan,
        mode=mode,
        select_k=select_k,
    )
    return dataset, ground_truth, hemo_dataset, epoch_set, cv


def train(config: PipelineConfig) -> learn.CrossValidation:
    """Cross-validate the configured classifier; writes no files.

    Fails like run_pipeline: a PipelineError names the stage.
    """
    with _Outputs(config.out_dir) as out:
        return _shared_stages(out, config, classify=True)[-1]


def run_pipeline(config: PipelineConfig):
    """Execute the full analysis and write the report artifacts.

    Returns a dict with the in-memory results and output paths. On error,
    any partially written artifacts are removed and a PipelineError naming
    the failing stage is raised.
    """
    with _Outputs(config.out_dir) as out:
        stages = _shared_stages(out, config, classify=True)
        dataset, ground_truth, hemo_dataset, epoch_set, cv = stages

        out.stage = "explain"
        importance, attributions, group_keys = explain.attribute_cross_validation(
            cv, n_samples=config.shap_samples, seed=config.seed
        )

        out.stage = "stats"
        stats_text = _stats_report(epoch_set, importance, config, hemo_dataset.montage)

        out.stage = "report"
        out.emit("metrics.txt", metrics_text(config, cv))

        csv_lines = ["channel,chromophore,mean_abs_shap"]
        csv_lines += [
            f"{ch},{chrom},{value:.12g}" for ch, chrom, value in importance.entries
        ]
        out.emit("channel_importance.csv", "\n".join(csv_lines) + "\n")

        top_entries = importance.top(10)
        report.emit_svg_bar(
            [v for _, _, v in top_entries],
            [f"{ch} {chrom}" for ch, chrom, _ in top_entries],
            out.path("channel_importance.svg"),
            title=f"Channel importance ({config.model}, {config.task} task, "
            f"summed over {cv.mode.value} features)",
            y_label="mean |attribution|",
        )

        _emit_block_average_curves(
            out.path("block_average_curves.svg"),
            epoch_set,
            config.task,
            [(ch, chrom) for ch, chrom, _ in importance.top(config.top_channels)],
            title=f"Group mean responses, {config.task} task",
        )
        out.emit(
            "time_to_peak.svg",
            _time_to_peak_svg(epoch_set, config.task, _peak_roi(hemo_dataset.montage)),
        )

        out.emit("stats_tests.txt", stats_text)

        provenance_lines = [
            f"nirscope {__version__}",
            "config:",
            json.dumps(_config_json(config), indent=2, sort_keys=True),
            "",
            *_preprocessing_lines(hemo_dataset.hemo),
            f"fold plan seed: {config.seed}",
            *(f"  fold {fr.fold_index}: test = {', '.join(fr.test_ids)}" for fr in cv.folds),
        ]
        out.emit("provenance.txt", "\n".join(provenance_lines) + "\n")

        return {
            "out_dir": out.dir,
            "dataset": dataset,
            "ground_truth": ground_truth,
            "epochs": epoch_set,
            "cv": cv,
            "importance": importance,
            "attributions": attributions,
            "group_keys": group_keys,
            "stats_text": stats_text,
            "files": [out.dir / name for name in REPORT_FILES],
        }


def descriptive_report(config: PipelineConfig) -> list[Path]:
    """Block-average curves and time-to-peak bars without any training.

    Fails like run_pipeline: partial outputs removed, the stage named.
    """
    with _Outputs(config.out_dir) as out:
        _, _, hemo_dataset, epoch_set, _ = _shared_stages(out, config, classify=False)

        out.stage = "report"
        roi = _peak_roi(hemo_dataset.montage)
        _emit_block_average_curves(
            out.path("block_average_curves.svg"),
            epoch_set,
            config.task,
            [(ch, chrom) for ch in roi[1] for chrom in ("hbo", "hbr")],
            title=f"Group mean responses, {config.task} task, ROI {roi[0]}",
        )
        out.emit("time_to_peak.svg", _time_to_peak_svg(epoch_set, config.task, roi))
        return list(out.written)


def _stack_svgs(svgs: list[str]) -> str:
    # Independent SVG documents concatenated vertically into one document.
    import re

    inner = []
    total_h = 0
    width = 0
    for svg in svgs:
        m = re.search(r'width="(\d+)" height="(\d+)"', svg)
        w, h = int(m.group(1)), int(m.group(2))
        body = svg[svg.index(">") + 1 : svg.rindex("</svg>")]
        inner.append(f'<g transform="translate(0 {total_h})">{body}</g>')
        total_h += h
        width = max(width, w)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{total_h}" viewBox="0 0 {width} {total_h}">'
        + "".join(inner)
        + "</svg>\n"
    )


def _config_json(config: PipelineConfig) -> dict:
    out = asdict(config)
    out["effect_channels"] = list(config.effect_channels)
    del out["out_dir"]  # where the report lands, not an analysis parameter
    return out
