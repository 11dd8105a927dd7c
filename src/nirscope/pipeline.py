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
import math
import os
import types
import typing
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, epochs as epochs_mod, explain, learn, optics, report, stats, synth
from .features import FEATURE_MODES, column_count
from .model import (
    CHROMOPHORES, GROUPS, Dataset, EpochSet, HemoSeries, ProvenanceStep, Recording,
    load_dataset,
)
# perfbench/tracer.py wraps ``pipeline.detect_artifacts``, the one-row
# detector, which no run calls; the name stays bound so that the tracer
# finds its target, and the pipeline calls the stack detector. The tracer
# also wraps ``pipeline.bandpass``, ``pipeline.spline_correct`` and
# ``pipeline.wavelet_correct``, so the pipeline calls them through the names
# bound here.
from .motion import detect_artifact_stack, detect_artifacts  # noqa: F401
from .motion import spline_correct, wavelet_correct
from .signal import BandpassSpec, bandpass, match_short_channel, short_channel_regress

__all__ = [
    "PipelineConfig",
    "PipelineError",
    "MODELS",
    "POOLS",
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


class PipelineError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline failed in stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


# The values of each choice field; the CLI offers the same.
MODELS = learn.MODELS
POOLS = ("sample", "trial")
_CHOICES = {"model": MODELS, "feature_mode": FEATURE_MODES, "pool": POOLS,
            "effect_chromophore": CHROMOPHORES}
# Bounds no spec checks: the least value of each field, and the value each
# field must exceed.
_AT_LEAST = {"patients": 1, "controls": 1, "trials_per_task": 1, "shap_samples": 1,
             "top_channels": 1, "select_k": 1, "folds": 2, "seed": 0, "baseline_s": 0,
             "motion_iqr": 0}
_ABOVE = {"window_s": 0, "motion_amp_sigma": 0}
# Float fields where +inf switches a motion trigger off; every other float
# field must be finite.
_INF_OFF = ("motion_amp_sigma", "motion_iqr")


def _has_type(value, hint) -> bool:
    """Whether ``value`` has the annotated type: an int passes for a float,
    a bool never for an int, and a tuple is checked item by item."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_has_type(v, item) for v in value)
    if hint is float:
        hint = (int, float)
    if hint is not bool and isinstance(value, bool):
        return False
    return isinstance(value, hint)


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting a run can vary, checked when made; an error names the
    field. Checks that need the data (the Nyquist limit, select_k against
    the feature count, folds against group sizes, effect channels against
    the montage) run in the stages that have it."""

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
    pool: str = "sample"

    def __post_init__(self):
        for name, hint in typing.get_type_hints(PipelineConfig).items():
            value = getattr(self, name)
            if not _has_type(value, hint):
                shown = hint.__name__ if isinstance(hint, type) else hint
                raise ValueError(f"{name}: must be {shown}, got {type(value).__name__} {value!r}")
            if isinstance(value, float) and not (
                math.isfinite(value) or name in _INF_OFF and value == math.inf
            ):
                allowed = "finite or inf" if name in _INF_OFF else "finite"
                raise ValueError(f"{name}: must be {allowed}, got {value!r}")
            if name in _AT_LEAST and value is not None and not value >= _AT_LEAST[name]:
                raise ValueError(f"{name}: must be >= {_AT_LEAST[name]}, got {value!r}")
            if name in _ABOVE and not value > _ABOVE[name]:
                raise ValueError(f"{name}: must be > {_ABOVE[name]}, got {value!r}")
            if name in _CHOICES and value not in _CHOICES[name]:
                raise ValueError(f"{name}: must be one of {list(_CHOICES[name])}, got {value!r}")
        if not self.task:
            raise ValueError("task: must name a task, got ''")
        # The specs check the rules they hold, each over its own fields; the
        # effect's are checked whether or not a channel expresses it.
        for build, names in (
            (self.bandpass_spec, "low_cut_hz, high_cut_hz, filter_order"),
            (self._effect, "effect_channels, amplitude_ratio, peak_delay_s"),
        ):
            try:
                build()
            except ValueError as e:
                raise ValueError(f"{names}: {e}") from e

    def bandpass_spec(self) -> BandpassSpec:
        return BandpassSpec(
            low_cut_hz=self.low_cut_hz,
            high_cut_hz=self.high_cut_hz,
            order=self.filter_order,
        )

    def classifier_spec(self) -> learn.ClassifierSpec:
        return learn.ClassifierSpec(kind=MODELS[self.model], seed=self.seed)

    def effect_spec(self) -> synth.EffectSpec | None:
        return self._effect() if self.effect_channels else None

    def _effect(self) -> synth.EffectSpec:
        return synth.EffectSpec(
            target_channels=self.effect_channels,
            amplitude_ratio=self.amplitude_ratio,
            peak_delay_s=self.peak_delay_s,
            chromophore=self.effect_chromophore,
        )


def _hemoglobin(recording, montage, config: PipelineConfig, extinction, out) -> list:
    """Optical density, short-channel regression and Beer-Lambert inversion
    of one recording into ``out`` (2, long channels, samples): hbo, then hbr.
    Each step is one call over the recording's (2, channels, samples) array;
    short-channel regression takes the long rows of both wavelengths at once.
    Returns the provenance of these steps."""
    wl = recording.wavelengths_nm
    index = {c: i for i, c in enumerate(recording.channel_ids)}
    longs = montage.long_channels
    long_rows = np.array([index[ch.id] for ch in longs])
    provenance = [ProvenanceStep.make("intensity_to_od", reference="series_mean")]

    od = optics.intensity_to_od(recording.intensity)

    if config.short_channel and montage.short_channels:
        short_rows = np.array([index[match_short_channel(montage, ch.id)] for ch in longs])
        short = od[:, short_rows]
        # A constant short channel has nothing to regress out.
        wls, kept = np.nonzero(np.ptp(short, axis=-1) != 0.0)
        if kept.size:
            rows = long_rows[kept]
            od[wls, rows] = short_channel_regress(od[wls, rows], short[wls, kept])
        provenance.append(
            ProvenanceStep.make("short_channel_regression", method="shared_source")
        )

    out[...] = optics.mbll_invert(
        od[:, long_rows], wl, [ch.distance_m for ch in longs], extinction
    )
    provenance.append(
        ProvenanceStep.make(
            "mbll_invert",
            wavelengths_nm=list(wl),
            dpf=[extinction.pathlength_factor(w) for w in wl],
        )
    )
    return provenance


def _correct_motion(hemo: np.ndarray, fs: float, config: PipelineConfig) -> None:
    """Spline + wavelet motion correction, in place, of the rows of one
    recording's (2, long channels, samples) hemoglobin that have detected
    artifacts.

    Rows with no detected artifacts are left untouched, so clean recordings
    survive motion correction bit-for-bit. One detection call covers every
    row, one spline call fits every segment and one wavelet call corrects
    the flagged rows.
    """
    rows = hemo.reshape(-1, hemo.shape[-1])
    segments = detect_artifact_stack(rows, fs, config.motion_amp_sigma)
    flagged = np.unique(segments.row)
    if not flagged.size:
        return
    spline_correct(rows, segments, fs)
    rows[flagged] = wavelet_correct(rows[flagged], iqr_multiplier=config.motion_iqr)


# The hemoglobin bytes of one batch of recordings: 13 default recordings,
# (2, 20 long channels, 1638 samples) of float64, 524,160 B each.
_BATCH_BYTES = int(6.5 * 2**20)


def _preprocess(
    recordings: Iterable[Recording], montage, config: PipelineConfig
) -> Iterator[list[HemoSeries]]:
    """Preprocess recordings of one sample rate, as a ``Dataset``'s are, in
    the order given, into batches of hemo series.

    Each recording's hemoglobin is formed from its intensities into the next
    slice of one block of ``_BATCH_BYTES`` and motion-corrected there before
    the next recording is taken, and nothing here keeps the recording, so
    one that only ``recordings`` held is released before the next is read.
    When the next recording would not fit, the block is band-passed in place
    in one call and its series are yielded; a recording larger than the
    budget gets a block of its own size. Every row comes out exactly as it
    would on its own, so a recording's result does not depend on which
    others share its batch.
    """
    extinction = optics.default_extinction_table()
    spec = config.bandpass_spec()
    longs = montage.long_channels
    steps = []
    if config.motion_correction:
        steps.append(
            ProvenanceStep.make(
                "motion_correction",
                order="spline_then_wavelet",
                amp_sigma=config.motion_amp_sigma,
                iqr_multiplier=config.motion_iqr,
            )
        )
    steps.append(
        ProvenanceStep.make(
            "bandpass",
            low_cut_hz=spec.low_cut_hz,
            high_cut_hz=spec.high_cut_hz,
            order=spec.order,
            zero_phase=True,  # bandpass is always zero-phase; the record keeps saying so
        )
    )
    channel_ids = tuple(ch.id for ch in longs)

    def batch_series(batch: list, block: np.ndarray) -> list[HemoSeries]:
        # Consecutive recordings of one length lie side by side in the block,
        # so each such run is one (rows, samples) view of it, and the batch's
        # runs take one band-pass call at its one rate.
        runs, end = [], 0  # [length, first, end] in the block
        for *_, hemo in batch:
            if runs and runs[-1][0] == hemo.shape[-1]:
                runs[-1][2] += hemo.size
            else:
                runs.append([hemo.shape[-1], end, end + hemo.size])
            end += hemo.size
        views = [block[a:b].reshape(-1, n) for n, a, b in runs]
        bandpass(views, spec, batch[0][2], out=views)
        return [
            HemoSeries(
                participant_id=pid,
                group=group,
                sample_rate_hz=fs,
                channel_ids=channel_ids,
                hemo=hemo,
                annotations=annotations,
                provenance=tuple(provenance + steps),
            )
            for pid, group, fs, annotations, provenance, hemo in batch
        ]

    batch, block, used = [], np.empty(0), 0
    for recording in recordings:
        fs = recording.sample_rate_hz
        shape = (2, len(longs), recording.n_samples)
        size = math.prod(shape)
        if used + size > block.size:
            if batch:
                yield batch_series(batch, block)
            batch = block = None  # released before the next block is made
            # A block of the budget's size is larger than any array freed
            # before it (the wavelet gather frees 2.6 MB), so glibc maps it
            # apart from the heap and unmaps it whole when its batch goes:
            # one array per recording would leave holes that later arrays
            # fragment.
            block, batch, used = np.empty(max(_BATCH_BYTES // 8, size)), [], 0
        hemo = block[used : used + size].reshape(shape)
        used += size
        provenance = _hemoglobin(recording, montage, config, extinction, hemo)
        if config.motion_correction:
            _correct_motion(hemo, fs, config)
        batch.append((recording.participant_id, recording.group, fs, recording.annotations,
                      provenance, hemo))
        del recording, hemo  # not held while the next one is read
    if batch:
        yield batch_series(batch, block)


def preprocess_recording(recording, montage, config: PipelineConfig) -> HemoSeries:
    """Raw intensities to band-limited hemoglobin concentration changes.

    Order: optical density, short-channel regression (per wavelength, on
    OD), Beer-Lambert inversion, spline + wavelet motion correction, then
    the band-pass. Every step is recorded in the provenance. The recording
    is one batch of ``_preprocess``, and this is its one series.
    """
    return next(_preprocess([recording], montage, config))[0]


def preprocess_dataset(dataset: Dataset, config: PipelineConfig) -> Dataset:
    """Preprocess every recording into a hemo-series dataset.

    The recordings are preprocessed in batches, and the dataset holds the
    series of every batch. Each recording comes out exactly as
    ``preprocess_recording`` gives it.

    The dataset is never changed. A recording that nothing but ``dataset``
    references, as when the caller passes a dataset it does not keep, is
    released as soon as its hemoglobin is formed, so the raw intensities
    and the hemoglobin are not all held at once.
    """
    if dataset.kind != "intensity":
        return dataset
    montage, creator, seed = dataset.montage, dataset.creator, dataset.seed
    recordings = list(dataset.recordings)
    del dataset  # the caller's reference, if any, is now the only other one
    batches = _preprocess(_released(recordings), montage, config)
    hemo = tuple(series for batch in batches for series in batch)
    return Dataset(montage=montage, hemo=hemo, creator=creator, seed=seed)


def _released(recordings: list) -> Iterator[Recording]:
    """The recordings of the list in order, each removed from it as it is read."""
    recordings.reverse()
    while recordings:
        yield recordings.pop()


def epochs_from_dataset(dataset: Dataset, config: PipelineConfig) -> EpochSet:
    if dataset.kind != "hemo":
        raise ValueError("epoching needs a preprocessed (hemo) dataset")
    return epochs_mod.segment(
        dataset.hemo, window_s=config.window_s, baseline_s=config.baseline_s
    )


def synthesize(config: PipelineConfig):
    """The synthetic dataset and ground truth that ``config`` describes."""
    return synth.generate_dataset(*_synthetic_args(config))


def _synthetic_args(config: PipelineConfig) -> tuple:
    """The arguments of synth's generators that ``config`` sets."""
    return (config.patients, config.controls, config.trials_per_task, config.effect_spec(),
            config.seed)


def metrics_text(config: PipelineConfig, cv) -> str:
    """The metrics.txt report: the run settings, then per-fold and pooled metrics."""
    rows = [(f"fold {i}", fr.metrics) for i, fr in enumerate(cv.folds)]
    rows.append(("pooled", cv.pooled))
    return (
        f"model = {config.model}, task = {config.task}, "
        f"mode = {config.feature_mode}, k = {cv.select_k}, folds = {config.folds}, "
        f"seed = {config.seed}\n\n"
        + report.metrics_table(rows, ("fold", "accuracy", "precision", "recall", "f1"))
    )


def _pooled_observations(windows: np.ndarray, pool: str) -> np.ndarray:
    """(trials, window) of one channel/chromophore: every sample, or one mean per trial."""
    return windows.reshape(-1) if pool == "sample" else windows.mean(axis=-1)


def _stats_report(epoch_set: EpochSet, importance, config: PipelineConfig, montage) -> str:
    by_group = [epoch_set.rows(task=config.task, group=group) for group in GROUPS]
    lines = ["Group statistics", "================", ""]
    tested = [(ch, chrom) for ch, chrom, _ in importance.top(config.top_channels)]
    if len(tested) < config.top_channels:
        lines += [
            f"Only {len(tested)} channel/chromophore pairs have nonzero importance "
            f"(top_channels = {config.top_channels}); only those are tested.",
            "",
        ]
    for channel, chrom in tested:
        k, ci = CHROMOPHORES.index(chrom), epoch_set.channel_ids.index(channel)
        control, patient = (
            _pooled_observations(epoch_set.hemo[rows, k, ci], config.pool) for rows in by_group
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
        for k, chrom in enumerate(CHROMOPHORES):
            trial_means = epochs_mod.roi_average(
                epoch_set.hemo[:, k], epoch_set.channel_ids, members
            ).mean(axis=-1)
            groups = [trial_means[rows] for rows in by_group]
            if min(g.size for g in groups) < 2:
                continue
            res = stats.one_way_anova(groups)
            lines.append(
                f"  {roi} {chrom}: F = {res.statistic:.4f}, "
                f"df = ({res.df[0]:.0f}, {res.df[1]:.0f}), p = {res.p_two_sided:.4g}"
            )
    return "\n".join(lines) + "\n"


def _preprocessing_lines(provenances: list[tuple[str, tuple[ProvenanceStep, ...]]]) -> list[str]:
    """The preprocessing steps of every participant for provenance.txt, from
    each series' (participant id, provenance): one block per distinct step
    sequence, naming its participants unless all of them share it."""
    sequences: dict[tuple[str, ...], list[str]] = {}
    for pid, provenance in provenances:
        steps = tuple(f"  {step.name}: {dict(step.params)}" for step in provenance)
        sequences.setdefault(steps, []).append(pid)
    lines = []
    for steps, ids in sequences.items():
        if len(sequences) == 1:
            lines.append(f"preprocessing steps (all {len(ids)} participants):")
        else:
            lines.append(
                f"preprocessing steps ({len(ids)} of {len(provenances)} participants: "
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
    for group, color in report.GROUP_COLORS.items():
        try:
            averages.append((group, color, epochs_mod.block_average(epoch_set, task, group=group)))
        except ValueError:
            continue
    panels = []
    for channel, chrom in pairs:
        k, ci = CHROMOPHORES.index(chrom), epoch_set.channel_ids.index(channel)
        curves = [
            (group, avg.mean[k, ci] * _MICROMOLAR, avg.std[k, ci] * _MICROMOLAR, color)
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
    # (trials, 2, window), then one (2, window) mean per participant with a trial
    curves = epochs_mod.roi_average(epoch_set.hemo, epoch_set.channel_ids, roi_members)
    present, means = epochs_mod.participant_means(epoch_set, curves, task)
    sections = []
    for k, chrom in enumerate(CHROMOPHORES):
        latencies = epochs_mod.time_to_peak(means[:, k], epoch_set.sample_rate_hz, chrom)
        entries = [
            (*epoch_set.participants[row], latency)
            for row, latency in zip(present.tolist(), latencies.tolist())
        ]
        sections.append(
            report.svg_group_bars(
                entries,
                title=f"Time to peak {chrom}, ROI {roi_name}, {task} task",
                y_label="time to peak (s)",
            )
        )
    return report.svg_stack(sections)


class _Outputs:
    """Report files of one run in ``out_dir``, the stage the run is in, and
    whether the run preprocessed its data (``preprocessed``).

    Used as a context manager: an exception inside it removes every file
    registered so far, and each directory the run made for ``out_dir`` that
    is left empty, and is raised again as a PipelineError naming the stage.
    ``out_dir`` is created when the first file is registered, so a run that
    writes nothing leaves no directory behind.
    """

    def __init__(self, out_dir):
        self.dir = Path(out_dir)
        self.written: list[Path] = []
        self.stage = "ingest"
        self.preprocessed = False
        self.made_dirs: list[Path] = []  # out_dir first, then the parents it needed

    def path(self, name: str) -> Path:
        """Register ``name`` as an output and return where to write it."""
        if not self.dir.is_dir():
            missing = [d for d in (self.dir, *self.dir.parents) if not d.exists()]
            self.dir.mkdir(parents=True)
            self.made_dirs = missing
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
        for made in self.made_dirs:
            try:
                made.rmdir()  # refused, and it and its parents kept, if anything else is in it
            except OSError:
                break
        raise PipelineError(self.stage, error) from error


def _ingest(config: PipelineConfig):
    """The montage of the run's data, its hemo series in batches, and
    whether the run preprocesses them. Raw recordings are preprocessed as
    the batches are pulled, each kept by nothing once its hemoglobin is
    formed: synthetic ones are generated as preprocessing reaches them. A
    preprocessed container's series are one batch."""
    if config.dataset_path is None:
        montage = synth.default_montage()
        recordings = synth.generate_recordings(*_synthetic_args(config))
        return montage, _preprocess(recordings, montage, config), True
    dataset = load_dataset(config.dataset_path)
    if dataset.kind == "hemo":
        return dataset.montage, iter([list(dataset.hemo)]), False
    recordings = _released(list(dataset.recordings))
    return dataset.montage, _preprocess(recordings, dataset.montage, config), True


def _shared_stages(out: _Outputs, config: PipelineConfig, classify: bool):
    """Ingest, preprocess and epoch; with ``classify``, then features and train.

    Returns (montage, the preprocessing lines of provenance.txt, the epochs
    of ``config.task``, cross validation or None). ``out.stage`` names each
    stage as it starts: each batch is preprocessed, then cut. Each array is
    held only while a later stage reads it: a raw recording until its
    hemoglobin is formed, so one at a time, and a batch's hemoglobin until
    its epochs are cut; the batches' epochs are joined after the last
    batch is released.
    """
    montage, batches, out.preprocessed = _ingest(config)
    parts, provenances = [], []
    out.stage = "preprocess"
    for batch in batches:
        out.stage = "epoch"
        parts.append(epochs_mod.segment(batch, window_s=config.window_s,
                                        baseline_s=config.baseline_s, task=config.task))
        provenances += [(series.participant_id, series.provenance) for series in batch]
        del batch  # released before the next batch is preprocessed
        out.stage = "preprocess"
    out.stage = "epoch"
    epoch_set = epochs_mod.join(parts, config.task)
    del parts
    preprocessing = _preprocessing_lines(provenances)
    if not classify:
        return montage, preprocessing, epoch_set, None

    out.stage = "features"
    n_features = column_count(epoch_set, config.feature_mode)
    if config.select_k is not None and config.select_k > n_features:  # the config checks >= 1
        raise ValueError(
            f"select_k={config.select_k} outside [1, {n_features}] "
            f"for mode {config.feature_mode}"
        )

    out.stage = "train"
    plan = learn.make_fold_plan(epoch_set.participants, n_folds=config.folds, seed=config.seed)
    cv = learn.cross_validate(
        epoch_set,
        config.task,
        config.classifier_spec(),
        plan,
        mode=config.feature_mode,
        select_k=config.select_k,
    )
    return montage, preprocessing, epoch_set, cv


def train(config: PipelineConfig) -> learn.CrossValidation:
    """Cross-validate the configured classifier; writes no files.

    Fails like run_pipeline: a PipelineError names the stage.
    """
    with _Outputs(config.out_dir) as out:
        return _shared_stages(out, config, classify=True)[-1]


def run_pipeline(config: PipelineConfig):
    """Execute the full analysis and write the report artifacts.

    Returns a dict with the cross validation (``cv``), the channel ranking
    (``importance``) and the report paths (``files``). On error, any
    partially written artifacts are removed and a PipelineError naming the
    failing stage is raised.
    """
    with _Outputs(config.out_dir) as out:
        montage, preprocessing, epoch_set, cv = _shared_stages(out, config, classify=True)

        out.stage = "explain"
        importance = explain.attribute_cross_validation(
            cv, n_samples=config.shap_samples, seed=config.seed
        )[0]

        out.stage = "stats"
        stats_text = _stats_report(epoch_set, importance, config, montage)

        out.stage = "report"
        out.emit("metrics.txt", metrics_text(config, cv))

        csv_lines = ["channel,chromophore,mean_abs_shap"]
        csv_lines += [
            f"{ch},{chrom},{value:.12g}" for ch, chrom, value in importance.entries
        ]
        out.emit("channel_importance.csv", "\n".join(csv_lines) + "\n")

        # With no nonzero pair, the figures show the first pairs of the tie.
        bars = importance.top(10) or importance.entries[:10]
        panels = importance.top(config.top_channels) or importance.entries[: config.top_channels]
        report.emit_svg_bar(
            [v for _, _, v in bars],
            [f"{ch} {chrom}" for ch, chrom, _ in bars],
            out.path("channel_importance.svg"),
            title=f"Channel importance ({config.model}, {config.task} task, "
            f"summed over {cv.mode} features)",
            y_label="mean |attribution|",
        )

        _emit_block_average_curves(
            out.path("block_average_curves.svg"),
            epoch_set,
            config.task,
            [(ch, chrom) for ch, chrom, _ in panels],
            title=f"Group mean responses, {config.task} task",
        )
        out.emit(
            "time_to_peak.svg",
            _time_to_peak_svg(epoch_set, config.task, _peak_roi(montage)),
        )

        out.emit("stats_tests.txt", stats_text)

        provenance_lines = [
            f"nirscope {__version__}",
            "config:",
            json.dumps(_config_json(config, out.preprocessed), indent=2, sort_keys=True),
            "",
            *preprocessing,
            f"fold plan seed: {config.seed}",
            *(f"  fold {i}: test = {', '.join(fr.test_ids)}" for i, fr in enumerate(cv.folds)),
        ]
        out.emit("provenance.txt", "\n".join(provenance_lines) + "\n")

        return {
            "cv": cv,
            "importance": importance,
            "files": [out.dir / name for name in REPORT_FILES],
        }


def descriptive_report(config: PipelineConfig) -> list[Path]:
    """Block-average curves and time-to-peak bars without any training.

    Fails like run_pipeline: partial outputs removed, the stage named.
    """
    with _Outputs(config.out_dir) as out:
        montage, _, epoch_set, _ = _shared_stages(out, config, classify=False)

        out.stage = "report"
        roi = _peak_roi(montage)
        _emit_block_average_curves(
            out.path("block_average_curves.svg"),
            epoch_set,
            config.task,
            [(ch, chrom) for ch in roi[1] for chrom in CHROMOPHORES],
            title=f"Group mean responses, {config.task} task, ROI {roi[0]}",
        )
        out.emit("time_to_peak.svg", _time_to_peak_svg(epoch_set, config.task, roi))
        return list(out.written)


# Fields that only describe the synthetic data a run generates; a run on a
# dataset from disk never reads them.
_SYNTHETIC_FIELDS = ("patients", "controls", "trials_per_task", "effect_channels",
                     "amplitude_ratio", "peak_delay_s", "effect_chromophore")
# Fields that only set how raw intensities are preprocessed; a run on a
# preprocessed dataset never reads them, and its provenance lists the steps
# that made the dataset.
_PREPROCESSING_FIELDS = ("low_cut_hz", "high_cut_hz", "filter_order", "short_channel",
                         "motion_correction", "motion_amp_sigma", "motion_iqr")


def _config_json(config: PipelineConfig, preprocessed: bool) -> dict:
    """The config echoed in provenance.txt: the fields the run read."""
    out = asdict(config)
    del out["out_dir"]  # where the report lands, not an analysis parameter
    if config.dataset_path is not None:
        # The dataset's directory name only: where it sits on disk is not an
        # analysis parameter either.
        out["dataset_path"] = os.path.basename(os.path.abspath(config.dataset_path))
        for name in _SYNTHETIC_FIELDS:
            del out[name]
    if not preprocessed:
        for name in _PREPROCESSING_FIELDS:
            del out[name]
    return out
