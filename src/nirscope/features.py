"""Trial feature matrices, ANOVA-F scoring, k-best selection, standardization.

Column ordering is deterministic: channels in montage order, hbo before hbr,
slots (sample indices or summary statistics) in order. Labels are 0 for
controls and 1 for patients.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import EpochSet

__all__ = [
    "FeatureMode",
    "FeatureKey",
    "FeatureMatrix",
    "build_features",
    "anova_f_scores",
    "select_k_best",
    "standardize",
    "default_select_k",
]

LABELS = {"control": 0, "patient": 1}
SUMMARY_STATS = ("mean", "peak", "time_to_peak", "mean_slope")


class FeatureMode(str, Enum):
    RAW = "raw"  # every sample of every channel/chromophore
    SUMMARY = "summary"  # mean, peak, time-to-peak, mean slope per channel


def default_select_k(mode: FeatureMode) -> int:
    return 40 if mode is FeatureMode.RAW else 20


@dataclass(frozen=True)
class FeatureKey:
    """Descriptor of one column: channel, chromophore, and slot."""

    channel_id: str
    chromophore: str  # "hbo" | "hbr"
    slot: int | str  # sample index (raw) or statistic name (summary)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    x: np.ndarray  # (n_trials, n_features)
    y: np.ndarray  # (n_trials,) int labels
    participant_ids: tuple[str, ...]
    feature_index: tuple[FeatureKey, ...]

    def __post_init__(self):
        if not (self.x.shape[0] == self.y.shape[0] == len(self.participant_ids)):
            raise ValueError("x, y, and participant_ids row counts differ")
        if self.x.shape[1] != len(self.feature_index):
            raise ValueError("feature_index length does not match column count")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("feature matrix contains NaN or Inf")


def _summary_row(window: np.ndarray, fs: float, chromophore: str) -> list[float]:
    if chromophore == "hbo":
        peak_idx = int(np.argmax(window))
    else:
        peak_idx = int(np.argmax(np.abs(window - window[0])))
    slope = (window[-1] - window[0]) / (len(window) - 1) * fs if len(window) > 1 else 0.0
    return [
        float(window.mean()),
        float(window[peak_idx]),
        peak_idx / fs,  # time to peak, as epochs.time_to_peak computes it
        float(slope),
    ]


def build_features(
    epochs: EpochSet, task: str, mode: FeatureMode = FeatureMode.RAW
) -> FeatureMatrix:
    """One row per matching trial; columns ordered channel > chromophore > slot."""
    matching = epochs.filter(task=task).epochs
    if not matching:
        raise ValueError(f"no epochs match task {task!r}")
    fs = epochs.sample_rate_hz
    keys: list[FeatureKey] = []
    for ch in epochs.channel_ids:
        for chrom in ("hbo", "hbr"):
            if mode is FeatureMode.RAW:
                keys.extend(
                    FeatureKey(ch, chrom, s) for s in range(epochs.window_samples)
                )
            else:
                keys.extend(FeatureKey(ch, chrom, stat) for stat in SUMMARY_STATS)
    rows = []
    for ep in matching:
        if mode is FeatureMode.RAW:
            # (n_ch, 2, w) flattened -> channel-major, hbo before hbr, samples in order
            rows.append(np.stack([ep.hbo, ep.hbr], axis=1).reshape(-1))
        else:
            vals: list[float] = []
            for ci in range(len(epochs.channel_ids)):
                vals.extend(_summary_row(ep.hbo[ci], fs, "hbo"))
                vals.extend(_summary_row(ep.hbr[ci], fs, "hbr"))
            rows.append(np.asarray(vals))
    x = np.vstack(rows)
    y = np.array([LABELS[ep.group] for ep in matching], dtype=int)
    pids = tuple(ep.participant_id for ep in matching)
    return FeatureMatrix(x=x, y=y, participant_ids=pids, feature_index=tuple(keys))


def anova_f_scores(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-column one-way ANOVA F between the two label groups.

    Columns with zero variance both within and between groups score 0;
    columns separating the classes perfectly score +inf.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("both classes must be present")
    groups = [x[y == c] for c in classes]
    for g in groups:
        if g.shape[0] < 2:
            raise ValueError("each class needs at least 2 rows")
    n = x.shape[0]
    k = len(groups)
    grand = x.mean(axis=0)
    ss_between = sum(g.shape[0] * (g.mean(axis=0) - grand) ** 2 for g in groups)
    ss_within = sum(((g - g.mean(axis=0)) ** 2).sum(axis=0) for g in groups)
    ms_between = ss_between / (k - 1)
    ms_within = ss_within / (n - k)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = ms_between / ms_within
    f = np.where(ms_within == 0, np.where(ms_between == 0, 0.0, np.inf), f)
    return f


def select_k_best(scores, k: int) -> np.ndarray:
    """Indices of the k largest scores, descending, ties by smaller index."""
    s = np.asarray(scores, dtype=float)
    if not 1 <= k <= s.size:
        raise ValueError(f"k must be in [1, {s.size}], got {k}")
    order = np.lexsort((np.arange(s.size), -s))
    return order[:k]


def standardize(
    train_x: np.ndarray, apply_x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Z-score both matrices with train-column statistics only.

    Returns (train_z, apply_z, mean, std). Zero-std columns map to 0.
    """
    train_x = np.asarray(train_x, dtype=float)
    apply_x = np.asarray(apply_x, dtype=float)
    if train_x.shape[0] == 0:
        raise ValueError("training matrix is empty")
    mean = train_x.mean(axis=0)
    std = train_x.std(axis=0)
    safe = np.where(std == 0, 1.0, std)
    train_z = (train_x - mean) / safe
    apply_z = (apply_x - mean) / safe
    zero = std == 0
    if zero.any():
        train_z[:, zero] = 0.0
        apply_z[:, zero] = 0.0
    return train_z, apply_z, mean, std
