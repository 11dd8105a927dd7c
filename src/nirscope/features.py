"""Trial feature matrices, ANOVA-F scoring, k-best selection, standardization.

Features are built from an EpochSet's (trials x 2 x channels x window) array
in whole-array expressions. The column layout is defined once, in
``build_features``: one block of columns per (channel, chromophore) pair,
channels in montage order and hbo before hbr, each block holding its slots
(sample indices or summary statistics) in order. ``FeatureMatrix.pairs``
names the blocks, so column j belongs to ``pairs[j // block_width]``. Labels
are 0 for controls and 1 for patients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .epochs import peak_index
from .model import CHROMOPHORES, GROUPS, EpochSet

__all__ = [
    "FEATURE_MODES",
    "FeatureMatrix",
    "build_features",
    "column_count",
    "anova_f_scores",
    "select_k_best",
    "standardize",
    "default_select_k",
]

SUMMARY_STATS = ("mean", "peak", "time_to_peak", "mean_slope")


# "raw": every sample of every channel/chromophore; "summary": the
# SUMMARY_STATS of each channel/chromophore window.
FEATURE_MODES = ("raw", "summary")


def default_select_k(mode: str, n_features: int) -> int:
    """Columns kept when no number is given: 40 raw or 20 summary, at most all."""
    return min(40 if mode == "raw" else 20, n_features)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    x: np.ndarray  # (n_trials, n_features)
    y: np.ndarray  # (n_trials,) int labels
    participant_ids: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]  # (channel, chromophore) of each column block

    def __post_init__(self):
        if not (self.x.shape[0] == self.y.shape[0] == len(self.participant_ids)):
            raise ValueError("x, y, and participant_ids row counts differ")
        if not self.pairs or not self.x.shape[1] or self.x.shape[1] % len(self.pairs):
            raise ValueError("columns do not split into one equal block per pair")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("feature matrix contains NaN or Inf")

    @property
    def block_width(self) -> int:
        """Columns per pair: column j belongs to ``pairs[j // block_width]``."""
        return self.x.shape[1] // len(self.pairs)


def column_count(epochs: EpochSet, mode: str) -> int:
    """The number of columns ``build_features`` gives ``epochs``."""
    slots = epochs.window_samples if mode == "raw" else len(SUMMARY_STATS)
    return len(epochs.channel_ids) * len(CHROMOPHORES) * slots


def _summary(stack: np.ndarray, fs: float, chromophore: str) -> np.ndarray:
    """(trials, channels, window) -> (trials, channels, SUMMARY_STATS)."""
    peak_idx = peak_index(stack, chromophore)
    peak = np.take_along_axis(stack, peak_idx[..., None], axis=-1)[..., 0]
    w = stack.shape[-1]
    slope = (stack[..., -1] - stack[..., 0]) / (w - 1) * fs if w > 1 else np.zeros(peak.shape)
    return np.stack([stack.mean(axis=-1), peak, peak_idx / fs, slope], axis=-1)


def build_features(epochs: EpochSet, task: str, mode: str = "raw") -> FeatureMatrix:
    """One row per matching trial; columns ordered channel > chromophore > slot.

    ``mode`` is one of FEATURE_MODES. Raw rows hold every sample of the
    window; summary rows hold the SUMMARY_STATS of each window, computed over
    the whole trial stack.
    """
    if mode not in FEATURE_MODES:
        raise ValueError(f"feature mode must be one of {list(FEATURE_MODES)}, got {mode!r}")
    rows = epochs.rows(task=task)
    if not rows.size:
        raise ValueError(f"no epochs match task {task!r}")
    if mode == "raw":
        slots = epochs.hemo[rows]  # (trials, 2, channels, window)
    else:  # one chromophore's windows at a time
        fs = epochs.sample_rate_hz
        slots = np.stack(
            [_summary(epochs.hemo[rows, k], fs, chrom) for k, chrom in enumerate(CHROMOPHORES)],
            axis=1,
        )
    # (trials, channels, 2, slots) -> channel-major, hbo before hbr, slots in order
    x = slots.transpose(0, 2, 1, 3).reshape(rows.size, -1)
    labels = np.array([GROUPS.index(group) for _, group in epochs.participants], dtype=int)
    return FeatureMatrix(
        x=x,
        y=labels[epochs.participant_index[rows]],
        participant_ids=tuple(epochs.participant_ids[rows].tolist()),
        pairs=tuple(product(epochs.channel_ids, CHROMOPHORES)),
    )


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
