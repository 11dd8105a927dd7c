"""Block-design segmentation, block averaging, time-to-peak, ROI averaging."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Epoch, EpochSet, HemoSeries

__all__ = [
    "BlockAverage",
    "segment",
    "block_average",
    "time_to_peak",
    "roi_average",
]

REST_LABEL = "rest"


@dataclass(frozen=True, eq=False)
class BlockAverage:
    """Pointwise mean and population std across matching trials."""

    task: str
    n_trials: int
    channel_ids: tuple[str, ...]
    hbo_mean: np.ndarray  # (n_channels, window)
    hbo_std: np.ndarray
    hbr_mean: np.ndarray
    hbr_std: np.ndarray

    def __post_init__(self):
        shapes = {
            self.hbo_mean.shape,
            self.hbo_std.shape,
            self.hbr_mean.shape,
            self.hbr_std.shape,
        }
        if len(shapes) != 1:
            raise ValueError("block-average curves must share one shape")
        if np.any(self.hbo_std < 0) or np.any(self.hbr_std < 0):
            raise ValueError("std curves must be nonnegative")


def segment(
    hemo: HemoSeries, window_s: float = 20.0, baseline_s: float = 2.0
) -> EpochSet:
    """Cut one epoch per task annotation, baseline-corrected.

    window_samples = floor(window_s * fs). The mean of the ``baseline_s``
    seconds preceding the onset is subtracted per channel (truncated at the
    recording start when fewer samples exist).
    """
    fs = hemo.sample_rate_hz
    tasks = [a for a in hemo.annotations if a.label != REST_LABEL]
    if not tasks:
        raise ValueError("recording has no task annotations to segment")
    for a in tasks:
        if window_s > a.duration_s + 1e-9:
            raise ValueError(
                f"window {window_s} s exceeds annotation duration {a.duration_s} s "
                f"({a.label!r} at {a.onset_s} s)"
            )
    window = int(np.floor(window_s * fs))
    n_base = int(np.floor(baseline_s * fs))
    n = hemo.n_samples
    counters: dict[str, int] = {}
    out: list[Epoch] = []
    for a in sorted(tasks, key=lambda a: a.onset_s):
        start = int(round(a.onset_s * fs))
        if start + window > n:
            raise ValueError(
                f"annotation at {a.onset_s} s extends past the recording end"
            )
        hbo = hemo.hbo[:, start : start + window]
        hbr = hemo.hbr[:, start : start + window]
        b0 = max(0, start - n_base)
        if b0 < start:
            hbo = hbo - hemo.hbo[:, b0:start].mean(axis=1, keepdims=True)
            hbr = hbr - hemo.hbr[:, b0:start].mean(axis=1, keepdims=True)
        trial = counters.get(a.label, 0)
        counters[a.label] = trial + 1
        out.append(
            Epoch(
                participant_id=hemo.participant_id,
                group=hemo.group,
                task=a.label,
                trial_index=trial,
                hbo=hbo,
                hbr=hbr,
            )
        )
    return EpochSet(
        window_samples=window,
        sample_rate_hz=fs,
        channel_ids=hemo.channel_ids,
        epochs=tuple(out),
    )


def block_average(
    epochs: EpochSet, task: str, group: str | None = None
) -> BlockAverage:
    """Pointwise mean/std over all trials matching task (and group)."""
    matching = epochs.filter(task=task, group=group).epochs
    if not matching:
        raise ValueError(f"no epochs match task={task!r}, group={group!r}")
    hbo = np.stack([ep.hbo for ep in matching])
    hbr = np.stack([ep.hbr for ep in matching])
    return BlockAverage(
        task=task,
        n_trials=len(matching),
        channel_ids=epochs.channel_ids,
        hbo_mean=hbo.mean(axis=0),
        hbo_std=hbo.std(axis=0),
        hbr_mean=hbr.mean(axis=0),
        hbr_std=hbr.std(axis=0),
    )


def time_to_peak(curve, fs: float, chromophore: str) -> float:
    """Latency of the response extremum in seconds.

    hbo peaks at the curve maximum; hbr at the largest absolute deviation
    from the first sample (sign-robust). Ties break to the earliest index,
    so a constant curve returns 0.
    """
    x = np.asarray(curve, dtype=float)
    if x.size == 0:
        raise ValueError("empty curve")
    if chromophore == "hbo":
        idx = int(np.argmax(x))
    elif chromophore == "hbr":
        idx = int(np.argmax(np.abs(x - x[0])))
    else:
        raise ValueError(f"chromophore must be hbo or hbr, got {chromophore!r}")
    return idx / fs


def roi_average(values, channel_ids, roi_channels) -> np.ndarray:
    """Pointwise mean of the rows of ``values`` named by ``roi_channels``."""
    arr = np.asarray(values, dtype=float)
    index = {c: i for i, c in enumerate(channel_ids)}
    rows = []
    for ch in roi_channels:
        if ch not in index:
            raise KeyError(f"unknown channel in ROI: {ch}")
        rows.append(index[ch])
    if not rows:
        raise ValueError("ROI has no channels")
    return arr[rows].mean(axis=0)
