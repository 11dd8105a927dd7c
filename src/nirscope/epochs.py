"""Block-design segmentation, block averaging, time-to-peak, ROI averaging.

Epochs and block averages keep the chromophore pair as an axis, in
``model.CHROMOPHORES`` order: an epoch set is one (trials, 2, channels,
window) array, and a block average's mean and std are (2, channels, window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import EpochSet, HemoSeries

__all__ = [
    "BlockAverage",
    "segment",
    "join",
    "block_average",
    "participant_means",
    "peak_index",
    "time_to_peak",
    "roi_average",
]

REST_LABEL = "rest"


@dataclass(frozen=True, eq=False)
class BlockAverage:
    """Pointwise mean and population std across matching trials."""

    n_trials: int
    mean: np.ndarray  # (2, n_channels, window), CHROMOPHORES order
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape:
            raise ValueError("block-average curves must share one shape")
        if np.any(self.std < 0):
            raise ValueError("std curves must be nonnegative")


def segment(
    series: Sequence[HemoSeries],
    window_s: float = 20.0,
    baseline_s: float = 2.0,
    task: str | None = None,
) -> EpochSet:
    """Cut one baseline-corrected window per task annotation of every series,
    or with ``task`` per annotation of that task only.

    window_samples = floor(window_s * fs) must be a finite count of at
    least 1. The mean of the ``baseline_s`` seconds preceding the onset is
    subtracted per channel (truncated at the recording start when fewer
    samples exist). The
    participant table holds every series, in order, whether or not it has a
    trial cut. Trials follow the series order, each series' in onset order,
    and are written into one preallocated (trials, 2, channels, window)
    array, both chromophores of a trial at once. Only the annotations cut
    are checked against the window and the recording end. A cut of no
    trial is a set of no trials, as for one batch of a dataset that
    ``join`` puts together; ``join`` refuses a whole run with none.
    """
    if not series:
        raise ValueError("no hemoglobin series to segment")
    fs, channel_ids = series[0].sample_rate_hz, series[0].channel_ids
    if not np.isfinite(window_s * fs):
        raise ValueError(f"window_s {window_s} s holds no finite sample count at {fs} Hz")
    window = int(np.floor(window_s * fs))
    if window < 1:
        raise ValueError(f"window_s {window_s} s holds no sample at {fs} Hz")
    n_base = int(np.floor(baseline_s * fs))
    cuts: list[tuple[int, int, str]] = []  # series row, onset sample, task
    for row, hemo in enumerate(series):
        if hemo.sample_rate_hz != fs or hemo.channel_ids != channel_ids:
            raise ValueError("hemo series have mismatched sample rates or channels")
        tasks = sorted(
            (a for a in hemo.annotations if a.label != REST_LABEL), key=lambda a: a.onset_s
        )
        if not tasks:
            raise ValueError(
                f"participant {hemo.participant_id}: recording has no task "
                "annotations to segment"
            )
        for a in tasks:
            if task is not None and a.label != task:
                continue
            if window_s > a.duration_s + 1e-9:
                raise ValueError(
                    f"window {window_s} s exceeds annotation duration {a.duration_s} s "
                    f"({a.label!r} at {a.onset_s} s)"
                )
            start = int(round(a.onset_s * fs))
            if start + window > hemo.n_samples:
                raise ValueError(
                    f"annotation at {a.onset_s} s extends past the recording end"
                )
            cuts.append((row, start, a.label))
    out = np.empty((len(cuts), 2, len(channel_ids), window))
    for i, (row, start, _) in enumerate(cuts):
        hemo, b0 = series[row], max(0, start - n_base)
        out[i] = hemo.hemo[..., start : start + window]
        if b0 < start:
            out[i] -= hemo.hemo[..., b0:start].mean(axis=-1, keepdims=True)
    return EpochSet(
        sample_rate_hz=fs,
        channel_ids=channel_ids,
        hemo=out,
        participants=tuple((hemo.participant_id, hemo.group) for hemo in series),
        participant_index=np.array([row for row, _, _ in cuts], dtype=np.intp),
        tasks=tuple(label for _, _, label in cuts),
    )


def join(parts: Sequence[EpochSet], task: str | None = None) -> EpochSet:
    """The epoch sets that ``segment`` cut from consecutive batches of a
    dataset's series, with ``task``, as one: equal to ``segment`` of all the
    series in one call, and refused when no part holds a trial. Several
    parts are copied into one array once; one part is returned as it is.
    """
    first = parts[0]
    for part in parts[1:]:
        if (part.sample_rate_hz, part.channel_ids) != (first.sample_rate_hz, first.channel_ids):
            raise ValueError("hemo series have mismatched sample rates or channels")
    tasks = tuple(label for part in parts for label in part.tasks)
    if not tasks:
        raise ValueError(f"no epochs match task {task!r}")
    if len(parts) == 1:
        return first
    offsets = np.cumsum([0] + [len(part.participants) for part in parts[:-1]])
    return EpochSet(
        sample_rate_hz=first.sample_rate_hz,
        channel_ids=first.channel_ids,
        hemo=np.concatenate([part.hemo for part in parts]),
        participants=tuple(p for part in parts for p in part.participants),
        participant_index=np.concatenate(
            [part.participant_index + offset for part, offset in zip(parts, offsets)]
        ),
        tasks=tasks,
    )


def block_average(
    epochs: EpochSet, task: str, group: str | None = None
) -> BlockAverage:
    """Pointwise mean/std over all trials matching task (and group)."""
    rows = epochs.rows(task=task, group=group)
    if not rows.size:
        raise ValueError(f"no epochs match task={task!r}, group={group!r}")
    # One chromophore's trials at a time: the std's temporaries are half the size.
    pair = [epochs.hemo[rows, k] for k in range(2)]
    return BlockAverage(
        n_trials=rows.size,
        mean=np.array([trials.mean(axis=0) for trials in pair]),
        std=np.array([trials.std(axis=0) for trials in pair]),
    )


def participant_means(epochs: EpochSet, values, task: str | None) -> tuple[np.ndarray, np.ndarray]:
    """Each participant's mean of the per-trial ``values`` over their trials
    of ``task`` (None: of every task).

    ``values`` is (trials, ...). Returns the rows of ``epochs.participants``
    with such a trial, in table order, and their (rows, ...) means.
    ``np.add.at`` sums each participant's trials from zero in trial order,
    as numpy sums along a non-contiguous axis, so each mean is that
    participant's ``values[mask].mean(axis=0)`` bit for bit; entries of one
    value are the exception, as numpy sums 8 or more of them pairwise.
    """
    values = np.asarray(values, dtype=float)
    if len(values) != len(epochs.tasks):
        raise ValueError(f"values has {len(values)} entries for {len(epochs.tasks)} trials")
    rows = epochs.rows(task=task)
    present, slot, counts = np.unique(
        epochs.participant_index[rows], return_inverse=True, return_counts=True
    )
    total = np.zeros((present.size, *values.shape[1:]))
    np.add.at(total, slot, values[rows])
    return present, total / counts.reshape(-1, *(1,) * (values.ndim - 1))


def peak_index(curves, chromophore: str) -> np.ndarray:
    """Sample index of the response extremum along the last axis.

    hbo peaks at the curve maximum; hbr at the largest absolute deviation
    from the first sample (sign-robust). Ties break to the earliest index,
    so a constant curve gives 0.
    """
    x = np.asarray(curves, dtype=float)
    if chromophore == "hbo":
        return np.argmax(x, axis=-1)
    if chromophore == "hbr":
        deviation = x - x[..., :1]
        return np.argmax(np.abs(deviation, out=deviation), axis=-1)
    raise ValueError(f"chromophore must be hbo or hbr, got {chromophore!r}")


def time_to_peak(curves, fs: float, chromophore: str):
    """Latency in seconds of the response extremum along the last axis (see
    peak_index): a float for one curve, an array for a stack of them."""
    return peak_index(curves, chromophore) / fs


def roi_average(values, channel_ids, roi_channels) -> np.ndarray:
    """Pointwise mean over the channels named by ``roi_channels``.

    ``values`` is (..., channels, samples): one (channels x samples) array
    or a stack of them; the channel axis is averaged away.
    """
    arr = np.asarray(values, dtype=float)
    index = {c: i for i, c in enumerate(channel_ids)}
    rows = []
    for ch in roi_channels:
        if ch not in index:
            raise KeyError(f"unknown channel in ROI: {ch}")
        rows.append(index[ch])
    if not rows:
        raise ValueError("ROI has no channels")
    return arr[..., rows, :].mean(axis=-2)
