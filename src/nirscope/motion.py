"""Motion-artifact detection and combined spline + wavelet correction.

Detection flags amplitude excursions and moving-variance bursts; flagged
segments get a cubic smoothing-spline trend subtraction re-anchored to the
local baseline, and a wavelet pass zeroes detail coefficients that are
interquartile-range outliers within their decomposition level. The spline
is a numpy Reinsch solve with knots at the sample index; it agrees with
``scipy.interpolate.make_smoothing_spline`` to 1e-14 of each segment's
largest |value| at the default ``lam``. The wavelet transform is a
self-contained periodized Daubechies-4 DWT so results are bit-stable across
platforms.

Every step takes a (rows x samples) stack as well as one series, and gives
each row exactly what it gives that series alone. Detection works on
blocks of rows (``detect_artifact_stack``; ``detect_artifacts`` is its
one-row case); the spline fits all segments of one length at once; the
inverse DWT sums each output sample's four contributions per tap, in the
order a scatter would add them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArtifactSegment",
    "detect_artifacts",
    "detect_artifact_stack",
    "spline_correct",
    "wavelet_correct",
]

# Daubechies-4 orthonormal scaling filter (8 taps, 4 vanishing moments).
_DB4_LO = np.array(
    [
        0.23037781330885523,
        0.7148465705525415,
        0.6308807679295904,
        -0.02798376941698385,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ]
)
_DB4_HI = np.array([(-1) ** n * _DB4_LO[len(_DB4_LO) - 1 - n] for n in range(len(_DB4_LO))])
# Rows per block of detect_artifact_stack. Its eight or so temporaries are
# one block wide; a whole stack of 960 rows of 1638 samples would make each
# of them 12.6 MB.
_DETECT_BLOCK_ROWS = 64


@dataclass(frozen=True)
class ArtifactSegment:
    """Half-open sample range [start, end) flagged on one channel."""

    start: int
    end: int
    channel_id: str = ""
    trigger: str = "amplitude"  # "amplitude" | "moving_std"

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"need 0 <= start < end, got [{self.start}, {self.end})")
        if self.trigger not in ("amplitude", "moving_std"):
            raise ValueError(f"unknown trigger {self.trigger!r}")


def _moving_std(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving standard deviation with edge shrinkage, along the
    last axis of ``x``.

    Samples whose whole window fits the series take slice differences of
    the running sums; only the edge samples, whose windows shrink, index
    them per sample. Every sample is computed from the same sums with the
    same operations either way.
    """
    n = x.shape[-1]
    half = window // 2
    s1 = np.zeros(x.shape[:-1] + (n + 1,))
    s2 = np.zeros(x.shape[:-1] + (n + 1,))
    np.cumsum(x, axis=-1, out=s1[..., 1:])
    np.cumsum(x * x, axis=-1, out=s2[..., 1:])

    def var(hi, lo, cnt):
        mean = (s1[..., hi] - s1[..., lo]) / cnt
        return (s2[..., hi] - s2[..., lo]) / cnt - mean**2

    first, stop = half, n - window + half + 1  # samples whose window fits
    out = np.empty(x.shape)
    out[..., first:stop] = var(slice(window, n + 1), slice(0, stop - first), window)
    edge = np.r_[0:first, stop:n]
    lo = np.maximum(edge - half, 0)
    hi = np.minimum(edge + (window - half), n)
    out[..., edge] = var(hi, lo, hi - lo)
    return np.sqrt(np.maximum(out, 0.0))


def detect_artifacts(
    series,
    fs: float,
    amp_threshold: float = 5.0,
    std_window_s: float = 1.0,
    std_threshold: float = 3.0,
    channel_id: str = "",
    pad_s: float = 0.5,
) -> list[ArtifactSegment]:
    """Flag samples by amplitude excursion or moving-std burst.

    A sample is flagged when |x - median| > amp_threshold * std(x) or when
    the moving std over ``std_window_s`` exceeds std_threshold times its
    median. Adjacent flags merge into segments padded by ``pad_s`` on each
    side. A segment's trigger is "amplitude" when any of its samples
    crosses the amplitude threshold, else "moving_std". A zero-variance
    series yields no segments. This is ``detect_artifact_stack`` of one row.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {x.shape}")
    return detect_artifact_stack(
        x[None], fs, amp_threshold, std_window_s, std_threshold, [channel_id], pad_s
    )[0]


def detect_artifact_stack(
    rows,
    fs: float,
    amp_threshold: float = 5.0,
    std_window_s: float = 1.0,
    std_threshold: float = 3.0,
    channel_ids=None,
    pad_s: float = 0.5,
) -> list[list[ArtifactSegment]]:
    """``detect_artifacts`` of each row of a (k, n) array: one segment list
    per row, each exactly as that row gives on its own.

    ``channel_ids`` names the channel of each row (default ""). The rows
    are taken in blocks of at most _DETECT_BLOCK_ROWS, so the temporaries
    are a block wide, not a stack wide. Each block is made C-contiguous,
    so its reductions along a row sum in the same order as they do over
    one series.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"rows must be a (k, n) array, got shape {x.shape}")
    k, n = x.shape
    ids = [""] * k if channel_ids is None else list(channel_ids)
    if len(ids) != k:
        raise ValueError(f"need {k} channel ids, got {len(ids)}")
    window = max(2, int(round(std_window_s * fs)))
    if n <= window:
        raise ValueError(f"series length {n} must exceed the std window {window}")
    pad = int(round(pad_s * fs))
    segments: list[list[ArtifactSegment]] = []
    for lo in range(0, k, _DETECT_BLOCK_ROWS):
        block = np.ascontiguousarray(x[lo : lo + _DETECT_BLOCK_ROWS])
        std = block.std(axis=1, keepdims=True)
        amp_bad = np.abs(block - np.median(block, axis=1, keepdims=True)) > amp_threshold * std
        mstd = _moving_std(block, window)
        flags = amp_bad | (mstd > std_threshold * np.median(mstd, axis=1, keepdims=True))
        # A zero-variance row yields no segments.
        flags &= std > 0
        segments += _segments(flags, amp_bad, pad, ids[lo : lo + _DETECT_BLOCK_ROWS])
    return segments


def _segments(
    flags: np.ndarray, amp_bad: np.ndarray, pad: int, ids
) -> list[list[ArtifactSegment]]:
    """Padded segments of the flagged runs of each row of a (b, n) block."""
    b, n = flags.shape
    # Runs of consecutive flagged samples, in row-major order: each row has
    # one rising and one falling edge per run.
    row, col = np.nonzero(np.diff(flags, axis=1, prepend=False, append=False))
    out: list[list[ArtifactSegment]] = [[] for _ in range(b)]
    if not row.size:
        return out
    row = row[::2]
    starts = np.maximum(col[::2] - pad, 0)
    ends = np.minimum(col[1::2] + pad, n)
    # Padded ends never decrease along a row, so a run joins the segment
    # before it exactly when it is on the same row and starts at or before
    # that segment's end.
    new = np.ones(row.size, dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (starts[1:] > ends[:-1])
    first = np.flatnonzero(new)
    last = np.append(first[1:], row.size) - 1
    seg_row, seg_start, seg_end = row[first], starts[first], ends[last]
    # Segments are disjoint, sorted in row-major order and hold every
    # flagged sample, so each amp_bad sample falls in the last segment
    # starting at or before it.
    amp_row, amp_col = np.nonzero(amp_bad & flags)
    amplitude = np.zeros(first.size, dtype=bool)
    amplitude[
        np.searchsorted(seg_row * n + seg_start, amp_row * n + amp_col, side="right") - 1
    ] = True
    for r, a, e, amp in zip(
        seg_row.tolist(), seg_start.tolist(), seg_end.tolist(), amplitude.tolist()
    ):
        out[r].append(ArtifactSegment(a, e, ids[r], "amplitude" if amp else "moving_std"))
    return out


def _smoothing_spline(y: np.ndarray, lam: float) -> np.ndarray:
    """Knot values of the cubic smoothing spline of each column of ``y``.

    ``y`` is (L, m) with L >= 5 and knots at the sample index 0..L-1. The
    spline minimizes sum (y - f)^2 + lam * integral f''^2, as
    ``scipy.interpolate.make_smoothing_spline(t, y, lam=lam)(t)`` does, in
    Reinsch's form (Reinsch 1967) with unit knot spacing: f = y - lam Q g,
    where (R + lam Q'Q) g = Q'y, Q is the (L, L-2) second difference
    (columns 1, -2, 1) and R is tridiagonal with 2/3 on the diagonal and
    1/6 beside it. R + lam Q'Q is a symmetric positive definite
    pentadiagonal Toeplitz matrix, solved by a banded LDL' over all columns
    at once, so every column comes out exactly as it would on its own.
    """
    n = y.shape[0] - 2
    a0, a1, a2 = 2.0 / 3.0 + 6.0 * lam, 1.0 / 6.0 - 4.0 * lam, lam
    # LDL': L[k, k-1] = l1[k], L[k, k-2] = l2[k], D = diag(d). For k < 2,
    # d[k - 1] and d[k - 2] wrap to entries not yet set (0.0), which meet
    # only zero multipliers.
    d, l1, l2 = [0.0] * n, [0.0] * n, [0.0] * n
    for k in range(n):
        if k >= 2:
            l2[k] = a2 / d[k - 2]
        if k >= 1:
            l1[k] = (a1 - l2[k] * d[k - 2] * l1[k - 1]) / d[k - 1]
        d[k] = a0 - l1[k] * l1[k] * d[k - 1] - l2[k] * l2[k] * d[k - 2]

    g = y[2:] - 2.0 * y[1:-1] + y[:-2]  # Q'y
    for k in range(1, n):
        g[k] -= l1[k] * g[k - 1]
        if k >= 2:
            g[k] -= l2[k] * g[k - 2]
    g /= np.array(d)[:, None]
    for k in range(n - 2, -1, -1):
        g[k] -= l1[k + 1] * g[k + 1]
        if k + 2 < n:
            g[k] -= l2[k + 2] * g[k + 2]

    qg = np.zeros_like(y)  # Q g
    qg[:-2] += g
    qg[1:-1] -= 2.0 * g
    qg[2:] += g
    return y - lam * qg


def spline_correct(
    series,
    segments: list[ArtifactSegment] | list[list[ArtifactSegment]],
    fs: float = 1.0,
    lam: float = 1e-3,
    baseline_s: float = 2.0,
) -> np.ndarray:
    """Subtract a cubic smoothing-spline artifact trend inside each segment.

    ``series`` is one series with a list of segments, or a (k, n) array with
    one segment list per row. Each corrected segment is re-anchored to the
    mean of the ``baseline_s`` seconds before it (after it when the segment
    starts the series), so no step discontinuity remains at segment
    boundaries. Samples outside segments are never modified. Segments of a
    row must not overlap. The input is not modified.

    The spline abscissa is the sample index, so all segments of one length
    share it and are fitted in one call; every row comes out exactly as it
    would on its own.
    """
    x = np.array(series, dtype=float)
    if x.ndim == 1:
        _spline_correct_in_place(x[None], [segments], fs, lam, baseline_s)
    else:
        _spline_correct_in_place(x, segments, fs, lam, baseline_s)
    return x


def _spline_correct_in_place(
    x: np.ndarray,
    segments: list[list[ArtifactSegment]],
    fs: float = 1.0,
    lam: float = 1e-3,
    baseline_s: float = 2.0,
) -> np.ndarray:
    """``spline_correct`` of a (k, n) float array, written into ``x``, which
    is returned."""
    if x.ndim != 2 or len(segments) != x.shape[0]:
        raise ValueError(
            f"need a (k, n) array with k segment lists, got shape {x.shape} "
            f"and {len(segments)} lists"
        )
    n = x.shape[1]
    n_base = max(1, int(round(baseline_s * fs)))
    # (row, start) of the segments of each length.
    by_length: dict[int, list[tuple[int, int]]] = {}
    for r, segs in enumerate(segments):
        prev_end = 0
        for seg in sorted(segs, key=lambda s: s.start):
            if seg.end > n:
                raise ValueError(
                    f"segment [{seg.start}, {seg.end}) outside series of length {n}"
                )
            if seg.start < prev_end:
                raise ValueError(f"segments overlap at sample {seg.start}")
            prev_end = seg.end
            by_length.setdefault(seg.end - seg.start, []).append((r, seg.start))

    # Trends read only the uncorrected samples of their own segment, which no
    # other segment of the row touches, so they can all be fitted up front.
    trends: dict[tuple[int, int], np.ndarray] = {}
    for length, starts in by_length.items():
        if length < 5:
            for r, a in starts:
                y = x[r, a : a + length]
                trends[r, a] = np.full(length, y.mean())
            continue
        y = np.stack([x[r, a : a + length] for r, a in starts], axis=1)
        fitted = _smoothing_spline(y, lam)
        for j, key in enumerate(starts):
            trends[key] = fitted[:, j]

    # Anchors can read a segment corrected just before, so this stays in order.
    for r, segs in enumerate(segments):
        row = x[r]
        for seg in segs:
            a, b = seg.start, seg.end
            resid = row[a:b] - trends[r, a]
            if a > 0:
                anchor = row[max(0, a - n_base) : a].mean()
            elif b < n:
                anchor = row[b : min(n, b + n_base)].mean()
            else:
                anchor = 0.0  # segment covers the whole series: leave demeaned
            row[a:b] = resid - resid.mean() + anchor
    return x


def _dwt_analysis(x: np.ndarray):
    """Full-depth periodized DWT of each row of ``x`` (k, N).

    Returns the final (k, 1) approximation and one (detail, idx, N) record
    per level, detail being (k, N/2).
    """
    levels = []
    c = x
    while c.shape[1] >= 2:
        N = c.shape[1]
        idx = (2 * np.arange(N // 2)[:, None] + np.arange(_DB4_LO.size)[None, :]) % N
        # A contiguous gather (``take`` writes one, ``c[:, idx]`` does not)
        # keeps numpy on the same matvec kernel as a single row; the two
        # smallest levels are only bit-stable row by row.
        win = np.take(c, idx, axis=1)
        if N >= 8:
            flat = win.reshape(-1, _DB4_LO.size)
            detail = (flat @ _DB4_HI).reshape(c.shape[0], -1)
            c = (flat @ _DB4_LO).reshape(c.shape[0], -1)
        else:
            detail = np.stack([w @ _DB4_HI for w in win])
            c = np.stack([w @ _DB4_LO for w in win])
        levels.append((detail, idx, N))
    return c, levels


def _dwt_synthesis(approx: np.ndarray, levels) -> np.ndarray:
    """Inverse of ``_dwt_analysis``.

    Every output sample takes four (coefficient, tap) contributions and sums
    them from 0.0 in the order np.add.at would add them, by ascending
    coefficient index, so the result, -0.0 included, is that of the
    scatter.
    """
    c = approx
    k = c.shape[0]
    for detail, idx, N in reversed(levels):
        if N < 8:
            # A coefficient reaches an output sample through more than one
            # tap, so gather in np.add.at's order.
            contrib = (c[:, :, None] * _DB4_LO + detail[:, :, None] * _DB4_HI).reshape(k, -1)
            v = contrib[:, np.argsort(idx.ravel(), kind="stable").reshape(N, 4)]
            c = 0.0 + v[..., 0] + v[..., 1] + v[..., 2] + v[..., 3]
            continue
        half = N // 2
        out = np.empty((k, half, 2))
        for r in (0, 1):
            # Output 2q + r takes e[m][q - m] (mod N/2), e[m] being tap
            # r + 2m of every coefficient; ascending coefficient index puts
            # m = 3 first. Only q < 3 wraps, and its wrapped terms (m > q)
            # have the largest indices, so they come last.
            e = [c * _DB4_LO[r + 2 * m] + detail * _DB4_HI[r + 2 * m] for m in range(4)]
            out[:, 3:, r] = 0.0 + e[3][:, :-3] + e[2][:, 1:-2] + e[1][:, 2:-1] + e[0][:, 3:]
            for q in range(3):
                total = 0.0
                for m in (*range(q, -1, -1), *range(3, q, -1)):
                    total = total + e[m][:, q - m]
                out[:, q, r] = total
        c = out.reshape(k, N)
    return c


def wavelet_correct(series, iqr_multiplier: float = 1.5) -> np.ndarray:
    """Zero outlying wavelet detail coefficients and reconstruct.

    ``series`` is one series or a (k, n) array of them, each corrected on
    its own. A series is demeaned, padded to the next power of two by
    reflection, and decomposed to full depth. Per level, detail coefficients
    outside [q1 - m*IQR, q3 + m*IQR] of that row are set to zero;
    coefficients whose support touches the synthetic padding are exempt so
    boundary effects are never mistaken for artifacts. With an infinite
    multiplier the round trip is the identity.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        return wavelet_correct(x[None], iqr_multiplier)[0]
    if x.ndim != 2:
        raise ValueError(f"series must be 1-D or 2-D, got shape {x.shape}")
    n = x.shape[1]
    if n < 16:
        raise ValueError(f"series too short for wavelet correction: {n} < 16")
    if iqr_multiplier < 0:
        raise ValueError(f"iqr_multiplier must be >= 0, got {iqr_multiplier}")
    padded_len = 1 << n.bit_length()  # strictly larger so the wrap sits in padding
    mean = x.mean(axis=1, keepdims=True)
    xp = np.pad(x - mean, ((0, 0), (0, padded_len - n)), mode="symmetric")
    in_pad = np.arange(padded_len) >= n

    approx, levels = _dwt_analysis(xp)
    pad_flags = in_pad
    thresholded = []
    for detail, idx, N in levels:
        touches_pad = pad_flags[idx].any(axis=1)
        pad_flags = touches_pad
        interior = ~touches_pad
        if np.isfinite(iqr_multiplier) and interior.sum() >= 2:
            q1, q3 = np.percentile(detail, [25, 75], axis=1, keepdims=True)
            iqr = q3 - q1
            outlier = (detail < q1 - iqr_multiplier * iqr) | (
                detail > q3 + iqr_multiplier * iqr
            )
            detail = np.where(outlier & interior, 0.0, detail)
        thresholded.append((detail, idx, N))
    return _dwt_synthesis(approx, thresholded)[:, :n] + mean
