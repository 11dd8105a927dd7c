import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import make_smoothing_spline

from conftest import spiky_walks
from nirscope import motion
from nirscope.motion import (
    _DB4_HI,
    _DB4_LO,
    _dwt_analysis,
    _dwt_synthesis,
    _moving_std,
    _smoothing_spline,
    Segments,
    detect_artifact_stack,
    detect_artifacts,
    spline_correct,
    wavelet_correct,
)

FS = 3.9
AMP = 5.0  # the pipeline's default amplitude threshold, in standard deviations


def _listed(segs, row=0):
    """(start, end, amplitude) of each segment of one row of a table."""
    on = segs.row == row
    return list(zip(*(a[on].tolist() for a in segs[1:])))


def _table(*segments):
    """A segment table of (row, start, end) triples, in the order given."""
    row, start, end = np.array(segments, dtype=np.intp).reshape(-1, 3).T
    return Segments(row, start, end, np.zeros(row.size, dtype=bool))


def _threshold_oracle(x, amp=5.0, window_s=1.0, std_thr=3.0):
    """Direct evaluation of the detection conditions, loop form."""
    x = np.asarray(x, dtype=float)
    std = x.std()
    if std == 0:
        return np.zeros(x.size, dtype=bool)
    med = np.median(x)
    flags = np.abs(x - med) > amp * std
    w = max(2, int(round(window_s * FS)))
    half = w // 2
    mstd = np.array(
        [x[max(0, i - half) : min(x.size, i + (w - half))].std() for i in range(x.size)]
    )
    flags |= mstd > std_thr * np.median(mstd)
    return flags


def test_clean_sinusoid_yields_no_segments():
    t = np.arange(int(200 * FS)) / FS
    x = np.sin(2 * np.pi * 0.1 * t)
    assert not _threshold_oracle(x).any()  # oracle agrees the signal is clean
    assert _listed(detect_artifacts(x, FS, AMP)) == []


def test_single_spike_yields_one_segment_containing_it():
    t = np.arange(int(200 * FS)) / FS
    x = np.sin(2 * np.pi * 0.1 * t)
    spike_at = 400
    x[spike_at] += 10 * x.std()
    assert _threshold_oracle(x)[spike_at]
    segs = _listed(detect_artifacts(x, FS, AMP))
    assert len(segs) == 1
    assert segs[0][0] <= spike_at < segs[0][1]


def test_constant_series_yields_no_segments():
    assert _listed(detect_artifacts(np.full(100, 3.0), FS, AMP)) == []


def test_segments_are_padded_and_merged():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 0.1, size=800)
    x[300] += 50
    x[303] += 50  # within the 0.5 s padding of the first
    segs = _listed(detect_artifacts(x, FS, AMP))
    assert len(segs) == 1
    pad = int(round(0.5 * FS))
    assert segs[0][0] <= 300 - pad + 1
    assert segs[0][1] >= 303 + pad - 1


def _detect_artifacts_loop(x, fs, amp_threshold=AMP, std_threshold=3.0, pad_s=0.5):
    """Reference: flagged samples merged one index at a time, triggers kept
    in an object array (the detector's earlier form). Returns (start, end,
    amplitude) per segment."""
    x = np.asarray(x, dtype=float)
    window = max(2, int(round(fs)))
    flags = np.zeros(x.size, dtype=bool)
    triggers = np.empty(x.size, dtype=object)
    std = float(x.std())
    if std > 0:
        amp_bad = np.abs(x - np.median(x)) > amp_threshold * std
        flags |= amp_bad
        triggers[amp_bad] = "amplitude"
        mstd = _moving_std(x, window)
        std_bad = mstd > std_threshold * float(np.median(mstd))
        triggers[std_bad & ~flags] = "moving_std"
        flags |= std_bad
    if not flags.any():
        return []
    pad = int(round(pad_s * fs))
    segments = []
    idx = np.nonzero(flags)[0]
    run_start = prev = idx[0]
    for i in list(idx[1:]) + [None]:
        if i is not None and i == prev + 1:
            prev = i
            continue
        start = max(0, run_start - pad)
        end = min(x.size, prev + 1 + pad)
        run_amp = any(triggers[j] == "amplitude" for j in range(run_start, prev + 1))
        if segments and start <= segments[-1][1]:
            last_start, _, last_amp = segments[-1]
            segments[-1] = (last_start, end, last_amp or run_amp)
        else:
            segments.append((start, end, run_amp))
        if i is not None:
            run_start = prev = i
    return segments


@pytest.mark.parametrize("fs", [2.0, 3.9, 10.0])
@pytest.mark.parametrize("pad_s", [0.0, 0.5, 2.0])
def test_detection_matches_loop_reference(monkeypatch, fs, pad_s):
    monkeypatch.setattr(motion, "_PAD_S", pad_s)
    walks = spiky_walks(40, 600, seed=int(fs * 10 + pad_s * 100))
    # Steps make long moving-std runs with no amplitude flag next to the
    # spikes, so both triggers occur.
    walks[::3, 300:] += 30 * walks[::3].std(axis=1, keepdims=True)
    walks[1::4, 0] += 40 * walks[1::4].std(axis=1)
    n_segments = 0
    triggers = set()
    for row in walks:
        got = _listed(detect_artifacts(row, fs, AMP))
        assert got == _detect_artifacts_loop(row, fs, pad_s=pad_s)
        n_segments += len(got)
        triggers.update(amp for _, _, amp in got)
    assert n_segments > 40
    assert triggers == {True, False}


def test_spike_segments_are_labelled_amplitude():
    # From a 3-sample window up (3.9 Hz at 1 s) the moving std also flags the
    # sample before each spike, so every run starts on a moving-std flag.
    x = np.random.default_rng(6).normal(0, 1.0, size=1200)
    spikes = [100, 300, 500, 700, 900, 1100]
    x[spikes] += 500
    segs = _listed(detect_artifacts(x, FS, AMP))
    assert len(segs) == 6
    for (start, end, amp), at in zip(segs, spikes):
        assert start < at < end and amp
    assert segs == _detect_artifacts_loop(x, FS)


def test_detection_merges_overlapping_padded_runs_like_loop(monkeypatch):
    x = np.random.default_rng(4).normal(0, 0.1, size=800)
    x[[100, 104, 108, 300, 320]] += 50
    x[790] += 50
    monkeypatch.setattr(motion, "_PAD_S", 0.0)
    unpadded = _listed(detect_artifacts(x, FS, AMP))
    monkeypatch.setattr(motion, "_PAD_S", 2.0)
    padded = _listed(detect_artifacts(x, FS, AMP))
    assert unpadded == _detect_artifacts_loop(x, FS, pad_s=0.0)
    assert padded == _detect_artifacts_loop(x, FS, pad_s=2.0)
    # The runs around 300 and 320 meet only once padded by 8 samples each,
    # and the last padded end is clipped to the series.
    assert len(unpadded) == 4 and len(padded) == 3
    assert padded[1][0] < 300 and padded[1][1] > 320
    assert padded[-1][1] == x.size


def _stack_walks(k, n, seed):
    """Spiky walks with steps (long moving-std runs next to the spikes, so
    both triggers occur), a spike in the first sample of some rows and two
    zero-variance rows."""
    walks = spiky_walks(k, n, seed=seed)
    walks[::3, n // 2 :] += 30 * walks[::3].std(axis=1, keepdims=True)
    walks[1::4, 0] += 40 * walks[1::4].std(axis=1)
    walks[5] = 0.0
    walks[k - 2] = 7.25
    return walks


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("seed", [7, 64])
def test_stack_detection_matches_rows(order, seed):
    walks = np.asarray(_stack_walks(150, 600, seed=seed), order=order)
    got = detect_artifact_stack(walks, FS, AMP)
    # Sorted by row, then by start.
    assert np.array_equal(np.lexsort((got.start, got.row)), np.arange(got.row.size))
    for i, row in enumerate(walks):
        segs = _listed(got, i)
        assert segs == _listed(detect_artifacts(row, FS, AMP))
        assert segs == _detect_artifacts_loop(row, FS)
    assert not np.isin([5, len(walks) - 2], got.row).any()
    assert set(got.amplitude.tolist()) == {True, False}
    assert got.row.size > 150


@pytest.mark.parametrize("pad_s", [0.0, 2.0])
def test_stack_detection_thresholds_match_rows(monkeypatch, pad_s):
    walks = _stack_walks(20, 500, seed=9)
    monkeypatch.setattr(motion, "_STD_WINDOW_S", 2.0)
    monkeypatch.setattr(motion, "_STD_RATIO", 2.0)
    monkeypatch.setattr(motion, "_PAD_S", pad_s)
    got = detect_artifact_stack(walks, 10.0, 3.0)
    for i, row in enumerate(walks):
        assert _listed(got, i) == _listed(detect_artifacts(row, 10.0, 3.0))
    assert all(a.size == 0 for a in detect_artifact_stack(walks[:0], 10.0, 3.0))


def _moving_std_indexed(x, window):
    """The moving std of one series with every window's sums indexed per
    sample (the detector's earlier form)."""
    n = x.size
    half = window // 2
    csum = np.concatenate([[0.0], np.cumsum(x)])
    csum2 = np.concatenate([[0.0], np.cumsum(x * x)])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + (window - half), n)
    cnt = hi - lo
    mean = (csum[hi] - csum[lo]) / cnt
    var = (csum2[hi] - csum2[lo]) / cnt - mean**2
    return np.sqrt(np.maximum(var, 0.0))


def test_moving_std_rows_match_indexed_form():
    x = spiky_walks(9, 300, seed=5)
    for window in (2, 3, 4, 299):
        got = _moving_std(x, window)
        for row, want in zip(x, got):
            assert want.tobytes() == _moving_std_indexed(row, window).tobytes()
            assert want.tobytes() == _moving_std(row, window).tobytes()


def test_detection_validation():
    with pytest.raises(ValueError, match="exceed"):
        detect_artifacts(np.ones(3), FS, AMP)
    with pytest.raises(ValueError, match="length 4 must exceed the std window 4"):
        detect_artifact_stack(np.ones((5, 4)), FS, AMP)
    with pytest.raises(ValueError, match="must exceed"):
        detect_artifact_stack(np.ones((0, 4)), FS, AMP)
    with pytest.raises(ValueError, match="1-D"):
        detect_artifacts(np.ones((2, 30)), FS, AMP)


# --- spline correction ---


def test_empty_segment_list_is_identity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 200))
    before = x.copy()
    spline_correct(x, _table(), FS)
    assert np.array_equal(x, before)


def test_step_inside_segment_is_flattened():
    x = np.zeros((1, 400))
    x[0, 180:215] += 10.0  # boxcar artifact wholly inside the flagged segment
    spline_correct(x, _table((0, 150, 240)), FS)
    assert np.abs(x).max() < 0.5


def test_spline_reanchors_to_presegment_baseline():
    x = np.full((1, 300), 2.0)
    x[0, 100:140] += 8.0
    spline_correct(x, _table((0, 90, 150)), FS)
    out = x[0]
    # no step discontinuity beyond the pre-segment spread at the boundaries
    assert abs(out[90] - out[89]) < 0.5
    assert abs(out[150] - out[149]) < 0.5
    assert out[110] == pytest.approx(2.0, abs=0.5)


def test_segment_covering_entire_series():
    t = np.arange(200) / FS
    x = 3.0 + 0.5 * t  # pure trend
    out = x[None].copy()
    spline_correct(out, _table((0, 0, 200)), FS)
    assert abs(out.mean()) < 1e-8  # demeaned, trend removed
    assert out.std() < x.std()


def test_spline_never_touches_outside_segments():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 500))
    before = x.copy()
    spline_correct(x, _table((0, 100, 150), (0, 300, 320)), FS)
    mask = np.ones(500, dtype=bool)
    mask[100:150] = False
    mask[300:320] = False
    assert np.array_equal(x[0, mask], before[0, mask])
    assert not np.array_equal(x[0, ~mask], before[0, ~mask])


def test_segment_at_series_start_uses_post_baseline():
    x = np.full((1, 200), 5.0)
    x[0, 0:30] += 7.0
    spline_correct(x, _table((0, 0, 40)), FS)
    assert x[0, 10] == pytest.approx(5.0, abs=0.5)


def test_segment_outside_bounds_rejected():
    with pytest.raises(ValueError, match="outside series"):
        spline_correct(np.zeros((1, 10)), _table((0, 5, 20)), FS)


# --- wavelet correction ---


def test_all_zero_series_stays_zero():
    out = wavelet_correct(np.zeros(100))
    assert np.abs(out).max() == 0.0


def test_smooth_sinusoid_passes_through():
    t = np.arange(400) / FS
    x = np.sin(2 * np.pi * 0.05 * t)
    out = wavelet_correct(x)
    dev = np.sqrt(np.mean((out - x) ** 2))
    assert dev < 0.05 * np.sqrt(np.mean(x**2))


def test_spike_amplitude_reduced_80_percent():
    t = np.arange(400) / FS
    x = np.sin(2 * np.pi * 0.05 * t)
    spiked = x.copy()
    spiked[200] += 20 * x.std()
    out = wavelet_correct(spiked)
    before = abs(spiked[200] - x[200])
    after = abs(out[200] - x[200])
    assert after <= 0.2 * before


def test_infinite_threshold_is_identity():
    rng = np.random.default_rng(3)
    for n in (64, 100, 333, 1024):
        x = rng.normal(size=n)
        out = wavelet_correct(x, iqr_multiplier=np.inf)
        assert np.abs(out - x).max() < 1e-10


def test_short_series_rejected():
    with pytest.raises(ValueError, match="too short"):
        wavelet_correct(np.zeros(15))


def test_negative_multiplier_rejected():
    with pytest.raises(ValueError, match="iqr_multiplier"):
        wavelet_correct(np.zeros(100), iqr_multiplier=-1.0)


def test_output_length_preserved():
    rng = np.random.default_rng(4)
    for n in (16, 57, 400):
        assert wavelet_correct(rng.normal(size=n)).shape == (n,)


# --- batched correction ---


def _spline_correct_loop(x, segments, fs):
    """Reference: each segment fitted, detrended and re-anchored on its own,
    in row and start order (the spline's earlier, per-segment form)."""
    n = x.shape[1]
    n_base = max(1, int(round(2.0 * fs)))
    for i in np.lexsort((segments.start, segments.row)):
        row, a, b = x[segments.row[i]], int(segments.start[i]), int(segments.end[i])
        y = row[a:b]
        if b - a < 5:
            resid = y - np.full(b - a, y.mean())
        else:
            resid = y - _smoothing_spline(y[:, None], 1e-3)[:, 0]
        if a > 0:
            anchor = row[max(0, a - n_base) : a].mean()
        elif b < n:
            anchor = row[b : min(n, b + n_base)].mean()
        else:
            anchor = 0.0
        row[a:b] = resid - resid.mean() + anchor


def _shuffled(segments, seed):
    order = np.random.default_rng(seed).permutation(segments.row.size)
    return Segments(*(a[order] for a in segments))


@pytest.mark.parametrize("fs", [2.0, FS, 10.0])
def test_spline_table_matches_per_segment_reference(fs):
    x = spiky_walks(14, 600, seed=int(fs * 10))
    found = detect_artifact_stack(x, fs, AMP)
    keep = (found.row >= 4) & ~np.isin(found.row, [6, 7])  # rows 6 and 7 stay clean
    table = _table(
        # From sample 0, then segments of 1-4 samples, each anchored on the
        # one corrected just before it.
        (0, 0, 9), (0, 12, 13), (0, 20, 22), (0, 30, 33), (0, 40, 44),
        # The second segment's 2 s anchor window holds the first.
        (1, 100, 160), (1, 162, 200),
        (2, 0, 600),  # the whole series
        # Short at sample 0: anchored on the segment after it, uncorrected.
        (3, 0, 3), (3, 5, 40),
        *zip(found.row[keep], found.start[keep], found.end[keep]),
    )
    want = x.copy()
    _spline_correct_loop(want, table, fs)
    assert want[6:8].tobytes() == x[6:8].tobytes()
    for segments in (table, _shuffled(table, seed=int(fs))):
        got = x.copy()
        spline_correct(got, segments, fs)
        assert got.tobytes() == want.tobytes()


@st.composite
def _spline_cases(draw):
    """A random-walk array and a table of its segments, in random order:
    any lengths from 1 sample to the whole series, touching or apart."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(10, 120))
    segments = []
    for r in range(k):
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=10)))
        segments += [(r, a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
    seed = draw(st.integers(0, 2**16))
    x = np.random.default_rng(seed).normal(size=(k, n)).cumsum(axis=1)
    return x, _shuffled(_table(*segments), seed), draw(st.sampled_from([1.0, 2.0, FS]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_spline_cases())
def test_spline_table_matches_reference_on_random_tables(case):
    x, segments, fs = case
    got, want = x.copy(), x.copy()
    spline_correct(got, segments, fs)
    _spline_correct_loop(want, segments, fs)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 7, 28])
def test_spline_rows_match_single_series(k):
    x = spiky_walks(k, 800, seed=k)
    found = detect_artifact_stack(x, FS, AMP)
    # Edge cases the detector rarely produces: a segment at the start, one
    # shorter than a spline fit, and rows with no segments.
    keep = ((found.row > 0) | (found.start >= 103)) & (found.row != 1)
    segments = _table(
        (0, 0, 30), (0, 100, 103), *zip(found.row[keep], found.start[keep], found.end[keep])
    )
    out = x.copy()
    spline_correct(out, segments, FS)
    assert not np.array_equal(out, x)
    for i in range(k):
        on = segments.row == i
        alone = x[i : i + 1].copy()
        spline_correct(alone, Segments(0 * segments.row[on], *(a[on] for a in segments[1:])), FS)
        assert np.array_equal(out[i], alone[0])


def test_spline_batch_validation():
    x = np.zeros((2, 50))
    with pytest.raises(ValueError, match="float array"):
        spline_correct(x[0], _table(), FS)
    with pytest.raises(ValueError, match="float array"):
        spline_correct(np.zeros((1, 50), dtype=int), _table((0, 5, 20)), FS)
    for row in (2, -1):
        with pytest.raises(ValueError, match=f"segment row {row} outside the array's 2 rows"):
            spline_correct(x, _table((0, 5, 20), (row, 5, 20)), FS)
    for start, end in ((5, 5), (6, 5), (-1, 5), (40, 51)):
        with pytest.raises(ValueError, match=rf"segment \[{start}, {end}\) of row 1 is empty"):
            spline_correct(x, _table((0, 5, 20), (1, start, end)), FS)
    # Found once the table is sorted by row and start.
    with pytest.raises(ValueError, match="segments overlap at sample 10 of row 0"):
        spline_correct(x, _table((0, 10, 30), (1, 0, 20), (0, 5, 20)), FS)
    assert not x.any()  # a refused table changes nothing
    spline_correct(x, _table((0, 20, 30), (0, 5, 20)), FS)  # touching is not overlapping


# --- the numpy smoothing spline against scipy's ---

# The Reinsch fit agrees with make_smoothing_spline(t, y, lam=1e-3)(t), the
# fit it replaced, to this fraction of each column's largest |value|; the
# worst seen over L = 5..5000 was 5e-16.
SPLINE_TOL = 1e-14


def test_smoothing_spline_matches_scipy():
    rng = np.random.default_rng(0)
    for length in [*range(5, 61), 127, 200, 1000, 2000]:
        for columns in (1, 4):
            y = np.cumsum(rng.normal(size=(length, columns)), axis=0)
            y += 3.0 * rng.normal(size=y.shape)
            t = np.arange(length, dtype=float)
            ref = make_smoothing_spline(t, y, lam=1e-3)(t)
            got = _smoothing_spline(y, 1e-3)
            assert np.all(np.abs(got - ref) <= SPLINE_TOL * np.abs(ref).max(axis=0)), length


def test_smoothing_spline_columns_are_independent():
    y = spiky_walks(6, 40, seed=3).T.copy()
    batch = _smoothing_spline(y, 1e-3)
    for j in range(y.shape[1]):
        assert np.array_equal(batch[:, j], _smoothing_spline(y[:, j : j + 1], 1e-3)[:, 0])


def test_smoothing_spline_does_not_depend_on_earlier_fits():
    # A fit gives the same bits whichever lengths and weights were fitted
    # before it.
    cases = [(40, 1e-3), (7, 1e-3), (300, 1e-3), (50, 0.5), (41, 1e-3)]
    ys = [spiky_walks(2, length, seed=5).T.copy() for length, _ in cases]
    fresh = [_smoothing_spline(y, lam).tobytes() for y, (_, lam) in zip(ys, cases)]
    for y, (_, lam), want in zip(ys[::-1], cases[::-1], fresh[::-1]):
        assert _smoothing_spline(y, lam).tobytes() == want


def test_smoothing_spline_keeps_straight_lines():
    # f'' = 0 costs nothing, so a line is its own smoothing spline.
    y = np.stack([np.linspace(-2.0, 5.0, 30), np.full(30, 7.0)], axis=1)
    assert np.allclose(_smoothing_spline(y, 1e-3), y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 7, 28])
@pytest.mark.parametrize("n", [16, 333, 1638])
def test_wavelet_rows_match_single_series(k, n):
    x = spiky_walks(k, n, seed=k + n)
    out = wavelet_correct(x)
    assert out.shape == x.shape
    assert not np.array_equal(out, x)  # outliers were zeroed
    for i in range(k):
        assert np.array_equal(out[i], wavelet_correct(x[i]))


def _add_at_synthesis(approx, levels):
    """The inverse DWT as a scatter: np.add.at adds each contribution to its
    output sample in flat order, starting from 0.0."""
    c = approx
    k = c.shape[0]
    for detail, idx, N in reversed(levels):
        out = np.zeros(k * N)
        rows = (np.arange(k) * N)[:, None, None]
        np.add.at(
            out,
            idx[None] + rows,
            c[:, :, None] * _DB4_LO + detail[:, :, None] * _DB4_HI,
        )
        c = out.reshape(k, N)
    return c


@pytest.mark.parametrize("zeros", [1 / 3, 1.0])
@pytest.mark.parametrize("n", [2, 4, 8, 64, 2048])
@pytest.mark.parametrize("k", [1, 3, 20])
def test_synthesis_gathers_in_add_at_order(k, n, zeros):
    # Full depth from n covers every level size down to 2, where the filter
    # wraps the level more than once. A share of the coefficients are zeros
    # of either sign; where all four contributions to a sample are -0.0, a
    # sum started from 0.0 gives +0.0, as np.add.at does. Synthesis itself
    # never passes -0.0 up a level, so the top level is also synthesized
    # alone, from approximations drawn like the details.
    rng = np.random.default_rng(n + k)
    approx, levels = _dwt_analysis(rng.normal(size=(k, n)))

    def zero(a):
        signed = np.where(rng.random(a.shape) < 0.5, -0.0, 0.0)
        return np.where(rng.random(a.shape) < zeros, signed, a)

    levels = [(zero(detail), idx, N) for detail, idx, N in levels]
    for approx, levels in (
        (zero(approx), levels),
        (zero(rng.normal(size=(k, n // 2))), levels[:1]),
    ):
        want = _add_at_synthesis(approx, levels)
        got = _dwt_synthesis(approx, levels)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _quartile_cases(m, rng):
    """(k, m) rows: Gaussian, ties of a few integers, signed zeros among a
    few values, and magnitudes spread over many decades."""
    k = 9
    ties = rng.integers(-2, 3, size=(k, m)).astype(float)
    zeros = np.where(rng.random((k, m)) < 0.5, -0.0, 0.0)
    zeros = np.where(rng.random((k, m)) < 0.2, rng.normal(size=(k, m)), zeros)
    spread = rng.normal(size=(k, m)) * 10.0 ** rng.integers(-300, 300, size=(k, m))
    return [rng.normal(size=(k, m)), ties, zeros, spread]


@pytest.mark.parametrize("m", [*range(2, 41), 64, 128, 256, 512, 1024])
def test_quartiles_equal_numpy_percentile_bitwise(m):
    rng = np.random.default_rng(m)
    for x in _quartile_cases(m, rng):
        want = np.percentile(x, [25, 75], axis=1, keepdims=True)
        got = motion._quartiles(x)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (len(x), 1)
            assert g.tobytes() == w.tobytes()  # -0.0 included


@pytest.mark.parametrize("n", [16, 333, 1638])
def test_wavelet_row_does_not_depend_on_its_block(n):
    x = spiky_walks(150, n, seed=n)
    alone = np.stack([wavelet_correct(row) for row in x])
    for block in (1, 7, 64, len(x)):
        got = np.concatenate(
            [wavelet_correct(x[lo : lo + block]) for lo in range(0, len(x), block)]
        )
        assert got.tobytes() == alone.tobytes(), block
    # Other companions, in another order.
    order = np.random.default_rng(n).permutation(len(x))
    for lo in range(0, len(x), 64):
        rows = order[lo : lo + 64]
        assert wavelet_correct(x[rows]).tobytes() == alone[rows].tobytes()
