import numpy as np
import pytest
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
    ArtifactSegment,
    detect_artifact_stack,
    detect_artifacts,
    spline_correct,
    wavelet_correct,
)

FS = 3.9


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
    assert detect_artifacts(x, FS) == []


def test_single_spike_yields_one_segment_containing_it():
    t = np.arange(int(200 * FS)) / FS
    x = np.sin(2 * np.pi * 0.1 * t)
    spike_at = 400
    x[spike_at] += 10 * x.std()
    assert _threshold_oracle(x)[spike_at]
    segs = detect_artifacts(x, FS)
    assert len(segs) == 1
    assert segs[0].start <= spike_at < segs[0].end


def test_constant_series_yields_no_segments():
    assert detect_artifacts(np.full(100, 3.0), FS) == []


def test_segments_are_padded_and_merged():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 0.1, size=800)
    x[300] += 50
    x[303] += 50  # within the 0.5 s padding of the first
    segs = detect_artifacts(x, FS)
    assert len(segs) == 1
    pad = int(round(0.5 * FS))
    assert segs[0].start <= 300 - pad + 1
    assert segs[0].end >= 303 + pad - 1


def _detect_artifacts_loop(x, fs, amp_threshold=5.0, std_threshold=3.0, pad_s=0.5):
    """Reference: flagged samples merged one index at a time, triggers kept
    in an object array (the detector's earlier form)."""
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
        trigger = "amplitude" if run_amp else "moving_std"
        if segments and start <= segments[-1].end:
            last = segments[-1]
            if last.trigger == "amplitude":
                trigger = "amplitude"
            segments[-1] = ArtifactSegment(last.start, end, "c", trigger)
        else:
            segments.append(ArtifactSegment(start, end, "c", trigger))
        if i is not None:
            run_start = prev = i
    return segments


@pytest.mark.parametrize("fs", [2.0, 3.9, 10.0])
@pytest.mark.parametrize("pad_s", [0.0, 0.5, 2.0])
def test_detection_matches_loop_reference(fs, pad_s):
    walks = spiky_walks(40, 600, seed=int(fs * 10 + pad_s * 100))
    # Steps make long moving-std runs with no amplitude flag next to the
    # spikes, so both triggers occur.
    walks[::3, 300:] += 30 * walks[::3].std(axis=1, keepdims=True)
    walks[1::4, 0] += 40 * walks[1::4].std(axis=1)
    n_segments = 0
    triggers = set()
    for row in walks:
        got = detect_artifacts(row, fs, channel_id="c", pad_s=pad_s)
        assert got == _detect_artifacts_loop(row, fs, pad_s=pad_s)
        n_segments += len(got)
        triggers.update(seg.trigger for seg in got)
    assert n_segments > 40
    assert triggers == {"amplitude", "moving_std"}


def test_spike_segments_are_labelled_amplitude():
    # From a 3-sample window up (3.9 Hz at 1 s) the moving std also flags the
    # sample before each spike, so every run starts on a moving-std flag.
    x = np.random.default_rng(6).normal(0, 1.0, size=1200)
    spikes = [100, 300, 500, 700, 900, 1100]
    x[spikes] += 500
    segs = detect_artifacts(x, FS, channel_id="c")
    assert len(segs) == 6
    for seg, at in zip(segs, spikes):
        assert seg.start < at < seg.end
    assert [seg.trigger for seg in segs] == ["amplitude"] * 6
    assert segs == _detect_artifacts_loop(x, FS)


def test_detection_merges_overlapping_padded_runs_like_loop():
    x = np.random.default_rng(4).normal(0, 0.1, size=800)
    x[[100, 104, 108, 300, 320]] += 50
    x[790] += 50
    unpadded = detect_artifacts(x, FS, channel_id="c", pad_s=0.0)
    padded = detect_artifacts(x, FS, channel_id="c", pad_s=2.0)
    assert unpadded == _detect_artifacts_loop(x, FS, pad_s=0.0)
    assert padded == _detect_artifacts_loop(x, FS, pad_s=2.0)
    # The runs around 300 and 320 meet only once padded by 8 samples each,
    # and the last padded end is clipped to the series.
    assert len(unpadded) == 4 and len(padded) == 3
    assert padded[1].start < 300 and padded[1].end > 320
    assert padded[-1].end == x.size


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
@pytest.mark.parametrize("block", [7, 64])
def test_stack_detection_matches_rows(order, block, monkeypatch):
    # 150 rows: blocks of 7 or 64 leave a partial last block.
    monkeypatch.setattr(motion, "_DETECT_BLOCK_ROWS", block)
    walks = np.asarray(_stack_walks(150, 600, seed=block), order=order)
    ids = [f"c{i}" for i in range(len(walks))]
    got = detect_artifact_stack(walks, FS, channel_ids=ids)
    assert len(got) == len(walks)
    triggers = set()
    for i, (row, segs) in enumerate(zip(walks, got)):
        assert segs == detect_artifacts(row, FS, channel_id=ids[i])
        loop = _detect_artifacts_loop(row, FS)
        assert [(s.start, s.end, s.trigger) for s in segs] == [
            (s.start, s.end, s.trigger) for s in loop
        ]
        assert all(s.channel_id == ids[i] for s in segs)
        triggers.update(s.trigger for s in segs)
    assert got[5] == [] and got[-2] == []
    assert triggers == {"amplitude", "moving_std"}
    assert sum(map(len, got)) > 150


@pytest.mark.parametrize("pad_s", [0.0, 2.0])
def test_stack_detection_thresholds_match_rows(pad_s):
    walks = _stack_walks(20, 500, seed=9)
    kwargs = dict(amp_threshold=3.0, std_window_s=2.0, std_threshold=2.0, pad_s=pad_s)
    got = detect_artifact_stack(walks, 10.0, **kwargs)
    assert got == [detect_artifacts(row, 10.0, **kwargs) for row in walks]
    assert detect_artifact_stack(walks[:0], 10.0) == []


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
        detect_artifacts(np.ones(3), FS)
    with pytest.raises(ValueError, match="length 4 must exceed the std window 4"):
        detect_artifact_stack(np.ones((5, 4)), FS)
    with pytest.raises(ValueError, match="must exceed"):
        detect_artifact_stack(np.ones((0, 4)), FS)
    with pytest.raises(ValueError, match="1-D"):
        detect_artifacts(np.ones((2, 30)), FS)
    with pytest.raises(ValueError, match="channel ids"):
        detect_artifact_stack(np.ones((2, 30)), FS, channel_ids=["a"])
    with pytest.raises(ValueError):
        ArtifactSegment(5, 5)
    with pytest.raises(ValueError):
        ArtifactSegment(0, 3, trigger="other")


# --- spline correction ---


def test_empty_segment_list_is_identity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=200)
    out = spline_correct(x, [], fs=FS)
    assert np.array_equal(out, x)


def test_step_inside_segment_is_flattened():
    x = np.zeros(400)
    x[180:215] += 10.0  # boxcar artifact wholly inside the flagged segment
    segs = [ArtifactSegment(150, 240)]
    out = spline_correct(x, segs, fs=FS)
    assert np.abs(out).max() < 0.5


def test_spline_reanchors_to_presegment_baseline():
    x = np.full(300, 2.0)
    x[100:140] += 8.0
    out = spline_correct(x, [ArtifactSegment(90, 150)], fs=FS)
    # no step discontinuity beyond the pre-segment spread at the boundaries
    assert abs(out[90] - out[89]) < 0.5
    assert abs(out[150] - out[149]) < 0.5
    assert out[110] == pytest.approx(2.0, abs=0.5)


def test_segment_covering_entire_series():
    t = np.arange(200) / FS
    x = 3.0 + 0.5 * t  # pure trend
    out = spline_correct(x, [ArtifactSegment(0, 200)], fs=FS)
    assert out.shape == x.shape
    assert abs(out.mean()) < 1e-8  # demeaned, trend removed
    assert out.std() < x.std()


def test_spline_never_touches_outside_segments():
    rng = np.random.default_rng(2)
    x = rng.normal(size=500)
    segs = [ArtifactSegment(100, 150), ArtifactSegment(300, 320)]
    out = spline_correct(x, segs, fs=FS)
    mask = np.ones(500, dtype=bool)
    mask[100:150] = False
    mask[300:320] = False
    assert np.array_equal(out[mask], x[mask])


def test_segment_at_series_start_uses_post_baseline():
    x = np.full(200, 5.0)
    x[0:30] += 7.0
    out = spline_correct(x, [ArtifactSegment(0, 40)], fs=FS)
    assert out[10] == pytest.approx(5.0, abs=0.5)


def test_segment_outside_bounds_rejected():
    with pytest.raises(ValueError, match="outside series"):
        spline_correct(np.zeros(10), [ArtifactSegment(5, 20)], fs=FS)


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


@pytest.mark.parametrize("k", [1, 7, 28])
def test_spline_rows_match_single_series(k):
    x = spiky_walks(k, 800, seed=k)
    segments = [detect_artifacts(row, FS) for row in x]
    # Edge cases the detector rarely produces: a segment at the start, one
    # shorter than a spline fit, and rows with no segments.
    segments[0] = [ArtifactSegment(0, 30), ArtifactSegment(100, 103)] + [
        s for s in segments[0] if s.start >= 103
    ]
    if k > 1:
        segments[1] = []
    out = spline_correct(x, segments, fs=FS)
    assert out.shape == x.shape
    for i in range(k):
        assert np.array_equal(out[i], spline_correct(x[i], segments[i], fs=FS))


def test_spline_batch_validation():
    x = np.zeros((2, 50))
    with pytest.raises(ValueError, match="segment lists"):
        spline_correct(x, [[]], fs=FS)
    with pytest.raises(ValueError, match="overlap"):
        spline_correct(x[0], [ArtifactSegment(5, 20), ArtifactSegment(10, 30)], fs=FS)


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
