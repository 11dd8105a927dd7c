import numpy as np
import pytest
from scipy import signal as sps

from conftest import spiky_walks
from nirscope.signal import (
    BandpassSpec,
    _design,
    bandpass,
    bandpass_gain,
    bandpass_sos,
    match_short_channel,
    short_channel_regress,
)
from nirscope.synth import default_montage

FS = 3.9


def _steady_amplitude(out, fs, discard_s=20.0):
    k = int(discard_s * fs)
    mid = out[k:-k]
    return (mid.max() - mid.min()) / 2.0


def test_dc_series_is_removed():
    x = np.full(int(120 * FS), 5.0)
    out = bandpass(x, BandpassSpec(), FS)
    k = int(5 * FS)
    assert np.abs(out[k:-k]).max() < 1e-3


def test_passband_sinusoid_survives():
    t = np.arange(int(400 * FS)) / FS
    x = np.sin(2 * np.pi * 0.2 * t)
    out = bandpass(x, BandpassSpec(), FS)
    amp = _steady_amplitude(out, FS, discard_s=60.0)
    analytic = float(bandpass_gain(BandpassSpec(), FS, [0.2])[0])
    assert amp >= 0.9
    assert amp == pytest.approx(analytic, abs=0.02)


def test_cardiac_band_attenuated_20db():
    t = np.arange(int(400 * FS)) / FS
    x = np.sin(2 * np.pi * 1.1 * t)
    out = bandpass(x, BandpassSpec(), FS)
    amp = _steady_amplitude(out, FS, discard_s=60.0)
    analytic = float(bandpass_gain(BandpassSpec(), FS, [1.1])[0])
    assert amp <= 0.1
    assert amp == pytest.approx(analytic, abs=0.02)


def test_designed_filter_matches_closed_form_butterworth():
    # independent oracle: analog Butterworth band-pass magnitude evaluated at
    # the bilinear-prewarped frequency
    spec = BandpassSpec()
    half_order = spec.order // 2

    def analytic(f):
        warp = lambda x: 2 * FS * np.tan(np.pi * x / FS)
        o1, o2 = warp(spec.low_cut_hz), warp(spec.high_cut_hz)
        o = warp(f)
        ratio = (o**2 - o1 * o2) / (o * (o2 - o1))
        return 1.0 / np.sqrt(1.0 + ratio ** (2 * half_order))

    for f in (0.06, 0.1, 0.2, 0.5, 0.69, 1.1, 1.5):
        designed = float(np.sqrt(bandpass_gain(spec, FS, [f])[0]))  # single pass
        assert designed == pytest.approx(analytic(f), rel=1e-9)


def test_bandpass_is_linear():
    rng = np.random.default_rng(0)
    x = rng.normal(size=800)
    y = rng.normal(size=800)
    a = 3.7
    spec = BandpassSpec()
    lhs = bandpass(a * x + y, spec, FS)
    rhs = a * bandpass(x, spec, FS) + bandpass(y, spec, FS)
    assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(lhs).max())


def test_bandpass_time_invariant_on_interior():
    rng = np.random.default_rng(1)
    x = rng.normal(size=3000)
    k = 7
    spec = BandpassSpec()
    shifted = np.concatenate([np.zeros(k), x])[:3000]
    out = bandpass(x, spec, FS)
    out_shifted = bandpass(shifted, spec, FS)
    margin = 400
    a = out[margin : 3000 - margin - k]
    b = out_shifted[margin + k : 3000 - margin]
    assert np.abs(a - b).max() < 1e-6 * np.abs(a).max()


def test_bandpass_output_length_and_validation():
    x = np.sin(np.arange(100))
    assert bandpass(x, BandpassSpec(), FS).shape == x.shape
    with pytest.raises(ValueError, match="Nyquist"):
        bandpass(x, BandpassSpec(high_cut_hz=2.0), FS)
    with pytest.raises(ValueError, match="too short"):
        bandpass(x[:10], BandpassSpec(), FS)
    with pytest.raises(ValueError):
        BandpassSpec(low_cut_hz=0.5, high_cut_hz=0.1)
    with pytest.raises(ValueError):
        BandpassSpec(order=3)


def test_single_pass_mode_runs():
    t = np.arange(int(200 * FS)) / FS
    x = np.sin(2 * np.pi * 0.2 * t)
    out = bandpass(x, BandpassSpec(zero_phase=False), FS)
    assert out.shape == x.shape
    amp = _steady_amplitude(out, FS, discard_s=60.0)
    assert amp == pytest.approx(float(bandpass_gain(BandpassSpec(zero_phase=False), FS, [0.2])[0]), abs=0.03)


# --- short-channel regression ---


def test_perfect_contamination_removed():
    rng = np.random.default_rng(2)
    short = rng.normal(size=500)
    long = 2.5 * short
    out = short_channel_regress(long, short)
    assert out.std() < 1e-10


def test_orthogonal_short_leaves_long_untouched():
    t = np.arange(400)
    long = np.sin(2 * np.pi * t / 100)  # whole periods
    short = np.cos(2 * np.pi * t / 100)
    out = short_channel_regress(long, short)
    assert np.abs(out - long).max() < 1e-9


def test_recovers_neural_when_orthogonal():
    rng = np.random.default_rng(3)
    short = rng.normal(size=1000)
    sd = short - short.mean()
    neural = rng.normal(size=1000)
    neural -= neural.mean()
    neural -= (neural @ sd) / (sd @ sd) * sd  # exactly orthogonal to short
    long = neural + 0.8 * short
    out = short_channel_regress(long, short)
    rms = np.sqrt(np.mean((out - out.mean() - neural) ** 2))
    assert rms < 1e-6


def test_output_orthogonal_to_demeaned_short():
    rng = np.random.default_rng(4)
    long = rng.normal(size=300)
    short = rng.normal(size=300) + 0.3 * long
    out = short_channel_regress(long, short)
    sd = short - short.mean()
    inner = abs(out @ sd)
    assert inner < 1e-9 * np.linalg.norm(out) * np.linalg.norm(sd)


def test_regression_is_idempotent():
    rng = np.random.default_rng(5)
    long = rng.normal(size=300)
    short = rng.normal(size=300)
    once = short_channel_regress(long, short)
    sd = short - short.mean()
    beta_second = (once - once.mean()) @ sd / (sd @ sd)
    assert abs(beta_second) < 1e-12


def test_zero_variance_short_is_an_error():
    with pytest.raises(ValueError, match="uninformative short channel"):
        short_channel_regress(np.arange(10.0), np.full(10, 2.0))
    rows = np.random.default_rng(6).normal(size=(3, 10))
    shorts = rows.copy()
    shorts[1] = 2.0
    with pytest.raises(ValueError, match="uninformative short channel"):
        short_channel_regress(rows, shorts)


def _regress_one(long, short):
    """The regression of one series, each inner product one dot."""
    sd = short - short.mean()
    beta = float((long - long.mean()) @ sd) / float(sd @ sd)
    return long - beta * sd


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1638, 1199, 12558])
def test_regression_rows_match_single_series(order, n):
    rng = np.random.default_rng(n)
    short = rng.normal(size=(12, n))
    long = np.asarray(rng.normal(size=(12, n)) + 0.7 * short, order=order)
    short = np.asarray(short, order=order)
    out = short_channel_regress(long, short)
    assert out.shape == long.shape
    for i in range(len(long)):
        want = _regress_one(long[i], short[i]).tobytes()
        assert out[i].tobytes() == want
        assert short_channel_regress(long[i], short[i]).tobytes() == want


# --- short-channel matching ---


def test_match_prefers_shared_source():
    montage = default_montage()
    assert match_short_channel(montage, "S7-D6") == "S7-SD7"
    assert match_short_channel(montage, "S5-D6") == "S5-SD5"


def test_match_tie_breaks_by_smallest_detector(small_montage):
    from nirscope.model import Channel, Montage

    montage = Montage(
        sources=("S1",),
        detectors=("D1", "SD9", "SD2"),
        channels=(
            Channel("S1", "D1", 0.03, "long", "left"),
            Channel("S1", "SD9", 0.008, "short", "left"),
            Channel("S1", "SD2", 0.008, "short", "left"),
        ),
    )
    assert match_short_channel(montage, "S1-D1") == "S1-SD2"


def test_match_falls_back_to_first_short():
    from nirscope.model import Channel, Montage

    montage = Montage(
        sources=("S1", "S2"),
        detectors=("D1", "SD2"),
        channels=(
            Channel("S1", "D1", 0.03, "long", "left"),
            Channel("S2", "SD2", 0.008, "short", "right"),
        ),
    )
    assert match_short_channel(montage, "S1-D1") == "S2-SD2"


def test_match_requires_a_short_channel():
    from nirscope.model import Channel, Montage

    montage = Montage(
        sources=("S1",),
        detectors=("D1",),
        channels=(Channel("S1", "D1", 0.03, "long", "left"),),
    )
    with pytest.raises(ValueError, match="no short channels"):
        match_short_channel(montage, "S1-D1")


# --- batched filtering ---


@pytest.mark.parametrize("k", [1, 7, 28])
@pytest.mark.parametrize("zero_phase", [True, False])
def test_bandpass_rows_match_single_series(k, zero_phase):
    spec = BandpassSpec(zero_phase=zero_phase)
    x = spiky_walks(k, 600, seed=k)
    out = bandpass(x, spec, FS)
    assert out.shape == x.shape
    for i in range(k):
        assert np.array_equal(out[i], bandpass(x[i], spec, FS))


def test_bandpass_filters_the_last_axis_of_any_stack():
    x = spiky_walks(6, 300, seed=5).reshape(2, 3, 300)
    out = bandpass(x, BandpassSpec(), FS)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out[i, j], bandpass(x[i, j], BandpassSpec(), FS))


# --- scipy.signal as the oracle of the numpy port ---

BANDS = ((0.05, 0.7), (0.01, 0.5), (0.1, 0.3), (0.02, 1.5), (0.5, 0.6), (0.9, 1.0))
RATES = (3.9, 3.90625, 7.8125, 10.0, 50.0)


def _scipy_design(spec, fs):
    sos = sps.butter(
        spec.order // 2, [spec.low_cut_hz, spec.high_cut_hz], btype="band", fs=fs, output="sos"
    )
    n_probe = int(min(60.0 / spec.low_cut_hz * fs, 1_000_000))
    impulse = np.zeros(n_probe)
    impulse[0] = 1.0
    resp = np.abs(sps.sosfilt(sos, impulse))
    above = np.nonzero(resp > 1e-8 * resp.max())[0]
    return sos, int(above[-1]) + 1 if above.size else 1


@pytest.mark.parametrize("fs", RATES)
@pytest.mark.parametrize("order", [2, 4, 6, 8, 10])
def test_design_equals_scipy_butter(order, fs):
    checked = 0
    for low, high in BANDS:
        spec = BandpassSpec(low, high, order=order)
        if high >= fs / 2:
            continue
        sos, settle = _scipy_design(spec, fs)
        assert np.array_equal(bandpass_sos(spec, fs), sos)
        assert _design(spec, fs)[2] == settle
        freqs = np.linspace(0.001, 0.999 * fs / 2, 97)
        _, h = sps.sosfreqz(sos, worN=freqs * (2 * np.pi / fs))
        single = BandpassSpec(low, high, order=order, zero_phase=False)
        assert np.abs(bandpass_gain(single, fs, freqs) - np.abs(h)).max() <= 1e-12
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize(
    "shape", [(1, 600), (7, 333), (960, 1638), (2, 3, 401)], ids=lambda s: "x".join(map(str, s))
)
def test_zero_phase_equals_scipy_sosfiltfilt(shape):
    spec = BandpassSpec()
    sos, settle = _scipy_design(spec, FS)
    x = spiky_walks(int(np.prod(shape[:-1])), shape[-1], seed=shape[0]).reshape(shape)
    n = shape[-1]
    want = sps.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=min(settle, n - 1))
    assert np.array_equal(bandpass(x, spec, FS), want)


@pytest.mark.parametrize("n", [12, 13, 40, 305, 306, 307, 1000, 1637, 1638])
@pytest.mark.parametrize("low_cut", [0.05, 0.01])
def test_zero_phase_equals_sosfiltfilt_at_every_padding(n, low_cut):
    # At 0.05 Hz the settle length is 305 samples; at 0.01 Hz it exceeds
    # 1637, so the padding is n - 1 for every n here.
    spec = BandpassSpec(low_cut_hz=low_cut)
    sos, settle = _scipy_design(spec, FS)
    x = spiky_walks(3, n, seed=n)
    want = sps.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=min(settle, n - 1))
    assert np.array_equal(bandpass(x, spec, FS), want)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_single_pass_equals_scipy_sosfilt_from_steady_state(order):
    spec = BandpassSpec(order=order, zero_phase=False)
    sos, _ = _scipy_design(spec, FS)
    x = spiky_walks(5, 700, seed=order)
    want, _ = sps.sosfilt(sos, x, axis=-1, zi=sps.sosfilt_zi(sos)[:, None, :] * x[:, :1])
    assert np.array_equal(bandpass(x, spec, FS), want)


@pytest.mark.parametrize("zero_phase", [True, False])
def test_list_of_stacks_of_any_length_equals_scipy(zero_phase):
    # Stacks of different lengths share one buffer; each row must still
    # come out as scipy filters it alone.
    spec = BandpassSpec(low_cut_hz=0.01, zero_phase=zero_phase)
    sos, settle = _scipy_design(spec, FS)
    shapes = [(3, 1638), (2, 2, 40), (5, 700), (1, 12), (2, 1638)]
    series = [
        spiky_walks(int(np.prod(s[:-1])), s[-1], seed=i).reshape(s) for i, s in enumerate(shapes)
    ]
    out = bandpass(series, spec, FS)
    assert isinstance(out, list) and len(out) == len(series)
    for x, got in zip(series, out):
        n = x.shape[-1]
        if zero_phase:
            want = sps.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=min(settle, n - 1))
        else:
            zi = sps.sosfilt_zi(sos).reshape(len(sos), *(1,) * (x.ndim - 1), 2)
            want, _ = sps.sosfilt(sos, x, axis=-1, zi=zi * x[..., :1])
        assert got.shape == x.shape
        assert np.array_equal(got, want)


def test_bandpass_of_no_rows_is_empty():
    assert bandpass(np.zeros((0, 50)), BandpassSpec(), FS).shape == (0, 50)
    assert bandpass([], BandpassSpec(), FS) == []
