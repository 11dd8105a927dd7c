import hashlib
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from nirscope import epochs as em, optics, synth
from nirscope.cli import EXIT_CONFIG, main
from nirscope.pipeline import PipelineConfig, preprocess_dataset, epochs_from_dataset
from nirscope.signal import bandpass
from nirscope.synth import (
    EffectSpec,
    GroundTruth,
    canonical_hrf,
    default_montage,
    generate_dataset,
    generate_recordings,
    ground_truth_report,
)

EFFECT = EffectSpec(
    target_channels=("S7-D6", "S5-D6"),
    amplitude_ratio=0.5,
    peak_delay_s=1.5,
    chromophore="hbr",
)

# Noise constants of the generator, and the gain spreads, set to zero.
ZERO_NOISE = {
    "_CARDIAC_AMP": 0.0,
    "_RESPIRATION_AMP": 0.0,
    "_MAYER_AMP": 0.0,
    "_WHITE_SD": 0.0,
    "_DRIFT_OD_PER_MIN": 0.0,
    "_SPIKE_RATE_PER_MIN": 0.0,
    "_PARTICIPANT_GAIN_SD": 0.0,
    "_TRIAL_GAIN_SD": 0.0,
}


def _set_constants(monkeypatch, constants):
    for name, value in constants.items():
        monkeypatch.setattr(synth, name, value)


def test_hrf_zero_at_origin():
    assert canonical_hrf(0.0) == 0.0
    assert canonical_hrf(-1.0) == 0.0


def test_hrf_peak_on_dense_grid():
    t = np.arange(0, 30, 0.001)
    h = canonical_hrf(t)
    assert t[np.argmax(h)] == pytest.approx(6.0, abs=0.01)
    assert h.max() == pytest.approx(1.0, rel=1e-9)


def test_hrf_returns_to_baseline_by_30s():
    assert abs(canonical_hrf(30.0)) < 0.02


def test_hrf_has_undershoot():
    t = np.arange(0, 30, 0.01)
    h = canonical_hrf(t)
    assert h.min() < -0.01
    assert t[np.argmin(h)] > 10.0


# --- the HRF constants against scipy.optimize.brentq ---


def _gamma_lobe(t, mode, shape):
    return (t / mode) ** (shape - 1) * math.exp(-(t - mode) * (shape - 1) / mode)


def _gamma_lobe_slope(t, mode, shape):
    return _gamma_lobe(t, mode, shape) * (shape - 1) * (1 / t - 1 / mode)


def test_hrf_constants_equal_scipy_brentq_solve():
    # The main-lobe mode that puts the slope of main - ratio * undershoot to
    # zero at the peak, solved over [peak / 2, 4 peak], and the curve there.
    peak = synth._HRF_PEAK_S
    target = synth._HRF_UNDERSHOOT_RATIO * _gamma_lobe_slope(
        peak, synth._HRF_UNDERSHOOT_S, synth._HRF_SHAPE_UNDER
    )
    mode = brentq(
        lambda m: _gamma_lobe_slope(peak, m, synth._HRF_SHAPE_MAIN) - target,
        0.5 * peak,
        4.0 * peak,
        xtol=1e-12,
    )
    value = _gamma_lobe(peak, mode, synth._HRF_SHAPE_MAIN) - synth._HRF_UNDERSHOOT_RATIO * (
        _gamma_lobe(peak, synth._HRF_UNDERSHOOT_S, synth._HRF_SHAPE_UNDER)
    )
    assert mode.hex() == synth._HRF_MAIN_MODE_S.hex()
    assert value.hex() == synth._HRF_PEAK_VALUE.hex()


def test_default_montage_shape():
    m = default_montage()
    assert len(m.long_channels) == 20
    assert len(m.short_channels) == 8
    assert len(m.sources) == 8
    ids = set(m.channel_ids)
    for needed in ("S7-D6", "S7-D7", "S6-D7", "S5-D6", "S6-D5"):
        assert needed in ids
    assert m.roi_map["supramarginal_angular"] == ("S7-D6", "S7-D7")


def test_same_seed_is_bit_identical():
    a, gta = generate_dataset(2, 2, effect=EFFECT, seed=42)
    b, gtb = generate_dataset(2, 2, effect=EFFECT, seed=42)
    assert a == b
    assert gta == gtb
    c, _ = generate_dataset(2, 2, effect=EFFECT, seed=43)
    assert a != c


# The sha256 of each participant's intensity bytes (P01, then C01; two
# trials per task, seed 4) on the synthesis paths the golden dataset, an
# HbR effect with both an amplitude ratio and a delay, leaves out. The
# control's recording is the same in every case.
_CONTROL_SHA256 = "99b5d9b6cc19023f5664c6072c06b33fa196d0aaf5e45fc45487b16c112a27e5"
SYNTH_PATHS = {
    "no-effect": (
        None, "bb7ad0d18a848691f75859e14b84457d0bd23a8246c506bcd8c79f8220c2b2f4",
    ),
    "hbo-effect": (
        EffectSpec(("S7-D6", "S5-D6"), 0.5, 1.5, "hbo"),
        "3ff06321f15f33c8fadb0bb00e09f359e9da508e689ad43b874cef7d3fa75806",
    ),
    "amplitude-only": (
        EffectSpec(("S7-D6", "S5-D6"), 0.5, 0.0, "hbr"),
        "f7eb2964d28e35ad757283be1be2cf1b100a42f9cfc6b062b686ffee88d3059b",
    ),
    "delay-only": (
        EffectSpec(("S7-D6", "S5-D6"), 1.0, 1.5, "hbr"),
        "c8697f420cce2c2364ebe5c5406277a5a4b882530b54d134ec351221caed388b",
    ),
}


@pytest.mark.parametrize("case", SYNTH_PATHS)
def test_synthesis_paths_keep_their_bytes(case):
    effect, patient_sha256 = SYNTH_PATHS[case]
    got = [
        hashlib.sha256(rec.intensity.tobytes()).hexdigest()
        for rec in generate_recordings(1, 1, 2, effect, seed=4)
    ]
    assert got == [patient_sha256, _CONTROL_SHA256]


def test_intensities_strictly_positive_even_with_heavy_noise(monkeypatch):
    heavy = {
        "_CARDIAC_AMP": 5e-6,
        "_RESPIRATION_AMP": 5e-6,
        "_MAYER_AMP": 5e-6,
        "_WHITE_SD": 1e-6,
        "_DRIFT_OD_PER_MIN": 0.05,
        "_SPIKE_RATE_PER_MIN": 10.0,
        "_SPIKE_OD_AMP": 0.5,
    }
    _set_constants(monkeypatch, heavy)
    ds, _ = generate_dataset(1, 1, seed=9)
    for rec in ds.recordings:
        assert np.all(rec.intensity > 0)


def test_effect_channel_must_exist():
    bad = EffectSpec(target_channels=("S9-D9",), amplitude_ratio=0.5)
    with pytest.raises(ValueError, match="absent from montage"):
        generate_dataset(1, 1, effect=bad, seed=0)


def test_block_design_annotation_layout():
    ds, _ = generate_dataset(1, 1, seed=3)
    rec = ds.recordings[0]
    assert len(rec.annotations) == 10
    labels = sorted(a.label for a in rec.annotations)
    assert labels == ["dual"] * 5 + ["single"] * 5
    onsets = sorted(a.onset_s for a in rec.annotations)
    assert onsets[0] == pytest.approx(20.0)
    assert all(b - a == pytest.approx(40.0) for a, b in zip(onsets, onsets[1:]))


def test_null_effect_ground_truth_is_empty():
    _, gt = generate_dataset(1, 1, effect=None, seed=0)
    assert gt.discriminative == ()
    null_spec = EffectSpec(target_channels=("S7-D6",), amplitude_ratio=1.0, peak_delay_s=0.0)
    _, gt2 = generate_dataset(1, 1, effect=null_spec, seed=0)
    assert gt2.discriminative == ()


def test_ground_truth_channel_list_matches_effect():
    _, gt = generate_dataset(1, 1, effect=EFFECT, seed=0)
    assert gt.discriminative == (("S7-D6", "hbr"), ("S5-D6", "hbr"))


@pytest.mark.parametrize(
    "targets", [("S1-SD1",), ("S7-D6", "S7-D6")], ids=["short-target", "repeated-target"]
)
def test_ground_truth_lists_each_long_target_once(targets, tmp_path):
    effect = EffectSpec(targets, amplitude_ratio=0.5, peak_delay_s=1.5)
    if targets == ("S1-SD1",):
        # A short channel carries no evoked response: the effect is refused,
        # and the CLI's synth and run exit with a config error and write nothing.
        with pytest.raises(ValueError, match=r"\['S1-SD1'\] are short"):
            generate_dataset(1, 1, trials_per_task=1, effect=effect, seed=0)
        flags = ["--patients", "2", "--controls", "2", "--trials", "1",
                 "--effect-channels", "S1-SD1", "--amplitude-ratio", "0.5"]
        for command in (["synth"], ["run", "--folds", "2"]):
            out = tmp_path / command[0]
            assert main([*command, *flags, "--out", str(out)]) == EXIT_CONFIG
            assert not out.exists()
        return
    _, gt = generate_dataset(1, 1, trials_per_task=1, effect=effect, seed=0)
    assert gt.discriminative == (("S7-D6", "hbr"),)
    assert gt.true_peak_s["P01"]["hbr"] == 7.5


def test_ground_truth_report_round_trip():
    _, gt = generate_dataset(2, 1, effect=EFFECT, seed=11)
    patient, control = {"hbo": 6.0, "hbr": 7.5}, {"hbo": 6.0, "hbr": 6.0}
    assert json.loads(ground_truth_report(gt)) == {
        "seed": 11,
        "labels": {"P01": "patient", "P02": "patient", "C01": "control"},
        "discriminative": [["S7-D6", "hbr"], ["S5-D6", "hbr"]],
        "amplitude_ratio": 0.5,
        "peak_delay_s": 1.5,
        "hrf_peak_s": 6.0,
        "true_peak_s": {"P01": patient, "P02": patient, "C01": control},
    }


def test_true_peak_delay_exactly_injected():
    _, gt = generate_dataset(3, 3, effect=EFFECT, seed=2)
    for pid, group in gt.labels.items():
        peaks = gt.true_peak_s[pid]
        if group == "patient":
            assert peaks["hbr"] == pytest.approx(6.0 + 1.5)
            assert peaks["hbo"] == pytest.approx(6.0)  # weight 0 for hbo
        else:
            assert peaks["hbr"] == pytest.approx(6.0)


def test_effect_spec_validation():
    with pytest.raises(ValueError):
        EffectSpec(target_channels=("A",), amplitude_ratio=0.0)
    with pytest.raises(ValueError):
        EffectSpec(target_channels=("A",), peak_delay_s=-1.0)
    with pytest.raises(ValueError):
        EffectSpec(target_channels=("A",), chromophore="hbx")


def test_zero_noise_pipeline_reproduces_band_limited_response(monkeypatch):
    # conversion-chain fidelity: with nothing to correct, the pipeline output
    # equals the band-passed injected concentration series to numerical
    # precision
    _set_constants(monkeypatch, ZERO_NOISE)
    ds, _ = generate_dataset(1, 1, seed=7)
    rec = ds.recordings[0]
    table = optics.default_extinction_table()
    cfg = PipelineConfig(motion_correction=False)
    hemo = preprocess_dataset(ds, cfg)
    spec = cfg.bandpass_spec()
    for li, ch in enumerate(ds.montage.long_channels):
        i = list(rec.channel_ids).index(ch.id)
        od = optics.intensity_to_od(rec.intensity[:, i])
        inj_hbo, inj_hbr = optics.mbll_invert(od, (760.0, 850.0), ch.distance_m, table)
        ref = bandpass(inj_hbo, spec, rec.sample_rate_hz)
        out = hemo.hemo[0].hemo[0, li]
        assert np.abs(out - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1e-12)


def test_patient_amplitude_ratio_recovered_after_preprocessing():
    # hbr block-average amplitude in the target channels comes out near half
    # of control after the full default pipeline on default-noise data
    ds, _ = generate_dataset(
        12, 12,
        effect=EffectSpec(
            target_channels=("S7-D6", "S5-D6"),
            amplitude_ratio=0.5,
            peak_delay_s=0.0,
            chromophore="hbr",
        ),
        seed=2,
    )
    cfg = PipelineConfig()
    eps = epochs_from_dataset(preprocess_dataset(ds, cfg), cfg)
    ratios = []
    for channel in ("S7-D6", "S5-D6"):
        ci = eps.channel_ids.index(channel)
        control = np.mean(
            [em.block_average(eps, t, group="control").mean[1, ci] for t in ("single", "dual")],
            axis=0,
        )
        patient = np.mean(
            [em.block_average(eps, t, group="patient").mean[1, ci] for t in ("single", "dual")],
            axis=0,
        )
        ratios.append(np.abs(patient).max() / np.abs(control).max())
    assert float(np.mean(ratios)) == pytest.approx(0.5, abs=0.05)

