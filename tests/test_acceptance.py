"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The end-to-end criteria (6-8) generate synthetic datasets and run
the full default pipeline; total runtime is a few minutes on a laptop.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy import signal as sps

from nirscope import epochs as em, explain, learn, optics, stats
from nirscope.cli import EXIT_OK, main
from nirscope.pipeline import (
    REPORT_FILES,
    PipelineConfig,
    epochs_from_dataset,
    preprocess_dataset,
)
from nirscope.signal import BandpassSpec, bandpass, bandpass_sos
from nirscope.synth import EffectSpec, generate_dataset

from conftest import make_epoch_set

EFFECT = EffectSpec(
    target_channels=("S7-D6", "S5-D6"),
    amplitude_ratio=0.5,
    peak_delay_s=1.5,
    chromophore="hbr",
)
SEEDS = (1, 2, 3, 4, 5)


def _report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_statistics_golden_values():
    t0 = time.time()
    cases = [
        ("S7-D6 single", (4336, 1.40e-6, 8.68e-6), (5135, 5.78e-7, 6.28e-6), 5.374),
        ("S5-D6 single", (4336, -6.72e-9, 6.53e-6), (5135, -3.51e-7, 6.11e-6), 2.646),
        ("S7-D6 dual", (4336, 1.83e-6, 8.66e-6), (5135, 9.54e-7, 6.15e-6), 5.738),
        ("S5-D6 dual", (4336, 3.56e-7, 7.66e-6), (5135, -2.24e-7, 5.68e-6), 4.226),
    ]
    t_errors = []
    for label, ctrl, ms, expected in cases:
        res = stats.t_test_from_summary(
            stats.GroupSummary(*ctrl), stats.GroupSummary(*ms), equal_variance=True
        )
        t_errors.append((label, res.statistic, expected, abs(res.statistic - expected)))
    f_cases = [
        ("age", (13, 43.85, 9.57), (11, 44.36, 10.56), 0.016, 0.01),
        ("dexterity time", (13, 21.43, 3.95), (11, 18.94, 2.21), 3.43, 0.05),
        ("cognitive score", (13, 26.85, 1.52), (11, 28.18, 1.17), 5.65, 0.10),
    ]
    f_errors = []
    for label, ms, ctrl, expected, tol in f_cases:
        res = stats.one_way_anova_from_summary(
            [stats.GroupSummary(*ms), stats.GroupSummary(*ctrl)]
        )
        f_errors.append((label, res.statistic, expected, tol, abs(res.statistic - expected)))
    elapsed = time.time() - t0
    ok = (
        all(err <= 0.05 for _, _, _, err in t_errors)
        and all(err <= tol for _, _, _, tol, err in f_errors)
        and elapsed < 1.0
    )
    worst_t = max(t_errors, key=lambda e: e[3])
    worst_f = max(f_errors, key=lambda e: e[4])
    _report(
        1,
        "statistics golden values",
        ok,
        f"worst t dev {worst_t[3]:.4f} ({worst_t[0]}), "
        f"worst F dev {worst_f[4]:.4f} ({worst_f[0]}), {elapsed:.2f}s",
    )


def test_criterion_2_mbll_round_trip():
    t0 = time.time()
    table = optics.default_extinction_table()
    rng = np.random.default_rng(2024)
    hbo = rng.uniform(-5e-6, 5e-6, size=1000)
    hbr = rng.uniform(-5e-6, 5e-6, size=1000)
    od = optics.mbll_forward((hbo, hbr), (760.0, 850.0), 0.03, table)
    rec_hbo, rec_hbr = optics.mbll_invert(od, (760.0, 850.0), 0.03, table)
    scale = np.abs(np.concatenate([hbo, hbr])).max()
    err = max(np.abs(rec_hbo - hbo).max(), np.abs(rec_hbr - hbr).max()) / scale
    elapsed = time.time() - t0
    ok = err <= 1e-9 and elapsed < 1.0
    _report(2, "Beer-Lambert round trip", ok, f"max rel err {err:.2e}, {elapsed:.2f}s")


def test_criterion_3_filter_response():
    t0 = time.time()
    fs = 3.9
    spec = BandpassSpec()
    t = np.arange(int(500 * fs)) / fs
    discard = int(80 * fs)

    def steady_amp(freq):
        out = bandpass(np.sin(2 * np.pi * freq * t), spec, fs)
        mid = out[discard:-discard]
        return (mid.max() - mid.min()) / 2.0

    stop_amp = steady_amp(1.1)
    pass_amp = steady_amp(0.2)
    stop_db = -20 * np.log10(stop_amp)
    pass_loss_db = -20 * np.log10(pass_amp)
    _, h = sps.sosfreqz(bandpass_sos(spec, fs), worN=[1.1, 0.2], fs=fs)
    analytic = np.abs(h) ** 2  # the zero-phase pass squares the response
    cross_ok = abs(stop_amp - analytic[0]) < 0.02 and abs(pass_amp - analytic[1]) < 0.02
    elapsed = time.time() - t0
    ok = stop_db >= 20.0 and pass_loss_db <= 1.0 and cross_ok and elapsed < 5.0
    _report(
        3,
        "filter response",
        ok,
        f"1.1 Hz attenuation {stop_db:.1f} dB, 0.2 Hz loss {pass_loss_db:.3f} dB, "
        f"analytic cross-check {'ok' if cross_ok else 'off'}, {elapsed:.1f}s",
    )


def _symmetric_null_model(rng):
    # features 0 and 1 enter only through their sum; feature 7 is ignored
    w = rng.normal(size=6)
    a, b = rng.normal(), rng.normal()

    def score(x):
        x = np.atleast_2d(x)
        u = x[:, 0] + x[:, 1]
        core = a * u + x[:, 2:7] @ w[:5]
        return np.tanh(core) + 0.2 * b * u**2

    return score


def test_criterion_4_shapley_axioms_and_oracle():
    t0 = time.time()
    n = 8
    eff_worst = sym_worst = null_worst = 0.0
    kernel_full_worst = 0.0
    rel_maes = []
    for i in range(50):
        rng = np.random.default_rng(100 + i)
        score = _symmetric_null_model(rng)
        bg = rng.normal(size=(4, n))
        bg[:, 1] = bg[:, 0]
        inst = rng.normal(size=n)
        inst[1] = inst[0]
        exact = explain.exact_shapley(score, bg, inst)
        eff_worst = max(
            eff_worst,
            abs(exact.phi.sum() + exact.base_value - float(score(inst[None, :])[0])),
        )
        sym_worst = max(sym_worst, abs(exact.phi[0] - exact.phi[1]))
        null_worst = max(null_worst, abs(exact.phi[7]))
        full = explain.kernel_shap(score, bg, inst, n_samples=2**n, seed=i)
        kernel_full_worst = max(kernel_full_worst, np.abs(full.phi - exact.phi).max())
        approx = explain.kernel_shap(score, bg, inst, n_samples=4 * n, seed=i)
        denom = np.abs(exact.phi).max()
        if denom > 1e-12:
            rel_maes.append(np.mean(np.abs(approx.phi - exact.phi)) / denom)
    mean_rel_mae = float(np.mean(rel_maes))
    elapsed = time.time() - t0
    ok = (
        eff_worst < 1e-9
        and sym_worst < 1e-9
        and null_worst < 1e-9
        and kernel_full_worst < 1e-6
        and mean_rel_mae < 0.10
        and elapsed < 30.0
    )
    _report(
        4,
        "Shapley axioms and kernel oracle",
        ok,
        f"efficiency {eff_worst:.1e}, symmetry {sym_worst:.1e}, null {null_worst:.1e}, "
        f"full-enum dev {kernel_full_worst:.1e}, 4n-sample rel MAE {mean_rel_mae:.3f}, "
        f"{elapsed:.1f}s",
    )


def _hygiene_check(n_pat, n_ctrl):
    participants = [(f"P{i:02d}", "patient") for i in range(n_pat)] + [
        (f"C{i:02d}", "control") for i in range(n_ctrl)
    ]
    plan = learn.make_fold_plan(participants, n_folds=6, seed=11)
    tested = [pid for test_ids in plan.folds for pid in test_ids]
    assert sorted(tested) == sorted(p for p, _ in participants)
    return plan


def test_criterion_5_cross_validation_hygiene():
    _hygiene_check(12, 12)
    _hygiene_check(13, 11)

    # leakage: perturbing test rows leaves selection and scaling untouched
    eps = make_epoch_set(n_participants=12, trials=3, n_channels=4, window=10, seed=21)
    plan = learn.make_fold_plan(eps.participants, n_folds=3, seed=21)
    spec = learn.ClassifierSpec(kind="knn", seed=21)
    cv1 = learn.cross_validate(eps, "single", spec, plan, select_k=8)
    leaked = False
    for fi, test_ids in enumerate(plan.folds):
        in_test = np.isin(eps.participant_ids, test_ids)[:, None, None]
        hbo, hbr = eps.hemo.transpose(1, 0, 2, 3)
        perturbed = dataclasses.replace(
            eps,
            hemo=np.stack(
                [hbo + np.where(in_test, 1e3, 0.0), hbr * np.where(in_test, -2.0, 1.0)], axis=1
            ),
        )
        cv2 = learn.cross_validate(perturbed, "single", spec, plan, select_k=8)
        if not (
            np.array_equal(cv1.folds[fi].selected, cv2.folds[fi].selected)
            and np.array_equal(cv1.folds[fi].scaler_mean, cv2.folds[fi].scaler_mean)
            and np.array_equal(cv1.folds[fi].scaler_std, cv2.folds[fi].scaler_std)
        ):
            leaked = True
    _report(
        5,
        "cross-validation hygiene",
        not leaked,
        "12+12 and 13+11 partitions clean; selection and scaling immune to test rows",
    )


@pytest.mark.slow
def test_criterion_6_end_to_end_biomarker_recovery():
    t0 = time.time()
    cfg = PipelineConfig()
    accuracies, null_accuracies = [], []
    importance_sums: dict[tuple[str, str], float] = {}
    for seed in SEEDS:
        dataset, _ = generate_dataset(12, 12, effect=EFFECT, seed=seed)
        eps = epochs_from_dataset(preprocess_dataset(dataset, cfg), cfg)
        plan = learn.make_fold_plan(eps.participants, n_folds=6, seed=seed)
        cv = learn.cross_validate(
            eps,
            "single",
            learn.ClassifierSpec(kind="knn", seed=seed),
            plan,
            mode="raw",
            select_k=40,
        )
        accuracies.append(cv.pooled.accuracy)
        importance, _ = explain.attribute_cross_validation(cv, n_samples=256, seed=seed)
        for ch, chrom, value in importance.entries:
            importance_sums[(ch, chrom)] = importance_sums.get((ch, chrom), 0.0) + value

        null_dataset, _ = generate_dataset(12, 12, effect=None, seed=seed)
        null_eps = epochs_from_dataset(preprocess_dataset(null_dataset, cfg), cfg)
        null_cv = learn.cross_validate(
            null_eps,
            "single",
            learn.ClassifierSpec(kind="knn", seed=seed),
            plan,
            mode="raw",
            select_k=40,
        )
        null_accuracies.append(null_cv.pooled.accuracy)

    mean_acc = float(np.mean(accuracies))
    mean_null = float(np.mean(null_accuracies))
    ranked = sorted(importance_sums.items(), key=lambda kv: (-kv[1], kv[0]))
    top4 = [key for key, _ in ranked[:4]]
    targets_on_top = all((ch, "hbr") in top4 for ch in ("S7-D6", "S5-D6"))
    hbr_beats_hbo = all(
        importance_sums[(ch, "hbr")] > importance_sums.get((ch, "hbo"), 0.0)
        for ch in ("S7-D6", "S5-D6")
    )
    elapsed = time.time() - t0
    ok = (
        mean_acc >= 0.70
        and targets_on_top
        and hbr_beats_hbo
        and 0.35 <= mean_null <= 0.65
        and elapsed < 300.0
    )
    _report(
        6,
        "end-to-end biomarker recovery",
        ok,
        f"knn accuracy {mean_acc:.3f} (seeds {[round(a, 2) for a in accuracies]}), "
        f"null {mean_null:.3f}, top4 {top4}, hbr>hbo {hbr_beats_hbo}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_7_time_to_peak_recovery():
    t0 = time.time()
    # 0.01 Hz low cut keeps the 0.025 Hz block fundamental in band; the
    # default 0.05 Hz cut removes it and with it any stable timing estimate
    cfg = PipelineConfig(low_cut_hz=0.01)
    roi = EFFECT.target_channels
    diffs = []
    for seed in (1, 2):
        dataset, _ = generate_dataset(12, 12, effect=EFFECT, seed=seed)
        eps = epochs_from_dataset(preprocess_dataset(dataset, cfg), cfg)
        per_group: dict[str, list[float]] = {"patient": [], "control": []}
        curves = em.roi_average(eps.hemo[:, 1], eps.channel_ids, roi)
        present, means = em.participant_means(eps, curves, None)
        latencies = em.time_to_peak(means, eps.sample_rate_hz, "hbr")
        for row, latency in zip(present.tolist(), latencies.tolist()):
            per_group[eps.participants[row][1]].append(latency)
        diffs.append(np.mean(per_group["patient"]) - np.mean(per_group["control"]))
    mean_diff = float(np.mean(diffs))
    elapsed = time.time() - t0
    ok = 1.0 <= mean_diff <= 2.0 and elapsed < 60.0
    _report(
        7,
        "time-to-peak delay recovery",
        ok,
        f"group delay {mean_diff:.2f}s (per seed {[round(d, 2) for d in diffs]}), "
        f"target 1.5 +/- 0.5, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_8_run_determinism(tmp_path):
    args = [
        "--patients", "6", "--controls", "6", "--folds", "3",
        "--trials", "3", "--samples", "64", "--seed", "17",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--out", str(out_a)] + args) == EXIT_OK
    assert main(["run", "--out", str(out_b)] + args) == EXIT_OK
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in REPORT_FILES
    )
    _report(
        8,
        "byte-identical runs",
        identical,
        f"{len(REPORT_FILES)} report files compared",
    )
