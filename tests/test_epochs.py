import dataclasses

import numpy as np
import pytest

from nirscope.epochs import (
    block_average, join, participant_means, peak_index, roi_average, segment, time_to_peak,
)
from nirscope.model import Annotation, EpochSet, HemoSeries
from nirscope.synth import canonical_hrf, default_montage

from conftest import make_epoch_set

FS = 3.9


def _hemo(n=1700, seed=0, annotations=(), channels=("S1-D1", "S2-D2")):
    rng = np.random.default_rng(seed)
    return HemoSeries(
        participant_id="P01",
        group="patient",
        sample_rate_hz=FS,
        channel_ids=tuple(channels),
        hemo=rng.normal(size=(2, len(channels), n)),
        annotations=tuple(annotations),
    )


def _block_annotations(n_single=5, n_dual=5, task_s=20.0, rest_s=20.0, lead=20.0):
    labels = ["single"] * n_single + ["dual"] * n_dual
    return [
        Annotation(lead + i * (task_s + rest_s), task_s, lbl)
        for i, lbl in enumerate(labels)
    ]


def test_five_plus_five_annotations_give_ten_epochs():
    hemo = _hemo(annotations=_block_annotations())
    eps = segment([hemo])
    assert eps.hemo.shape == (10, 2, 2, 78)
    assert eps.tasks.count("single") == 5
    assert eps.tasks.count("dual") == 5


def test_window_samples_is_floor_of_window_times_fs():
    hemo = _hemo(annotations=_block_annotations())
    eps = segment([hemo], window_s=20.0)
    assert eps.window_samples == 78  # floor(20 * 3.9)


def test_rest_annotations_are_ignored():
    anns = _block_annotations(2, 2) + [Annotation(5.0, 10.0, "rest")]
    eps = segment([_hemo(annotations=anns)])
    assert eps.hemo.shape[0] == 4
    assert "rest" not in eps.tasks


def test_window_larger_than_annotation_duration_rejected():
    hemo = _hemo(annotations=[Annotation(20.0, 10.0, "single")])
    with pytest.raises(ValueError, match="exceeds annotation duration"):
        segment([hemo], window_s=20.0)


def test_no_task_annotations_rejected():
    with pytest.raises(ValueError, match="no task annotations"):
        segment([_hemo(annotations=[Annotation(5.0, 10.0, "rest")])])


def test_task_cuts_only_that_tasks_trials_as_every_task_cuts_them():
    first = _hemo(annotations=_block_annotations(2, 3))
    second = dataclasses.replace(
        _hemo(seed=1, annotations=_block_annotations(3, 1)), participant_id="C01", group="control"
    )
    every = segment([first, second])
    dual = segment([first, second], task="dual")
    rows = every.rows(task="dual")
    assert dual.tasks == ("dual",) * 4
    assert dual.participant_ids.tolist() == ["P01"] * 3 + ["C01"]
    assert dual.hemo.tobytes() == every.hemo[rows].tobytes()


def test_task_checks_only_the_annotations_it_cuts():
    short_dual = [Annotation(20.0, 20.0, "single"), Annotation(60.0, 10.0, "dual")]
    assert segment([_hemo(annotations=short_dual)], task="single").tasks == ("single",)
    with pytest.raises(ValueError, match="exceeds annotation duration"):
        segment([_hemo(annotations=short_dual)])


def test_task_with_no_trials_rejected():
    with pytest.raises(ValueError, match="no epochs match task 'nosuch'"):
        segment([_hemo(annotations=_block_annotations())], task="nosuch")


def test_joined_batches_equal_one_cut_of_every_series():
    # The second series has no single trial, so a batch of it alone cuts none.
    series = [
        dataclasses.replace(_hemo(seed=i, annotations=_block_annotations(*counts)),
                            participant_id=f"P0{i}")
        for i, counts in enumerate([(2, 3), (0, 2), (3, 1)])
    ]
    whole = segment(series, task="single")
    for batches in ([series], [series[:1], series[1:]], [[s] for s in series]):
        parts = [segment(b, task="single", empty_ok=True) for b in batches]
        joined = join(parts, "single")
        assert joined.hemo.tobytes() == whole.hemo.tobytes()
        assert joined.participants == whole.participants
        assert joined.participant_index.tolist() == whole.participant_index.tolist()
        assert joined.tasks == whole.tasks
    with pytest.raises(ValueError, match="no epochs match task 'single'"):
        join([segment(series[1:2], task="single", empty_ok=True)], "single")
    other_rate = dataclasses.replace(series[2], sample_rate_hz=5.0)
    with pytest.raises(ValueError, match="mismatched sample rates"):
        join([segment(series[:1]), segment([other_rate])])


def test_baseline_subtracts_preonset_mean():
    n = 400
    # constant levels; baseline correction should zero them
    levels = np.array([7.0, -3.0])[:, None, None] * np.ones((2, 1, n))
    hemo = HemoSeries(
        participant_id="P01",
        group="control",
        sample_rate_hz=FS,
        channel_ids=("S1-D1",),
        hemo=levels,
        annotations=(Annotation(30.0, 20.0, "single"),),
    )
    eps = segment([hemo], window_s=20.0, baseline_s=2.0)
    assert np.abs(eps.hemo[0]).max() < 1e-12


def test_segmentation_preserves_samples_exactly():
    # with baseline correction disabled, windows are literal slices
    hemo = _hemo(annotations=_block_annotations(3, 0))
    eps = segment([hemo], baseline_s=0.0)
    for ann, trial in zip(sorted(hemo.annotations, key=lambda a: a.onset_s), eps.hemo):
        start = int(round(ann.onset_s * FS))
        assert np.array_equal(trial, hemo.hemo[..., start : start + eps.window_samples])


# --- block averaging ---


def test_identical_trials_average_to_trial_with_zero_std():
    window = np.tile(np.arange(10.0), (2, 1))
    eps = EpochSet(
        sample_rate_hz=FS,
        channel_ids=("A", "B"),
        hemo=np.stack([[window, -window]] * 5),
        participants=(("P01", "patient"),),
        participant_index=[0] * 5,
        tasks=("single",) * 5,
    )
    avg = block_average(eps, "single")
    assert np.array_equal(avg.mean, [window, -window])
    assert np.abs(avg.std).max() == 0.0
    assert avg.n_trials == 5


def test_opposite_trials_average_to_zero_with_abs_std():
    x = np.arange(8.0)[None, :]
    eps = EpochSet(
        sample_rate_hz=FS,
        channel_ids=("A",),
        hemo=np.stack([[x, x], [-x, -x]]),
        participants=(("P01", "patient"),),
        participant_index=[0, 0],
        tasks=("single", "single"),
    )
    avg = block_average(eps, "single")
    assert np.abs(avg.mean).max() == 0.0
    assert np.allclose(avg.std, np.abs(x))


def test_block_average_matches_brute_force():
    eps = make_epoch_set(n_participants=2, trials=5, seed=9)
    avg = block_average(eps, "single")
    for k in range(2):
        stack = np.stack([eps.hemo[i, k] for i in range(len(eps.tasks))])
        assert np.allclose(avg.mean[k], stack.mean(axis=0), atol=1e-12)
        assert np.allclose(avg.std[k], stack.std(axis=0), atol=1e-12)


def test_block_average_group_filter():
    eps = make_epoch_set(n_participants=4, trials=2, seed=3)
    pat = block_average(eps, "single", group="patient")
    assert pat.n_trials == 4
    with pytest.raises(ValueError, match="no epochs match"):
        block_average(eps, "unknown-task")


# --- time to peak ---


def test_hrf_curve_peak_location():
    t = np.arange(0, 30, 1 / FS)
    curve = canonical_hrf(t)
    assert time_to_peak(curve, FS, "hbo") == pytest.approx(6.0, abs=1 / FS + 1e-9)


def test_constant_curve_returns_zero():
    assert time_to_peak(np.full(50, 2.0), FS, "hbo") == 0.0
    assert time_to_peak(np.full(50, 2.0), FS, "hbr") == 0.0


def test_hbr_uses_largest_absolute_deviation():
    fs = 1.0
    curve = np.zeros(20)
    curve[4] = -1.0
    curve[12] = 0.5
    assert time_to_peak(curve, fs, "hbr") == 4.0


def test_time_to_peak_scale_invariant():
    rng = np.random.default_rng(0)
    curve = rng.normal(size=60)
    for chrom in ("hbo", "hbr"):
        base = time_to_peak(curve, FS, chrom)
        assert time_to_peak(5.0 * curve, FS, chrom) == base


def test_time_to_peak_validation():
    with pytest.raises(ValueError):
        time_to_peak([], FS, "hbo")
    with pytest.raises(ValueError):
        time_to_peak([1.0], FS, "oxy")


# --- ROI averaging ---


def test_single_channel_roi_is_identity():
    values = np.arange(20.0).reshape(2, 10)
    out = roi_average(values, ("A", "B"), ("B",))
    assert np.array_equal(out, values[1])


def test_opposite_channels_cancel():
    x = np.arange(10.0)
    out = roi_average(np.vstack([x, -x]), ("A", "B"), ("A", "B"))
    assert np.abs(out).max() == 0.0


def test_left_hemisphere_roi_matches_brute_force():
    montage = default_montage()
    rng = np.random.default_rng(4)
    ids = tuple(ch.id for ch in montage.long_channels)
    values = rng.normal(size=(len(ids), 30))
    roi = montage.roi_map["left_motor"]
    out = roi_average(values, ids, roi)
    rows = [ids.index(c) for c in roi]
    assert np.allclose(out, values[rows].mean(axis=0), atol=1e-15)
    assert all(c.startswith(("S1-", "S2-", "S3-", "S4-")) for c in roi)


def test_unknown_roi_channel_rejected():
    with pytest.raises(KeyError, match="S9-D9"):
        roi_average(np.zeros((1, 5)), ("A",), ("S9-D9",))


# --- cross-op properties ---


def test_block_average_commutes_with_roi_average():
    eps = make_epoch_set(n_participants=3, trials=4, n_channels=4, seed=7)
    roi = eps.channel_ids[:3]
    avg = block_average(eps, "single")
    roi_of_avg = roi_average(avg.mean, eps.channel_ids, roi)
    per_trial = np.stack(
        [roi_average(trial, eps.channel_ids, roi) for trial in eps.hemo]
    )
    assert np.allclose(roi_of_avg, per_trial.mean(axis=0), atol=1e-12)


# --- whole-stack forms ---


def test_segment_stacks_every_series_in_order():
    first = _hemo(annotations=_block_annotations(2, 1))
    second = dataclasses.replace(
        _hemo(seed=1, annotations=_block_annotations(1, 2)), participant_id="C01", group="control"
    )
    eps = segment([first, second])
    assert eps.participants == (("P01", "patient"), ("C01", "control"))
    assert eps.participant_ids.tolist() == ["P01"] * 3 + ["C01"] * 3
    assert eps.participant_index.tolist() == [0] * 3 + [1] * 3
    assert eps.tasks == ("single", "single", "dual", "single", "dual", "dual")
    alone = segment([second])
    assert np.array_equal(eps.hemo[3:], alone.hemo)
    with pytest.raises(ValueError, match="mismatched"):
        segment([first, _hemo(annotations=_block_annotations(1, 0), channels=("S1-D1",))])


def test_participant_means_equal_each_participants_masked_mean():
    # Interleaved trials of two tasks, 1 to 11 trials per participant, a
    # participant with no trial of the task, and -0.0 entries, which a sum
    # from zero turns to +0.0.
    rng = np.random.default_rng(5)
    owner = rng.permutation(np.repeat(np.arange(5), [11, 1, 6, 0, 9]))
    owner = np.concatenate([owner, [3, 3]])  # participant 3 has only dual trials
    n = owner.size
    tasks = tuple(rng.choice(["single", "dual"], size=n - 2).tolist()) + ("dual", "dual")
    eps = EpochSet(
        sample_rate_hz=FS,
        channel_ids=("A",),
        hemo=np.zeros((n, 2, 1, 4)),
        participants=tuple((f"P{i}", "patient") for i in range(4)) + (("C0", "control"),),
        participant_index=owner,
        tasks=tasks,
    )
    for shape in ((2, 30), (7,)):
        values = rng.normal(size=(n, *shape)) * 10.0 ** rng.integers(-6, 6, size=(n, *shape))
        values[rng.random(values.shape) < 0.1] = -0.0
        for task in ("single", "dual", None):
            present, means = participant_means(eps, values, task)
            in_task = np.isin(tasks, [task] if task else ["single", "dual"])
            expected = [p for p in range(5) if (in_task & (owner == p)).any()]
            assert present.tolist() == expected
            for p, mean in zip(present, means):
                assert mean.tobytes() == values[in_task & (owner == p)].mean(axis=0).tobytes()
    assert 3 not in participant_means(eps, values, "single")[0]
    with pytest.raises(ValueError, match="trials"):
        participant_means(eps, values[1:], "single")


def test_stack_reductions_equal_the_per_trial_ones():
    eps = make_epoch_set(n_participants=3, trials=4, n_channels=4, seed=11)
    roi = eps.channel_ids[1:]
    hbr = eps.hemo[:, 1]
    per_trial = [roi_average(trial, eps.channel_ids, roi) for trial in hbr]
    stacked = roi_average(hbr, eps.channel_ids, roi)
    assert stacked.tobytes() == np.stack(per_trial).tobytes()
    hbo_peaks, hbr_peaks = peak_index(stacked, "hbo"), peak_index(stacked, "hbr")
    assert time_to_peak(stacked, FS, "hbr").tolist() == [
        time_to_peak(curve, FS, "hbr") for curve in stacked
    ]
    for curve, hbo_peak, hbr_peak in zip(stacked, hbo_peaks, hbr_peaks):
        assert hbo_peak == np.argmax(curve)
        assert hbr_peak == np.argmax(np.abs(curve - curve[0]))
