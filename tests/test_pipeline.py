import dataclasses
import hashlib
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import make_smoothing_spline

from conftest import make_epoch_set
from nirscope import epochs, learn, motion, optics, pipeline, synth
from nirscope.explain import ChannelImportance
from nirscope.features import build_features
from nirscope.model import Dataset, Recording, load_dataset, save_dataset
from nirscope.signal import match_short_channel
from nirscope.pipeline import PipelineConfig, preprocess_dataset, preprocess_recording

# sha256 over hbo.tobytes() + hbr.tobytes(), that is the (2, channels,
# samples) hemo.tobytes(), of every recording, in order.
# Recorded from the per-channel implementation, before preprocessing worked on
# (channels x samples) arrays, with scipy's smoothing spline; with that spline
# patched back in, the array code must reproduce it bit for bit.
GOLDEN_HEMO_SHA256 = "415fff1a4564b3ebf4d2c024753e7adb4311cdf879ddc93ff1e3052faac573a1"
# The same digest with the shipped numpy (Reinsch) spline.
GOLDEN_HEMO_NUMPY_SPLINE_SHA256 = (
    "205826078d04a6059ade9d36a2ab3ab557b8d0bc090b6568e5f4693a61f1b1e4"
)


def _scipy_spline(y, lam):
    t = np.arange(y.shape[0], dtype=float)
    return make_smoothing_spline(t, y, lam=lam)(t)


def _golden_hemo():
    dataset, _ = synth.generate_dataset(n_patients=2, n_controls=2, seed=1)
    return preprocess_dataset(dataset, PipelineConfig(seed=1))


def _hemo_digest(hemo) -> str:
    digest = hashlib.sha256()
    for rec in hemo.hemo:
        digest.update(rec.hemo.tobytes())
    return digest.hexdigest()


def test_preprocessed_hemo_matches_golden_digest(monkeypatch):
    # Every step but the spline fit is bit-identical to the recorded code.
    monkeypatch.setattr(motion, "_smoothing_spline", _scipy_spline)
    assert _hemo_digest(_golden_hemo()) == GOLDEN_HEMO_SHA256


def test_preprocessed_hemo_matches_numpy_spline_digest():
    assert _hemo_digest(_golden_hemo()) == GOLDEN_HEMO_NUMPY_SPLINE_SHA256


def test_numpy_spline_hemo_agrees_with_scipy_spline(monkeypatch):
    ours = _golden_hemo()
    monkeypatch.setattr(motion, "_smoothing_spline", _scipy_spline)
    ref = _golden_hemo()
    for a, b in zip(ours.hemo, ref.hemo):
        for x, y in zip(a.hemo, b.hemo):
            scale = np.abs(y).max(axis=1, keepdims=True)
            assert np.all(np.abs(x - y) <= 1e-12 * scale)


def _varied_dataset():
    """Six recordings at 3.9 Hz of three lengths, no annotations."""
    base, _ = synth.generate_dataset(n_patients=3, n_controls=3, seed=2)
    recordings = tuple(
        Recording(
            participant_id=rec.participant_id,
            group=rec.group,
            sample_rate_hz=3.9,
            wavelengths_nm=rec.wavelengths_nm,
            channel_ids=rec.channel_ids,
            intensity=rec.intensity[..., :n],
        )
        for rec, n in zip(base.recordings, (1638, 1200, 1638, 1638, 1200, 1000))
    )
    return Dataset(montage=base.montage, recordings=recordings)


# The default run's data: 12 + 12 participants, seed 1, with the effect.
EFFECT_CONFIG = PipelineConfig(seed=1, effect_channels=("S7-D6", "S5-D6"),
                               amplitude_ratio=0.5, peak_delay_s=1.5)
RECORDING_BYTES = 2 * 20 * 1638 * 8  # one default recording's hemoglobin


def _batched_run(config):
    """The batch sizes of the default run's dataset, the sha256 of its
    hemoglobin and the metrics text of training on it."""
    dataset, _ = pipeline.synthesize(config)
    sizes = [len(batch) for batch in
             pipeline._preprocess(dataset.recordings, dataset.montage, config)]
    digest = _hemo_digest(preprocess_dataset(dataset, config))
    return sizes, digest, pipeline.metrics_text(config, pipeline.train(config))


@pytest.mark.parametrize("recordings", [1, 24], ids=["one-recording", "whole-cohort"])
def test_batch_boundaries_change_no_hemoglobin_and_no_metrics(monkeypatch, recordings):
    default = _batched_run(EFFECT_CONFIG)
    monkeypatch.setattr(pipeline, "_BATCH_BYTES", recordings * RECORDING_BYTES)
    batched = _batched_run(EFFECT_CONFIG)
    assert default[0] == [13, 11]
    assert batched[0] == [recordings] * (24 // recordings)
    assert batched[1:] == default[1:]


def test_dataset_preprocessing_is_per_recording_preprocessing(monkeypatch):
    dataset = _varied_dataset()
    recordings = dataset.recordings
    config = PipelineConfig(seed=2)
    bandpass_calls, detect_calls, spline_calls, wavelet_calls = [], [], [], []
    flagged = []  # the flagged rows of each recording
    bandpass = pipeline.bandpass
    spline_correct = pipeline.spline_correct
    detect = pipeline.detect_artifact_stack
    wavelet_correct = pipeline.wavelet_correct

    def counted_bandpass(series, spec, fs, out=None):
        bandpass_calls.append((fs, list(series)))
        # The band-pass writes into the pipeline's arrays.
        assert out is not None and len(out) == len(series)
        assert all(o is a for o, a in zip(out, series))
        return bandpass(series, spec, fs, out=out)

    def counted_detect(rows, fs, amp_threshold):
        detect_calls.append((fs, rows.shape))
        segments = detect(rows, fs, amp_threshold)
        flagged.append(np.unique(segments.row))
        return segments

    def counted_spline(rows, segments, fs):
        spline_calls.append((len(detect_calls), rows))
        return spline_correct(rows, segments, fs)

    def counted_wavelet(rows, **kwargs):
        # Exactly the flagged rows of the recording the spline just corrected.
        recording, spline_rows = spline_calls[-1]
        assert recording == len(detect_calls)
        assert np.array_equal(rows, spline_rows[flagged[-1]])
        wavelet_calls.append((recording, len(rows)))
        return wavelet_correct(rows, **kwargs)

    monkeypatch.setattr(pipeline, "bandpass", counted_bandpass)
    monkeypatch.setattr(pipeline, "spline_correct", counted_spline)
    monkeypatch.setattr(pipeline, "detect_artifact_stack", counted_detect)
    monkeypatch.setattr(pipeline, "wavelet_correct", counted_wavelet)
    hemo = preprocess_dataset(dataset, config)
    monkeypatch.undo()
    # One detection call per recording, over both chromophores of its 20
    # long channels.
    assert detect_calls == [(rec.sample_rate_hz, (40, rec.n_samples)) for rec in recordings]
    # One spline call and one wavelet call per recording with artifacts.
    with_artifacts = [i + 1 for i, rows in enumerate(flagged) if rows.size]
    assert [recording for recording, _ in spline_calls] == with_artifacts
    assert wavelet_calls == [(i + 1, len(rows)) for i, rows in enumerate(flagged) if rows.size]
    assert sum(map(len, flagged)) > 2 * len(recordings)
    # The six recordings are one batch: one band-pass call, over one
    # (rows, n) view of the batch's block per run of consecutive recordings
    # of one length, in order. Each hemo series holds its run's memory.
    [(fs, views)] = bandpass_calls
    assert fs == 3.9
    assert [v.shape for v in views] == [(40, 1638), (40, 1200), (80, 1638), (40, 1200),
                                        (40, 1000)]
    for series, run in zip(hemo.hemo, [0, 1, 2, 2, 3, 4]):
        assert np.shares_memory(series.hemo, views[run])
    assert b"".join(v.tobytes() for v in views) == b"".join(h.hemo.tobytes() for h in hemo.hemo)

    for rec, series in zip(recordings, hemo.hemo):
        alone = preprocess_recording(rec, dataset.montage, config)
        assert series.participant_id == rec.participant_id
        assert series.sample_rate_hz == rec.sample_rate_hz
        assert series.provenance == alone.provenance
        assert series.hemo.tobytes() == alone.hemo.tobytes()


def test_preprocess_dataset_leaves_the_callers_dataset_as_it_was():
    dataset, _ = synth.generate_dataset(n_patients=2, n_controls=2, seed=3)
    recordings = dataset.recordings
    before = [rec.intensity.copy() for rec in recordings]
    hemo = preprocess_dataset(dataset, PipelineConfig(seed=3))
    assert len(hemo.hemo) == len(recordings) == 4
    assert dataset.recordings is recordings
    for rec, intensity in zip(dataset.recordings, before):
        assert rec.intensity.tobytes() == intensity.tobytes()


def test_run_releases_each_raw_recording_once_its_hemoglobin_is_formed(monkeypatch, tmp_path):
    # Recording i is released before recording i + 1 is generated.
    watched = []
    generate = synth.generate_recordings

    def generate_and_watch(*args):
        recordings = generate(*args)
        while True:
            assert all(ref() is None for ref in watched)
            recording = next(recordings, None)
            if recording is None:
                return
            watched.append(weakref.ref(recording.intensity))
            yield recording
            del recording

    monkeypatch.setattr(synth, "generate_recordings", generate_and_watch)
    config = PipelineConfig(
        out_dir=str(tmp_path), patients=3, controls=3, folds=3, trials_per_task=3,
        shap_samples=32, seed=2,
    )
    result = pipeline.run_pipeline(config)
    assert len(watched) == 6
    assert sorted(result) == ["cv", "files", "importance"]


def test_each_recording_is_motion_corrected_before_the_next_is_generated(monkeypatch):
    events = []
    generate = synth.generate_recordings
    detect = pipeline.detect_artifact_stack
    wavelet_correct = pipeline.wavelet_correct

    def generate_and_log(*args):
        for recording in generate(*args):
            events.append("g")
            yield recording

    def detect_and_log(*args, **kwargs):
        events.append("d")
        return detect(*args, **kwargs)

    def wavelet_and_log(*args, **kwargs):
        events.append("w")
        return wavelet_correct(*args, **kwargs)

    monkeypatch.setattr(synth, "generate_recordings", generate_and_log)
    monkeypatch.setattr(pipeline, "detect_artifact_stack", detect_and_log)
    monkeypatch.setattr(pipeline, "wavelet_correct", wavelet_and_log)
    pipeline.train(PipelineConfig(patients=3, controls=3, folds=3, trials_per_task=3, seed=2))
    # Generated, detected, then wavelet-corrected if it has artifacts: all
    # of one recording before the next is generated.
    order = "".join(events)
    assert re.fullmatch("(gdw?)+", order), order
    assert order.count("g") == 6 and "w" in order


@pytest.mark.parametrize("container", [None, "raw", "hemo"])
def test_no_hemoglobin_is_held_once_the_epochs_are_cut(monkeypatch, tmp_path, container):
    watched = []
    segment = epochs.segment
    cross_validate = learn.cross_validate

    def segment_and_watch(series, **kwargs):
        # The batch cut before this one is released, block and all.
        assert all(ref() is None for ref in watched)
        arrays = [s.hemo for s in series]
        watched.extend(weakref.ref(x) for a in arrays for x in (a, a.base) if x is not None)
        return segment(series, **kwargs)

    def cross_validate_released(*args, **kwargs):
        assert watched and all(ref() is None for ref in watched)
        watched.append("trained")
        return cross_validate(*args, **kwargs)

    settings = dict(patients=3, controls=3, trials_per_task=3, folds=3, seed=2)
    dataset_path = None
    if container is not None:
        raw, _ = synth.generate_dataset(3, 3, trials_per_task=3, seed=2)
        data = raw if container == "raw" else preprocess_dataset(raw, PipelineConfig(seed=2))
        dataset_path = str(tmp_path / container)
        save_dataset(data, dataset_path)
    monkeypatch.setattr(epochs, "segment", segment_and_watch)
    monkeypatch.setattr(learn, "cross_validate", cross_validate_released)
    monkeypatch.setattr(pipeline, "_BATCH_BYTES", 1)  # one recording per batch
    pipeline.train(PipelineConfig(out_dir=str(tmp_path / "out"), dataset_path=dataset_path,
                                  **settings))
    assert watched[-1] == "trained"


def _hemoglobin_per_channel(recording, montage, config):
    """OD, short-channel regression and Beer-Lambert inversion one channel
    at a time, each as a 1-D computation (the pipeline's earlier form)."""
    table = optics.default_extinction_table()
    wl = recording.wavelengths_nm
    index = {c: i for i, c in enumerate(recording.channel_ids)}
    longs = montage.long_channels
    od = [
        np.vstack([-np.log(row / float(np.mean(row))) for row in intensity])
        for intensity in recording.intensity
    ]
    for w in range(2):
        for ch in longs:
            short = od[w][index[match_short_channel(montage, ch.id)]]
            if np.ptp(short) == 0.0:
                continue
            x = od[w][index[ch.id]]
            sd = short - short.mean()
            beta = float((x - x.mean()) @ sd) / float(sd @ sd)
            od[w][index[ch.id]] = x - beta * sd
    out = np.empty((2, len(longs), recording.n_samples))
    for li, ch in enumerate(longs):
        m = optics._solve_matrix(wl[0], wl[1], ch.distance_m, table)
        i = index[ch.id]
        out[:, li] = np.linalg.inv(m) @ np.vstack([od[0][i], od[1][i]])
    return out


def test_hemoglobin_matches_per_channel_steps(tmp_path):
    # In-memory intensities of an even and an odd length, and the loader's.
    dataset = _varied_dataset()
    odd = Recording(
        participant_id="P99",
        group="patient",
        sample_rate_hz=3.9,
        wavelengths_nm=dataset.recordings[0].wavelengths_nm,
        channel_ids=dataset.recordings[0].channel_ids,
        intensity=dataset.recordings[0].intensity[..., :1199],
    )
    # Short channels constant at one wavelength (S1-SD1 at 760 nm) and at
    # both (S5-SD5): their long channels keep the other wavelength's rows.
    flat = dataset.recordings[0].intensity.copy()
    ids = list(dataset.recordings[0].channel_ids)
    flat[0, ids.index("S1-SD1")] = 1.0
    flat[:, ids.index("S5-SD5")] = 1.0
    flat_short = Recording(
        participant_id="P98",
        group="patient",
        sample_rate_hz=3.9,
        wavelengths_nm=dataset.recordings[0].wavelengths_nm,
        channel_ids=dataset.recordings[0].channel_ids,
        intensity=flat,
    )
    save_dataset(
        Dataset(montage=dataset.montage, recordings=dataset.recordings[:2]), tmp_path / "raw"
    )
    loaded = load_dataset(tmp_path / "raw")
    # The loader reads each file column-major; the record holds the pair in C order.
    assert loaded.recordings[0].intensity.flags.c_contiguous
    config = PipelineConfig()
    table = optics.default_extinction_table()
    for rec in (*dataset.recordings[:2], odd, flat_short, *loaded.recordings[:2]):
        got = np.empty((2, len(dataset.montage.long_channels), rec.n_samples))
        pipeline._hemoglobin(rec, dataset.montage, config, table, got)
        assert got.tobytes() == _hemoglobin_per_channel(rec, dataset.montage, config).tobytes()


def test_readme_library_recipe_equals_the_run(tmp_path, capsys):
    # README's "Library use" recipe builds the fold plan, the classifier and
    # the attribution of `nirscope run` at seed 1 with the effect: the same
    # metrics and the same ranking.
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    library_use = readme[readme.index("## Library use"):]
    recipe = re.search(r"```python\n(.*?)```", library_use, re.DOTALL).group(1)
    scope = {}
    exec(recipe, scope)
    capsys.readouterr()
    config = dataclasses.replace(EFFECT_CONFIG, out_dir=str(tmp_path))
    result = pipeline.run_pipeline(config)
    assert pipeline.metrics_text(config, scope["cv"]) == pipeline.metrics_text(config, result["cv"])
    assert scope["ranking"].entries == result["importance"].entries
    assert scope["ranking"].entries[0][:2] == ("S5-D6", "hbr")


def test_container_preprocessing_matches_in_memory(tmp_path):
    dataset, _ = synth.generate_dataset(n_patients=2, n_controls=2, seed=1)
    save_dataset(dataset, tmp_path / "raw")
    config = PipelineConfig(seed=1)
    from_disk = preprocess_dataset(load_dataset(tmp_path / "raw"), config)
    in_memory = preprocess_dataset(dataset, config)
    assert _hemo_digest(from_disk) == _hemo_digest(in_memory)
    for a, b in zip(from_disk.hemo, in_memory.hemo):
        assert a.provenance == b.provenance


def _tested_pairs(text):
    return [line.split(" (pool=")[0] for line in text.splitlines() if " (pool=" in line]


def test_stats_report_tests_only_nonzero_importance(small_montage):
    epoch_set = make_epoch_set(n_participants=6, trials=2, n_channels=2)
    tied = ChannelImportance(
        entries=(
            ("S2-D2", "hbr", 0.4),
            ("S1-D1", "hbo", 0.0),
            ("S1-D1", "hbr", 0.0),
            ("S2-D2", "hbo", 0.0),
        )
    )
    text = pipeline._stats_report(epoch_set, tied, PipelineConfig(), small_montage)
    assert _tested_pairs(text) == ["S2-D2 hbr"]
    assert (
        "Only 1 channel/chromophore pairs have nonzero importance (top_channels = 4); "
        "only those are tested." in text
    )

    none = ChannelImportance(entries=tuple((c, h, 0.0) for c, h, _ in tied.entries))
    text = pipeline._stats_report(epoch_set, none, PipelineConfig(), small_montage)
    assert _tested_pairs(text) == []
    assert "Only 0 channel/chromophore pairs" in text

    ranked = ChannelImportance(
        entries=(("S2-D2", "hbr", 0.4), ("S1-D1", "hbo", 0.3), ("S1-D1", "hbr", 0.0))
    )
    text = pipeline._stats_report(epoch_set, ranked, PipelineConfig(top_channels=2), small_montage)
    assert _tested_pairs(text) == ["S2-D2 hbr", "S1-D1 hbo"]
    assert "nonzero importance" not in text


def test_epochs_from_dataset_holds_each_trial_once():
    hemo = _golden_hemo()
    config = PipelineConfig(seed=1)
    tracemalloc.start()
    try:
        epochs = pipeline.epochs_from_dataset(hemo, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Trials are written into the result's arrays; merging per-participant
    # arrays would hold every trial twice.
    assert peak < 1.5 * epochs.hemo.nbytes
    assert epochs.hemo.flags.c_contiguous and not epochs.hemo.flags.writeable


def test_summary_features_of_a_loaded_container_equal_in_memory_ones(tmp_path):
    # The loader reads each file column-major; the record holds the pair in C order.
    hemo = _golden_hemo()
    save_dataset(hemo, tmp_path / "hemo")
    loaded = load_dataset(tmp_path / "hemo")
    assert loaded.hemo[0].hemo.flags.c_contiguous
    config = PipelineConfig(seed=1)
    in_memory, from_disk = (
        build_features(pipeline.epochs_from_dataset(d, config), "single", "summary")
        for d in (hemo, loaded)
    )
    assert from_disk.x.tobytes() == in_memory.x.tobytes()
    assert from_disk.participant_ids == in_memory.participant_ids


def test_epochs_of_a_loaded_container_equal_in_memory_ones_for_any_baseline(tmp_path):
    # A baseline mean sums its samples in one order for a loaded series and
    # an in-memory one, also past the 8 samples where numpy's order along a
    # strided axis would differ (3 s at 3.9 Hz is 11 samples).
    raw, _ = synth.generate_dataset(3, 3, trials_per_task=2, seed=1)
    hemo = preprocess_dataset(raw, PipelineConfig(seed=1))
    save_dataset(hemo, tmp_path / "hemo")
    loaded = load_dataset(tmp_path / "hemo")
    for baseline_s in (2.0, 3.0, 5.0, 10.0):
        in_memory, from_disk = (
            epochs.segment(d.hemo, baseline_s=baseline_s) for d in (hemo, loaded)
        )
        assert from_disk.hemo.tobytes() == in_memory.hemo.tobytes(), baseline_s


@pytest.mark.parametrize(
    "settings, fields",
    [
        ({"patients": 0}, ("patients",)),
        ({"controls": 0}, ("controls",)),
        ({"trials_per_task": 0}, ("trials_per_task",)),
        ({"shap_samples": 0}, ("shap_samples",)),
        ({"top_channels": 0}, ("top_channels",)),
        ({"select_k": 0}, ("select_k",)),
        ({"folds": 1}, ("folds",)),
        ({"seed": -1}, ("seed",)),
        ({"window_s": 0.0}, ("window_s",)),
        ({"window_s": float("nan")}, ("window_s",)),
        ({"baseline_s": -0.5}, ("baseline_s",)),
        ({"motion_amp_sigma": 0.0}, ("motion_amp_sigma",)),
        ({"motion_iqr": -1.0}, ("motion_iqr",)),
        ({"task": ""}, ("task",)),
        ({"model": "lda"}, ("model",)),
        ({"feature_mode": "all"}, ("feature_mode",)),
        ({"pool": "participant"}, ("pool",)),
        ({"effect_chromophore": "hbt"}, ("effect_chromophore",)),
        ({"folds": True}, ("folds",)),
        ({"select_k": 2.0}, ("select_k",)),
        ({"effect_channels": ("S1-D1", 2)}, ("effect_channels",)),
        ({"low_cut_hz": 1.0}, ("low_cut_hz", "high_cut_hz", "filter_order")),
        ({"filter_order": 3}, ("low_cut_hz", "high_cut_hz", "filter_order")),
        (
            {"effect_channels": ("S7-D6",), "amplitude_ratio": 0.0},
            ("effect_channels", "amplitude_ratio", "peak_delay_s"),
        ),
        # NaN nowhere, and inf only where it switches a motion trigger off.
        ({"motion_iqr": float("nan")}, ("motion_iqr",)),
        ({"motion_amp_sigma": float("-inf")}, ("motion_amp_sigma",)),
        ({"high_cut_hz": float("inf")}, ("high_cut_hz",)),
        ({"amplitude_ratio": float("nan")}, ("amplitude_ratio",)),
    ],
)
def test_config_refuses_values_no_run_accepts(settings, fields):
    with pytest.raises(ValueError) as error:
        PipelineConfig(**settings)
    assert str(error.value).startswith(", ".join(fields) + ": ")


def test_config_takes_an_int_for_a_float_and_none_for_select_k():
    config = PipelineConfig(window_s=15, amplitude_ratio=1, select_k=None)
    assert config.window_s == 15.0 and config.select_k is None


def test_config_takes_inf_to_switch_the_motion_triggers_off():
    config = PipelineConfig(motion_iqr=float("inf"), motion_amp_sigma=float("inf"))
    assert config.motion_iqr == config.motion_amp_sigma == float("inf")
