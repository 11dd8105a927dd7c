import hashlib

import numpy as np
import pytest
from scipy.interpolate import make_smoothing_spline

from conftest import make_epoch_set
from nirscope import motion, optics, pipeline, synth
from nirscope.explain import ChannelImportance
from nirscope.model import Dataset, Recording, load_dataset, save_dataset
from nirscope.signal import match_short_channel
from nirscope.pipeline import PipelineConfig, preprocess_dataset, preprocess_recording

# sha256 over hbo.tobytes() + hbr.tobytes() of every recording, in order.
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
        digest.update(rec.hbo.tobytes())
        digest.update(rec.hbr.tobytes())
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
        for x, y in ((a.hbo, b.hbo), (a.hbr, b.hbr)):
            scale = np.abs(y).max(axis=1, keepdims=True)
            assert np.all(np.abs(x - y) <= 1e-12 * scale)


def _varied_dataset():
    """Six recordings in four (sample rate, length) groups, no annotations."""
    base, _ = synth.generate_dataset(n_patients=3, n_controls=3, seed=2)
    shapes = [(3.9, 1638), (3.9, 1200), (3.9, 1638), (5.0, 1638), (3.9, 1200), (5.0, 1000)]
    recordings = tuple(
        Recording(
            participant_id=rec.participant_id,
            group=rec.group,
            sample_rate_hz=fs,
            wavelengths_nm=rec.wavelengths_nm,
            channel_ids=rec.channel_ids,
            intensity={w: a[:, :n] for w, a in rec.intensity.items()},
        )
        for rec, (fs, n) in zip(base.recordings, shapes)
    )
    return Dataset(montage=base.montage, recordings=recordings)


# (sample rate, stack shapes) of each band-pass call. By default there is
# one call per sample rate, whatever the lengths; chunks of at most two
# 1638-sample recordings make one call per rate in each of three chunks.
BANDPASS_CALLS = {
    None: [
        (3.9, [(2, 2, 20, 1638), (2, 2, 20, 1200)]),
        (5.0, [(1, 2, 20, 1638), (1, 2, 20, 1000)]),
    ],
    2 * 2 * 20 * 1638: [
        (3.9, [(1, 2, 20, 1638), (1, 2, 20, 1200)]),
        (3.9, [(1, 2, 20, 1638)]),
        (5.0, [(1, 2, 20, 1638)]),
        (3.9, [(1, 2, 20, 1200)]),
        (5.0, [(1, 2, 20, 1000)]),
    ],
}


@pytest.mark.parametrize("chunk_cells", list(BANDPASS_CALLS))
def test_dataset_preprocessing_is_per_recording_preprocessing(monkeypatch, chunk_cells):
    dataset = _varied_dataset()
    config = PipelineConfig(seed=2)
    if chunk_cells is not None:
        monkeypatch.setattr(pipeline, "_CHUNK_CELLS", chunk_cells)
    calls = {"bandpass": [], "spline_correct": 0, "detect": []}
    bandpass = pipeline.bandpass
    spline_correct = pipeline.spline_correct
    detect = pipeline.detect_artifact_stack

    def counted_bandpass(series, spec, fs):
        calls["bandpass"].append((fs, [stack.shape for stack in series]))
        return bandpass(series, spec, fs)

    def counted_spline(*args, **kwargs):
        calls["spline_correct"] += 1
        return spline_correct(*args, **kwargs)

    def counted_detect(rows, fs, **kwargs):
        calls["detect"].append((fs, rows.shape))
        return detect(rows, fs, **kwargs)

    monkeypatch.setattr(pipeline, "bandpass", counted_bandpass)
    monkeypatch.setattr(pipeline, "spline_correct", counted_spline)
    monkeypatch.setattr(pipeline, "detect_artifact_stack", counted_detect)
    hemo = preprocess_dataset(dataset, config)
    # Each band-pass call covers both chromophores of its recordings, one
    # stack per length; detection runs once over the rows of each stack, and
    # there is at most one spline call per stack.
    assert calls["bandpass"] == BANDPASS_CALLS[chunk_cells]
    stacks = [(fs, shape) for fs, shapes in calls["bandpass"] for shape in shapes]
    assert sorted(calls["detect"]) == sorted(
        (fs, (r * c * ch, n)) for fs, (r, c, ch, n) in stacks
    )
    assert 1 <= calls["spline_correct"] <= len(stacks)

    for rec, series in zip(dataset.recordings, hemo.hemo):
        alone = preprocess_recording(rec, dataset.montage, config)
        assert series.participant_id == rec.participant_id
        assert series.sample_rate_hz == rec.sample_rate_hz
        assert series.provenance == alone.provenance
        assert series.hbo.tobytes() == alone.hbo.tobytes()
        assert series.hbr.tobytes() == alone.hbr.tobytes()


def _hemoglobin_per_channel(recording, montage, config):
    """OD, short-channel regression and Beer-Lambert inversion one channel
    at a time, each as a 1-D computation (the pipeline's earlier form)."""
    table = optics.default_extinction_table()
    wl = recording.wavelengths_nm
    index = {c: i for i, c in enumerate(recording.channel_ids)}
    longs = montage.long_channels
    od = {
        w: np.vstack([-np.log(row / float(np.mean(row))) for row in recording.intensity[w]])
        for w in wl
    }
    for w in wl:
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
        out[:, li] = np.linalg.inv(m) @ np.vstack([od[wl[0]][i], od[wl[1]][i]])
    return out


def test_hemoglobin_matches_per_channel_steps(tmp_path):
    # In-memory (C-ordered) intensities of an even and an odd length, and
    # the loader's column-major ones.
    dataset = _varied_dataset()
    odd = Recording(
        participant_id="P99",
        group="patient",
        sample_rate_hz=3.9,
        wavelengths_nm=dataset.recordings[0].wavelengths_nm,
        channel_ids=dataset.recordings[0].channel_ids,
        intensity={w: a[:, :1199] for w, a in dataset.recordings[0].intensity.items()},
    )
    save_dataset(dataset, tmp_path / "raw")
    loaded = load_dataset(tmp_path / "raw")
    assert not loaded.recordings[0].intensity[760.0].flags.c_contiguous
    config = PipelineConfig()
    table = optics.default_extinction_table()
    for rec in (*dataset.recordings[:2], odd, *loaded.recordings[:2]):
        got = np.empty((2, len(dataset.montage.long_channels), rec.n_samples))
        pipeline._hemoglobin(rec, dataset.montage, config, table, got)
        assert got.tobytes() == _hemoglobin_per_channel(rec, dataset.montage, config).tobytes()


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
