import hashlib

import numpy as np
import pytest
from scipy.interpolate import make_smoothing_spline

from nirscope import motion, pipeline, synth
from nirscope.model import Dataset, Recording
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
    calls = {"bandpass": [], "spline_correct": 0}
    bandpass = pipeline.bandpass
    spline_correct = pipeline.spline_correct

    def counted_bandpass(series, spec, fs):
        calls["bandpass"].append((fs, [stack.shape for stack in series]))
        return bandpass(series, spec, fs)

    def counted_spline(*args, **kwargs):
        calls["spline_correct"] += 1
        return spline_correct(*args, **kwargs)

    monkeypatch.setattr(pipeline, "bandpass", counted_bandpass)
    monkeypatch.setattr(pipeline, "spline_correct", counted_spline)
    hemo = preprocess_dataset(dataset, config)
    # Each band-pass call covers both chromophores of its recordings, one
    # stack per length; there is at most one spline call per stack.
    assert calls["bandpass"] == BANDPASS_CALLS[chunk_cells]
    n_stacks = sum(len(shapes) for _, shapes in calls["bandpass"])
    assert 1 <= calls["spline_correct"] <= n_stacks

    for rec, series in zip(dataset.recordings, hemo.hemo):
        alone = preprocess_recording(rec, dataset.montage, config)
        assert series.participant_id == rec.participant_id
        assert series.sample_rate_hz == rec.sample_rate_hz
        assert series.provenance == alone.provenance
        assert series.hbo.tobytes() == alone.hbo.tobytes()
        assert series.hbr.tobytes() == alone.hbr.tobytes()
