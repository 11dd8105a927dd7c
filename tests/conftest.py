import numpy as np
import pytest

from nirscope.model import Annotation, Channel, EpochSet, Montage, Recording


@pytest.fixture
def small_montage() -> Montage:
    """Two sources, two long channels, one short channel."""
    return Montage(
        sources=("S1", "S2"),
        detectors=("D1", "D2", "SD1"),
        channels=(
            Channel("S1", "D1", 0.03, "long", "left"),
            Channel("S2", "D2", 0.03, "long", "right"),
            Channel("S1", "SD1", 0.008, "short", "left"),
        ),
        roi_map={"left": ("S1-D1",), "both": ("S1-D1", "S2-D2")},
    )


def make_recording(montage, n=200, fs=3.9, seed=0, annotations=()):
    rng = np.random.default_rng(seed)
    n_ch = len(montage.channels)
    intensity = 1.0 + 0.05 * rng.random((2, n_ch, n))  # 760 nm, then 850 nm
    return Recording(
        participant_id="P01",
        group="patient",
        sample_rate_hz=fs,
        wavelengths_nm=(760.0, 850.0),
        channel_ids=montage.channel_ids,
        intensity=intensity,
        annotations=tuple(annotations),
    )


def spiky_walks(k, n, seed):
    """(k, n) Gaussian random walks, each with four large spikes."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(size=(k, n)), axis=1)
    for row in x:
        at = rng.choice(n, size=4, replace=False)
        row[at] += rng.choice([-1.0, 1.0], size=4) * 20 * row.std()
    return x


def make_epoch_set(
    n_participants=4,
    trials=3,
    n_channels=2,
    window=20,
    fs=3.9,
    seed=0,
    task="single",
    channel_ids=None,
    group_of=None,
):
    """Random epochs, half patients half controls by default."""
    rng = np.random.default_rng(seed)
    if channel_ids is None:
        channel_ids = tuple(f"S{i + 1}-D{i + 1}" for i in range(n_channels))
    participants, hemo = [], []
    for p in range(n_participants):
        pid = f"X{p:02d}"
        group = (
            group_of(pid)
            if group_of
            else ("patient" if p < n_participants // 2 else "control")
        )
        participants.append((pid, group))
        for _ in range(trials):
            hemo.append(rng.normal(size=(2, len(channel_ids), window)))  # hbo, then hbr
    return EpochSet(
        sample_rate_hz=fs,
        channel_ids=tuple(channel_ids),
        hemo=np.array(hemo),
        participants=tuple(participants),
        participant_index=np.repeat(np.arange(n_participants), trials),
        tasks=(task,) * len(hemo),
        trial_index=tuple(range(trials)) * n_participants,
    )


@pytest.fixture
def annotation_pair():
    return (
        Annotation(5.0, 20.0, "single"),
        Annotation(30.0, 20.0, "dual"),
    )
