"""Ground-truth synthetic dataset generator.

Builds block-design recordings with a canonical double-gamma hemodynamic
response, physiological noise (cardiac, respiratory, Mayer waves), sensor
noise, drifts, and motion spikes, forward-modeled through the Beer-Lambert
optics into strictly positive two-wavelength intensities. Group effects
(amplitude suppression and peak delay in designated channels) are injected
into the patient group only, and every injected quantity is recorded in a
GroundTruth object for later verification.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from . import optics
from .model import CHROMOPHORES, Annotation, Channel, Dataset, Montage, Recording

__all__ = [
    "EffectSpec",
    "GroundTruth",
    "canonical_hrf",
    "default_montage",
    "generate_dataset",
    "generate_recordings",
    "ground_truth_report",
]

_HRF_SHAPE_MAIN = 6.0  # gamma shape of the positive lobe
_HRF_SHAPE_UNDER = 16.0  # gamma shape of the undershoot lobe
_HRF_UNDERSHOOT_S = 16.0  # mode of the undershoot lobe
_HRF_UNDERSHOOT_RATIO = 1.0 / 6.0  # undershoot lobe relative to the main lobe
# The main lobe's mode that puts the combined maximum at the 6 s peak
# (_HRF_PEAK_S), and the value of that maximum: the root of the combined
# slope at 6 s over modes in [3, 24] s by Brent's method (xtol 1e-12), and
# the curve there. The synth tests pin both to scipy's solve.
_HRF_MAIN_MODE_S = 6.009028935580818
_HRF_PEAK_VALUE = 0.9991929885178603
_SUPERFICIAL_HBR_RATIO = 0.3  # scalp HbR fluctuation relative to scalp HbO

# The synthetic protocol: Nine Hole Peg Test blocks in two conditions, each
# task block followed by rest, after a lead-in, sampled at two wavelengths.
_TASKS = ("single", "dual")
_SAMPLE_RATE_HZ = 3.9
_TASK_S = 20.0
_REST_S = 20.0
_LEAD_IN_S = 20.0
_WAVELENGTHS_NM = (760.0, 850.0)
# The evoked response: HbO peak amplitude (mol/L), HbR relative to HbO
# (inverted), the HRF peak time, and the within-block adaptation of the
# neural drive toward its floor.
_HBO_AMPLITUDE = 1e-6
_HBR_RATIO = 1.0 / 3.0
_HRF_PEAK_S = 6.0
_ADAPTATION_TAU_S = 8.0
_ADAPTATION_FLOOR = 0.35
# Physiological rhythms (Hz). They are not phase-stable over minutes; the
# random phase walk keeps them from locking to the periodic block design.
_CARDIAC_HZ = 1.1
_RESPIRATION_HZ = 0.3
_MAYER_HZ = 0.1
_PHASE_JITTER_RAD_PER_SQRT_S = 0.3
# Noise amplitudes. The oscillations (at the rhythms above) and the white
# noise sd are concentration equivalents (mol/L); drift and spikes act on
# optical density. They put the raw in-band noise on the order of the
# response amplitude.
_CARDIAC_AMP = 6e-7
_RESPIRATION_AMP = 4e-7
_MAYER_AMP = 5e-7
_WHITE_SD = 3e-8
_DRIFT_OD_PER_MIN = 2e-3
_SPIKE_RATE_PER_MIN = 0.5
_SPIKE_OD_AMP = 0.12
# Relative sd of each participant's response gain and of each trial's drive.
_PARTICIPANT_GAIN_SD = 0.08
_TRIAL_GAIN_SD = 0.05


@dataclass(frozen=True)
class EffectSpec:
    """Patient-group effect injected into designated channels.

    Only ``chromophore`` expresses the effect: its amplitude is scaled by
    ``amplitude_ratio`` and its peak delayed by ``peak_delay_s``; the other
    chromophore responds as in controls.
    """

    target_channels: tuple[str, ...]
    amplitude_ratio: float = 0.5
    peak_delay_s: float = 0.0
    chromophore: str = "hbr"

    def __post_init__(self):
        if not 0.0 < self.amplitude_ratio <= 1.0:
            raise ValueError(f"amplitude_ratio must be in (0, 1], got {self.amplitude_ratio}")
        if self.peak_delay_s < 0:
            raise ValueError(f"peak_delay_s must be >= 0, got {self.peak_delay_s}")
        if self.chromophore not in CHROMOPHORES:
            raise ValueError(f"unknown chromophore {self.chromophore!r}")

    def per_chromophore(self) -> tuple[np.ndarray, np.ndarray]:
        """The amplitude ratio and the peak delay (s) of each chromophore, in
        CHROMOPHORES order: ``chromophore``'s are the effect's, the other's
        1 and 0."""
        w = np.array([c == self.chromophore for c in CHROMOPHORES], dtype=float)
        # Kept as 1 - w * (1 - r), not r: 1 - (1 - r) != r for r = 0.1.
        return 1.0 - w * (1.0 - self.amplitude_ratio), w * self.peak_delay_s


@dataclass(frozen=True)
class GroundTruth:
    """Everything injected by the generator, for acceptance checking."""

    seed: int
    labels: dict[str, str]  # participant id -> group
    discriminative: tuple[tuple[str, str], ...]
    amplitude_ratio: float
    peak_delay_s: float
    hrf_peak_s: float
    true_peak_s: dict[str, dict[str, float]]  # pid -> chromophore -> target-channel peak


def canonical_hrf(t):
    """Double-gamma hemodynamic response, unit peak exactly at _HRF_PEAK_S.

    Two gamma-density-shaped lobes are combined, the undershoot lobe with
    its mode at _HRF_UNDERSHOOT_S and weight _HRF_UNDERSHOOT_RATIO. The main
    lobe's mode, _HRF_MAIN_MODE_S, places the analytic maximum of the
    difference on _HRF_PEAK_S, and the curve is divided by that maximum,
    _HRF_PEAK_VALUE, so it is 1 there. Zero at t <= 0.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    mode = _HRF_MAIN_MODE_S
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    main = (tp / mode) ** (_HRF_SHAPE_MAIN - 1) * np.exp(
        -(tp - mode) * (_HRF_SHAPE_MAIN - 1) / mode
    )
    under = (tp / _HRF_UNDERSHOOT_S) ** (_HRF_SHAPE_UNDER - 1) * np.exp(
        -(tp - _HRF_UNDERSHOOT_S) * (_HRF_SHAPE_UNDER - 1) / _HRF_UNDERSHOOT_S
    )
    out[pos] = (main - _HRF_UNDERSHOOT_RATIO * under) / _HRF_PEAK_VALUE
    return float(out[0]) if scalar else out


def default_montage() -> Montage:
    """Eight sources, eight detectors, 20 long channels, 8 short channels.

    Sources S1-S4 cover the left motor cortex, S5-S8 the right; each source
    also carries one short-separation channel (SD detectors).
    """
    pairs_left = [
        ("S1", "D1"), ("S1", "D2"), ("S2", "D1"), ("S2", "D2"), ("S2", "D3"),
        ("S3", "D2"), ("S3", "D3"), ("S3", "D4"), ("S4", "D3"), ("S4", "D4"),
    ]
    pairs_right = [
        ("S5", "D5"), ("S5", "D6"), ("S6", "D5"), ("S6", "D6"), ("S6", "D7"),
        ("S7", "D6"), ("S7", "D7"), ("S7", "D8"), ("S8", "D7"), ("S8", "D8"),
    ]
    channels = [
        Channel(s, d, 0.03, "long", "left") for s, d in pairs_left
    ] + [
        Channel(s, d, 0.03, "long", "right") for s, d in pairs_right
    ] + [
        Channel(f"S{i}", f"SD{i}", 0.008, "short", "left" if i <= 4 else "right")
        for i in range(1, 9)
    ]
    roi_map = {
        "left_motor": tuple(f"{s}-{d}" for s, d in pairs_left),
        "right_motor": tuple(f"{s}-{d}" for s, d in pairs_right),
        "supramarginal_angular": ("S7-D6", "S7-D7"),
        "precentral": ("S5-D6",),
    }
    return Montage(
        sources=tuple(f"S{i}" for i in range(1, 9)),
        detectors=tuple([f"D{i}" for i in range(1, 9)] + [f"SD{i}" for i in range(1, 9)]),
        channels=tuple(channels),
        roi_map=roi_map,
    )


def _block_kernel(fs: float, delay_s: float, envelope: np.ndarray):
    """HRF impulse kernel shifted by delay, scaled to unit single-block peak."""
    t = np.arange(int(round(40.0 * fs))) / fs
    kernel = canonical_hrf(np.maximum(t - delay_s, 0.0))
    block = np.convolve(envelope, kernel)
    peak = block.max()
    return kernel / peak if peak > 0 else kernel


def _spike_train(rng, n: int, fs: float, rate_per_min: float, amp: float) -> np.ndarray:
    out = np.zeros(n)
    count = rng.poisson(rate_per_min * n / fs / 60.0)
    shape = np.array([1.0, 0.6, 0.3])
    for _ in range(count):
        pos = int(rng.integers(0, n))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        height = amp * (0.5 + rng.random()) * sign
        stop = min(n, pos + shape.size)
        out[pos:stop] += height * shape[: stop - pos]
    return out


def generate_dataset(
    n_patients: int,
    n_controls: int,
    trials_per_task: int = 5,
    effect: EffectSpec | None = None,
    seed: int = 0,
) -> tuple[Dataset, GroundTruth]:
    """Generate raw two-wavelength recordings with known ground truth.

    The protocol is fixed: the default montage, sampled at 3.9 Hz at 760
    and 850 nm; after a 20 s lead-in, each participant performs
    ``trials_per_task`` trials of the single and the dual task in a seeded
    random order, each a 20 s block followed by 20 s of rest. Neural
    responses are the HRF (peak at 6 s) convolved with the task drive, HbR
    inverted at a third of the HbO amplitude; the drive decays
    exponentially within each block toward 0.35 with an 8 s time constant,
    so the response peaks and declines instead of plateauing (neural
    adaptation). Patients express the effect in its target channels only.
    Superficial noise is shared between each long channel and the short
    channel of its source, so short-channel regression can remove it.
    Deterministic per seed.
    """
    recordings = tuple(
        generate_recordings(n_patients, n_controls, trials_per_task, effect, seed)
    )
    dataset = Dataset(
        montage=default_montage(), recordings=recordings, creator="nirscope-synth", seed=seed
    )
    return dataset, _ground_truth(_participants(n_patients, n_controls), effect, seed)


def generate_recordings(
    n_patients: int,
    n_controls: int,
    trials_per_task: int = 5,
    effect: EffectSpec | None = None,
    seed: int = 0,
) -> Iterator[Recording]:
    """The recordings of ``generate_dataset``, patients then controls, each
    generated when the iterator reaches it: a caller that keeps none of
    them holds one at a time. The arguments are checked at the call."""
    if n_patients < 1 or n_controls < 1:
        raise ValueError("need at least one participant per group")
    montage = default_montage()
    if effect is not None:
        for ch in effect.target_channels:
            if ch not in montage.channel_ids:
                raise ValueError(f"effect channel {ch} absent from montage")
        long_ids = {ch.id for ch in montage.long_channels}
        short = [ch for ch in effect.target_channels if ch not in long_ids]
        if short:
            raise ValueError(f"effect channels {short} are short: they carry no evoked response")
    extinction = optics.default_extinction_table()
    return (
        _recording(montage, extinction, pid, group, trials_per_task, effect,
                   np.random.default_rng([seed, p_index]))
        for p_index, (pid, group) in enumerate(_participants(n_patients, n_controls))
    )


def _participants(n_patients: int, n_controls: int) -> list[tuple[str, str]]:
    return [(f"P{i + 1:02d}", "patient") for i in range(n_patients)] + [
        (f"C{i + 1:02d}", "control") for i in range(n_controls)
    ]


def _ground_truth(participants, effect: EffectSpec | None, seed: int) -> GroundTruth:
    """What the generator injects, which depends on the groups and the effect
    only. The targets, each once, express the effect: each patient's response
    there peaks ``effect.per_chromophore()``'s delay after the HRF peak, and
    they are discriminative when the effect changes the amplitude or the peak."""
    targets = () if effect is None else tuple(dict.fromkeys(effect.target_channels))
    delays = effect.per_chromophore()[1] if targets else np.zeros(len(CHROMOPHORES))
    true_peak = {
        pid: {
            chrom: _HRF_PEAK_S + (float(d) if group == "patient" else 0.0)
            for chrom, d in zip(CHROMOPHORES, delays)
        }
        for pid, group in participants
    }
    changed = bool(targets) and (effect.amplitude_ratio < 1.0 or effect.peak_delay_s > 0)
    return GroundTruth(
        seed=seed,
        labels=dict(participants),
        discriminative=tuple((ch, effect.chromophore) for ch in targets) if changed else (),
        amplitude_ratio=1.0 if effect is None else effect.amplitude_ratio,
        peak_delay_s=0.0 if effect is None else effect.peak_delay_s,
        hrf_peak_s=_HRF_PEAK_S,
        true_peak_s=true_peak,
    )


def _recording(
    montage: Montage, extinction, pid: str, group: str, trials_per_task: int,
    effect: EffectSpec | None, rng,
) -> Recording:
    """One participant's recording, drawn from ``rng``: its hemodynamics are
    one (2, channels, samples) pair in CHROMOPHORES order, forward-modeled
    into optical density in one call."""
    fs = _SAMPLE_RATE_HZ
    n_trials = trials_per_task * len(_TASKS)
    duration_s = _LEAD_IN_S + n_trials * (_TASK_S + _REST_S)
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    task_samples = int(round(_TASK_S * fs))
    channels = montage.channels
    is_long = np.array([ch.kind == "long" for ch in channels])

    order = rng.permutation(np.repeat(np.arange(len(_TASKS)), trials_per_task))
    annotations = []
    onsets = []
    for j, task_idx in enumerate(order):
        onset = _LEAD_IN_S + j * (_TASK_S + _REST_S)
        annotations.append(Annotation(onset, _TASK_S, _TASKS[int(task_idx)]))
        onsets.append(int(round(onset * fs)))

    # Stimulus train with within-block adaptation and per-trial jitter.
    block_t = np.arange(task_samples) / fs
    envelope = _ADAPTATION_FLOOR + (1.0 - _ADAPTATION_FLOOR) * np.exp(
        -block_t / _ADAPTATION_TAU_S
    )
    u = np.zeros(n)
    for start in onsets:
        u[start : start + task_samples] = envelope * (
            1.0 + _TRIAL_GAIN_SD * rng.standard_normal()
        )
    gain = max(0.2, 1.0 + _PARTICIPANT_GAIN_SD * rng.standard_normal())

    def response(delay: float) -> np.ndarray:
        return np.convolve(u, _block_kernel(fs, delay, envelope))[:n]

    # Evoked response on the long channels; patients express the effect in
    # its targets. HbR is inverted at _HBR_RATIO of the HbO amplitude.
    drive = gain * _HBO_AMPLITUDE * np.array([1.0, -_HBR_RATIO])
    hemo = np.zeros((2, len(channels), n))
    hemo[:, is_long] = (drive[:, None] * response(0.0))[:, None]
    if effect is not None and group == "patient":
        ratio, delay = effect.per_chromophore()
        expressed = np.isin(montage.channel_ids, effect.target_channels)
        hemo[:, expressed] = ((drive * ratio)[:, None] * [response(d) for d in delay])[:, None]

    # Superficial (scalp) rhythms per source, shared with short channels.
    rhythms = np.array(
        [(_CARDIAC_HZ, _CARDIAC_AMP), (_RESPIRATION_HZ, _RESPIRATION_AMP), (_MAYER_HZ, _MAYER_AMP)]
    )
    phase0 = np.empty((len(montage.sources), len(rhythms), 1))
    walk = np.empty((len(montage.sources), len(rhythms), n))
    for i in np.ndindex(phase0.shape[:2]):
        phase0[i] = rng.uniform(0, 2 * np.pi)
        walk[i] = rng.standard_normal(n)
    step = _PHASE_JITTER_RAD_PER_SQRT_S / np.sqrt(fs)
    walk = np.cumsum(step * walk, axis=-1)
    hz, amp = rhythms[:, :1], rhythms[:, 1:]
    scalp = (amp * np.sin(2 * np.pi * hz * t + phase0 + walk)).sum(axis=1)
    source = [montage.sources.index(ch.source) for ch in channels]
    superficial = np.array([1.0, _SUPERFICIAL_HBR_RATIO])[:, None, None] * scalp[source]

    # Sensor noise on every channel, drawn channel by channel in the order the
    # golden digests fix; drift and motion spikes, in optical density, on the
    # long channels only, so the short channels stay a clean scalp reference.
    white = np.empty_like(hemo)
    slopes, spikes = [], []
    for ci, ch in enumerate(channels):
        white[:, ci] = rng.standard_normal((2, n))
        if ch.kind == "long":
            slopes.append(rng.uniform(-1.0, 1.0))
            spikes.append(_spike_train(rng, n, fs, _SPIKE_RATE_PER_MIN, _SPIKE_OD_AMP))
    hemo = hemo + superficial + np.multiply(white, _WHITE_SD, out=white)

    distances = [ch.distance_m for ch in channels]
    od = optics.mbll_forward(hemo, _WAVELENGTHS_NM, distances, extinction)  # by wavelength
    drift = (_DRIFT_OD_PER_MIN * np.array(slopes))[:, None] * (t / 60.0)
    spikes = np.array(spikes)
    od[0, is_long] += drift
    od[0, is_long] += spikes
    od[1, is_long] += 0.8 * (drift + spikes)

    return Recording(
        participant_id=pid,
        group=group,
        sample_rate_hz=fs,
        wavelengths_nm=_WAVELENGTHS_NM,
        channel_ids=montage.channel_ids,
        intensity=np.exp(-od),
        annotations=tuple(annotations),
    )


def ground_truth_report(gt: GroundTruth) -> str:
    """Serialize the injected effect, one key per GroundTruth field, as JSON text."""
    return json.dumps(asdict(gt), indent=2, sort_keys=True) + "\n"
