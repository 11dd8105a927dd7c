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
from dataclasses import dataclass

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
    "parse_ground_truth",
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

    def weight(self, chromophore: str) -> float:
        return 1.0 if chromophore == self.chromophore else 0.0

    def ratio_for(self, chromophore: str) -> float:
        # Kept as 1 - w * (1 - r), not r: 1 - (1 - r) != r for r = 0.1.
        return 1.0 - self.weight(chromophore) * (1.0 - self.amplitude_ratio)

    def delay_for(self, chromophore: str) -> float:
        return self.weight(chromophore) * self.peak_delay_s

    @property
    def discriminative(self) -> tuple[tuple[str, str], ...]:
        """(channel, chromophore) pairs the effect actually changes."""
        if not (self.amplitude_ratio < 1.0 or self.peak_delay_s > 0):
            return ()
        return tuple((ch, self.chromophore) for ch in self.target_channels)


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
    montage = default_montage()
    dataset = Dataset(
        montage=montage, recordings=recordings, creator="nirscope-synth", seed=seed
    )
    return dataset, _ground_truth(montage, _participants(n_patients, n_controls), effect, seed)


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
        known = set(montage.channel_ids)
        for ch in effect.target_channels:
            if ch not in known:
                raise ValueError(f"effect channel {ch} absent from montage")
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


def _ground_truth(montage, participants, effect: EffectSpec | None, seed: int) -> GroundTruth:
    """What the generator injects, which depends on the groups and the effect
    only: when a target is a long channel, each patient's target-channel
    response peaks ``effect.delay_for(chromophore)`` after the HRF peak."""
    long_ids = {ch.id for ch in montage.long_channels}
    expressed = effect is not None and any(ch in long_ids for ch in effect.target_channels)
    true_peak = {}
    for pid, group in participants:
        delayed = expressed and group == "patient"
        true_peak[pid] = {
            chrom: _HRF_PEAK_S + (effect.delay_for(chrom) if delayed else 0.0)
            for chrom in CHROMOPHORES
        }
    return GroundTruth(
        seed=seed,
        labels=dict(participants),
        discriminative=() if effect is None else effect.discriminative,
        amplitude_ratio=1.0 if effect is None else effect.amplitude_ratio,
        peak_delay_s=0.0 if effect is None else effect.peak_delay_s,
        hrf_peak_s=_HRF_PEAK_S,
        true_peak_s=true_peak,
    )


def _recording(
    montage: Montage, extinction, pid: str, group: str, trials_per_task: int,
    effect: EffectSpec | None, rng,
) -> Recording:
    """One participant's recording, drawn from ``rng``."""
    fs = _SAMPLE_RATE_HZ
    n_trials = trials_per_task * len(_TASKS)
    duration_s = _LEAD_IN_S + n_trials * (_TASK_S + _REST_S)
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    task_samples = int(round(_TASK_S * fs))
    by_source = {ch.id: ch.source for ch in montage.channels}
    targets = set(effect.target_channels) if effect is not None else set()

    order = rng.permutation(
        np.repeat(np.arange(len(_TASKS)), trials_per_task)
    )
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
    is_patient = group == "patient"
    kernels: dict[float, np.ndarray] = {}

    def response(delay: float) -> np.ndarray:
        if delay not in kernels:
            kernels[delay] = np.convolve(
                u, _block_kernel(fs, delay, envelope)
            )[:n]
        return kernels[delay]

    # Superficial (scalp) signal per source, shared with short channels.
    sup_hbo: dict[str, np.ndarray] = {}
    sup_hbr: dict[str, np.ndarray] = {}
    step = _PHASE_JITTER_RAD_PER_SQRT_S / np.sqrt(fs)
    for src in montage.sources:
        sup = np.zeros(n)
        for hz, amp in (
            (_CARDIAC_HZ, _CARDIAC_AMP),
            (_RESPIRATION_HZ, _RESPIRATION_AMP),
            (_MAYER_HZ, _MAYER_AMP),
        ):
            phase0 = rng.uniform(0, 2 * np.pi)
            walk = np.cumsum(step * rng.standard_normal(n))
            sup += amp * np.sin(2 * np.pi * hz * t + phase0 + walk)
        sup_hbo[src] = sup
        sup_hbr[src] = _SUPERFICIAL_HBR_RATIO * sup

    od = np.empty((2, len(montage.channels), n))  # in _WAVELENGTHS_NM order
    for ci, ch in enumerate(montage.channels):
        src = by_source[ch.id]
        if ch.kind == "long":
            affected = is_patient and ch.id in targets and effect is not None
            ratio_hbo = effect.ratio_for("hbo") if affected else 1.0
            ratio_hbr = effect.ratio_for("hbr") if affected else 1.0
            delay_hbo = effect.delay_for("hbo") if affected else 0.0
            delay_hbr = effect.delay_for("hbr") if affected else 0.0
            hbo = gain * _HBO_AMPLITUDE * ratio_hbo * response(delay_hbo)
            hbr = -gain * _HBO_AMPLITUDE * _HBR_RATIO * ratio_hbr * response(delay_hbr)
        else:
            hbo = np.zeros(n)
            hbr = np.zeros(n)
        hbo = hbo + sup_hbo[src] + _WHITE_SD * rng.standard_normal(n)
        hbr = hbr + sup_hbr[src] + _WHITE_SD * rng.standard_normal(n)
        od[:, ci] = optics.mbll_forward((hbo, hbr), _WAVELENGTHS_NM, ch.distance_m, extinction)
        if ch.kind == "long":
            # Drift and motion spikes live on the long channels so the
            # short channels stay a clean superficial reference.
            drift = _DRIFT_OD_PER_MIN * rng.uniform(-1.0, 1.0) * (t / 60.0)
            spikes = _spike_train(rng, n, fs, _SPIKE_RATE_PER_MIN, _SPIKE_OD_AMP)
            od[0, ci] = od[0, ci] + drift + spikes
            od[1, ci] = od[1, ci] + 0.8 * (drift + spikes)

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
    """Serialize the injected effect as JSON text (round-trip parseable)."""
    payload = {
        "seed": gt.seed,
        "labels": gt.labels,
        "discriminative": [list(p) for p in gt.discriminative],
        "amplitude_ratio": gt.amplitude_ratio,
        "peak_delay_s": gt.peak_delay_s,
        "hrf_peak_s": gt.hrf_peak_s,
        "true_peak_s": gt.true_peak_s,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_ground_truth(text: str) -> GroundTruth:
    obj = json.loads(text)
    return GroundTruth(
        seed=int(obj["seed"]),
        labels=dict(obj["labels"]),
        discriminative=tuple((c, h) for c, h in obj["discriminative"]),
        amplitude_ratio=float(obj["amplitude_ratio"]),
        peak_delay_s=float(obj["peak_delay_s"]),
        hrf_peak_s=float(obj["hrf_peak_s"]),
        true_peak_s={k: dict(v) for k, v in obj["true_peak_s"].items()},
    )
