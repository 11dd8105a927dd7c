"""Band-pass filtering and short-channel superficial-signal regression.

The default 0.05-0.7 Hz Butterworth band-pass keeps the hemodynamic band
while rejecting slow drifts below and cardiac/respiratory oscillations
above. Zero-phase application (forward-backward) squares the magnitude
response and cancels group delay.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import Montage

__all__ = [
    "BandpassSpec",
    "bandpass",
    "short_channel_regress",
    "match_short_channel",
    "bandpass_sos",
    "bandpass_gain",
]


@dataclass(frozen=True)
class BandpassSpec:
    """Butterworth band-pass parameters.

    ``order`` is the order of the realized band-pass filter (always even:
    a band-pass doubles the prototype order).
    """

    low_cut_hz: float = 0.05
    high_cut_hz: float = 0.7
    order: int = 4
    zero_phase: bool = True

    def __post_init__(self):
        if self.low_cut_hz <= 0 or self.high_cut_hz <= self.low_cut_hz:
            raise ValueError(
                f"need 0 < low_cut < high_cut, got ({self.low_cut_hz}, {self.high_cut_hz})"
            )
        if self.order < 2 or self.order % 2 != 0:
            raise ValueError(f"filter order must be a positive even integer, got {self.order}")

    def validate_for(self, fs: float):
        if self.high_cut_hz >= fs / 2:
            raise ValueError(
                f"high cutoff {self.high_cut_hz} Hz is at or above Nyquist ({fs / 2} Hz)"
            )


def bandpass_sos(spec: BandpassSpec, fs: float) -> np.ndarray:
    """Second-order sections of the designed band-pass."""
    from scipy import signal as sps

    spec.validate_for(fs)
    return sps.butter(
        spec.order // 2,
        [spec.low_cut_hz, spec.high_cut_hz],
        btype="band",
        fs=fs,
        output="sos",
    )


def bandpass_gain(spec: BandpassSpec, fs: float, freqs) -> np.ndarray:
    """Magnitude response at ``freqs`` (Hz), squared when zero-phase."""
    from scipy import signal as sps

    sos = bandpass_sos(spec, fs)
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    _, h = sps.sosfreqz(sos, worN=freqs * (2 * np.pi / fs))
    mag = np.abs(h)
    return mag**2 if spec.zero_phase else mag


def _settle_len(sos: np.ndarray, fs: float, spec: BandpassSpec) -> int:
    # One filter-settling length: impulse response support down to 1e-8 of
    # its peak, bounded to keep padding finite for degenerate designs.
    from scipy import signal as sps

    n_probe = int(min(60.0 / spec.low_cut_hz * fs, 1_000_000))
    impulse = np.zeros(n_probe)
    impulse[0] = 1.0
    resp = np.abs(sps.sosfilt(sos, impulse))
    peak = resp.max()
    above = np.nonzero(resp > 1e-8 * peak)[0]
    return int(above[-1]) + 1 if above.size else 1


@functools.lru_cache(maxsize=None)
def _design(spec: BandpassSpec, fs: float) -> tuple[np.ndarray, int]:
    # The SOS sections and the settle length depend only on (spec, fs), so a
    # recording designs its filter once instead of once per channel.
    sos = bandpass_sos(spec, fs)
    return sos, _settle_len(sos, fs, spec)


def bandpass(series, spec: BandpassSpec, fs: float) -> np.ndarray:
    """Apply the Butterworth band-pass along the last axis.

    ``series`` is one series or an (..., n_samples) stack of them; every row
    is filtered exactly as it would be on its own. Zero-phase mode filters
    forward and backward with reflection padding of one filter-settling
    length; output shape equals input shape.
    """
    from scipy import signal as sps

    x = np.asarray(series, dtype=float)
    if x.ndim == 0:
        raise ValueError("series must have at least one dimension, got a scalar")
    n = x.shape[-1]
    if n < 3 * spec.order:
        raise ValueError(
            f"series too short: {n} samples < 3x filter order ({3 * spec.order})"
        )
    sos, settle = _design(spec, fs)
    if not spec.zero_phase:
        # sosfilt wants zi as (n_sections, ..., 2): one initial state per row.
        zi0 = sps.sosfilt_zi(sos).reshape(sos.shape[0], *(1,) * (x.ndim - 1), 2)
        y, _ = sps.sosfilt(sos, x, axis=-1, zi=zi0 * x[..., :1])
        return y
    y = sps.sosfiltfilt(sos, x, axis=-1, padtype="even", padlen=min(settle, n - 1))
    return np.ascontiguousarray(y)


def short_channel_regress(long, short) -> np.ndarray:
    """Remove the superficial component measured by a short channel.

    Fits beta = <long - mean, short - mean> / <short - mean, short - mean>
    and subtracts beta * (short - mean(short)); the result is orthogonal to
    the demeaned short series.
    """
    x = np.asarray(long, dtype=float)
    s = np.asarray(short, dtype=float)
    if x.shape != s.shape:
        raise ValueError(f"series lengths differ: {x.shape} vs {s.shape}")
    sd = s - s.mean()
    denom = float(sd @ sd)
    if denom == 0.0:
        raise ValueError("uninformative short channel: zero variance")
    beta = float((x - x.mean()) @ sd) / denom
    return x - beta * sd


def _detector_order(detector: str) -> tuple:
    # Natural order so D2 sorts before D10.
    digits = "".join(c for c in detector if c.isdigit())
    return (int(digits) if digits else 0, detector)


def match_short_channel(montage: Montage, long_channel_id: str) -> str:
    """Pick the short channel paired with a long channel.

    Prefers a short channel sharing the long channel's source (ties broken
    by smallest detector id); falls back to the first short channel in
    montage order.
    """
    shorts = montage.short_channels
    if not shorts:
        raise ValueError("montage has no short channels")
    long_ch = montage.channel(long_channel_id)
    same_source = [ch for ch in shorts if ch.source == long_ch.source]
    if same_source:
        return min(same_source, key=lambda ch: _detector_order(ch.detector)).id
    return shorts[0].id
