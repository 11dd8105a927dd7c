"""Band-pass filtering and short-channel superficial-signal regression.

The default 0.05-0.7 Hz Butterworth band-pass keeps the hemodynamic band
while rejecting slow drifts below and cardiac/respiratory oscillations
above. It is always applied zero-phase (forward-backward), which squares
the magnitude response and cancels group delay.

Design and filtering are a numpy port of scipy.signal's ``butter``,
``sosfilt_zi`` and ``sosfiltfilt`` that reproduces them bit for bit, so the
output does not depend on the installed scipy and a process that filters
never imports scipy.signal (which also loads scipy.stats).
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
]


# Samples per block of the band-pass: each block of every row is gathered
# into a (block x rows) scratch and runs through every section before the
# next block. With its three products that is 2 MB for 960 rows.
_BLOCK_SAMPLES = 64


@dataclass(frozen=True)
class BandpassSpec:
    """Butterworth band-pass parameters.

    ``order`` is the order of the realized band-pass filter (always even:
    a band-pass doubles the prototype order).
    """

    low_cut_hz: float = 0.05
    high_cut_hz: float = 0.7
    order: int = 4

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


def _cplxreal(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # One member (positive imaginary part) of each conjugate pair, and the
    # real values, both sorted; scipy.signal._filter_design._cplxreal.
    tol = 100 * np.finfo(float).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real_indices = abs(z.imag) <= tol * abs(z)
    zr = z[real_indices].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real_indices]
    zp = z[z.imag > 0]
    zn = z[z.imag < 0]
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.nonzero(diffs > 0)[0], np.nonzero(diffs < 0)[0] + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    return (zp + zn.conj()) / 2, zr


def _poly(roots) -> np.ndarray:
    # Monic polynomial with these roots, highest power first. Complex roots
    # come in conjugate pairs, so the coefficients are real.
    roots = np.asarray(roots)
    a = np.ones(1, dtype=roots.dtype)
    for root in roots:
        a = np.convolve(a, np.stack((np.ones_like(root), -root)), mode="full")
    return a.real


def _zpk2sos(z: np.ndarray, p: np.ndarray, k: float) -> np.ndarray:
    # scipy.signal.zpk2sos with 'nearest' pairing, for a digital band-pass
    # Butterworth: every zero is real (+1 or -1) and real poles come in pairs,
    # so every section takes two poles and two zeros. Sections are filled
    # from the last, each taking the remaining pole nearest the unit circle
    # and the two remaining zeros nearest that pole.
    z = np.sort(z.real)
    p = np.concatenate(_cplxreal(p))
    sos = np.zeros((len(z) // 2, 6))
    for si in range(len(sos) - 1, -1, -1):
        p1_idx = np.argmin(np.abs(1 - np.abs(p)))
        p1 = p[p1_idx]
        p = np.delete(p, p1_idx)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            p2_idx = real[np.argmin(np.abs(1 - np.abs(p[real])))]
            p2 = p[p2_idx]
            p = np.delete(p, p2_idx)
        else:
            p2 = p1.conj()
        pair = []
        for _ in range(2):
            z_idx = np.argsort(np.abs(z - p1))[0]
            pair.append(z[z_idx])
            z = np.delete(z, z_idx)
        sos[si, :3] = _poly(pair)
        sos[si, 3:] = _poly([p1, p2])
    sos[0, :3] *= k
    return sos


def bandpass_sos(spec: BandpassSpec, fs: float) -> np.ndarray:
    """Second-order sections of the designed band-pass.

    Equal, bit for bit, to ``scipy.signal.butter(spec.order // 2, band,
    btype="band", fs=fs, output="sos")``: the same operations in the same
    order (analog prototype, band-pass transform, bilinear transform,
    pairing into sections), so the design does not depend on the installed
    scipy.
    """
    spec.validate_for(fs)
    n = spec.order // 2
    fs = float(fs)
    wn = np.asarray([spec.low_cut_hz, spec.high_cut_hz], dtype=np.float64) / (fs / 2)
    # Analog Butterworth prototype: n poles on the left unit semicircle.
    m = np.arange(-n + 1, n, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * n))
    # Prewarp the band edges for the bilinear transform at fs = 2.
    warped = 2 * 2.0 * np.tan(np.pi * wn / 2.0)
    bw = float(warped[1] - warped[0])
    wo = float(np.sqrt(warped[0] * warped[1]))
    # Low-pass to band-pass: every pole splits in two, n zeros at the origin.
    p_lp = p * bw / 2
    p_bp = np.concatenate(
        (p_lp + np.sqrt(p_lp**2 - wo**2), p_lp - np.sqrt(p_lp**2 - wo**2))
    )
    z_bp = np.zeros(n, dtype=np.complex128)
    # Bilinear transform at fs = 2; the n zeros at infinity go to Nyquist.
    fs2 = 4.0
    z_z = np.concatenate(((fs2 + z_bp) / (fs2 - z_bp), -np.ones(n)))
    p_z = (fs2 + p_bp) / (fs2 - p_bp)
    k_z = bw**n * np.real(np.prod(fs2 - z_bp) / np.prod(fs2 - p_bp))
    return _zpk2sos(z_z, p_z, k_z)


def _sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    # Steady-state initial conditions of each section for a unit step:
    # lfilter_zi's (I - A) zi = B with A the companion matrix of a, scaled by
    # the DC gain of the sections before it (scipy.signal.sosfilt_zi).
    zi = np.empty((sos.shape[0], 2))
    scale = 1.0
    for s, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        companion = np.array([[-a[1], -a[2]], [1.0, 0.0]])
        zi[s] = scale * np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _sosfilt(sos: np.ndarray, x, z, products=None) -> list:
    """Filter ``x[0], x[1], ...`` in place through the sections of ``sos``
    and return each section's final state.

    ``z[s]`` is section s's initial two-element state. ``x`` is a list of
    floats with float states, or a 2-D array whose rows are filtered
    element by element, side by side, with array states that are updated
    in place; ``products`` is then a (3,) + ``x.shape`` scratch. Each
    section runs over all of ``x`` before the next; each is the direct form
    II transposed recursion of scipy's ``_sosfilt``, operation for
    operation, so the output is the same to the bit. On an array, ``b0·x``,
    ``b1·x`` and ``b2·x`` are formed once per section into ``products``,
    and each sample then takes the same operations as on floats.
    """
    final = []
    for (b0, b1, b2, _, a1, a2), (z0, z1) in zip(sos.tolist(), z):
        if products is not None:
            for b, p in zip((b0, b1, b2), products):
                np.multiply(x, b, out=p)
            for y, bx0, bx1, bx2 in zip(x, *products):
                np.add(bx0, z0, out=y)  # y = b0 * x + z0
                np.multiply(y, a1, out=z0)  # z0 = b1 * x - a1 * y + z1
                np.subtract(bx1, z0, out=z0)
                np.add(z0, z1, out=z0)
                np.multiply(y, a2, out=z1)  # z1 = b2 * x - a2 * y
                np.subtract(bx2, z1, out=z1)
        else:
            for t in range(len(x)):
                xc = x[t]
                y = b0 * xc + z0
                z0 = b1 * xc - a1 * y + z1
                z1 = b2 * xc - a2 * y
                x[t] = y
        final.append((z0, z1))
    return final


def _settle_len(sos: np.ndarray, fs: float, spec: BandpassSpec) -> int:
    # One filter-settling length: impulse response support down to 1e-8 of
    # its peak, bounded to keep padding finite for degenerate designs.
    n_probe = int(min(60.0 / spec.low_cut_hz * fs, 1_000_000))
    impulse = [1.0] + [0.0] * (n_probe - 1)
    _sosfilt(sos, impulse, [(0.0, 0.0)] * len(sos))
    resp = np.abs(np.array(impulse))
    peak = resp.max()
    above = np.nonzero(resp > 1e-8 * peak)[0]
    return int(above[-1]) + 1 if above.size else 1


@functools.lru_cache(maxsize=None)
def _design(spec: BandpassSpec, fs: float) -> tuple[np.ndarray, np.ndarray, int]:
    # The SOS sections, their step-response initial state and the settle
    # length depend only on (spec, fs), so they are designed once.
    sos = bandpass_sos(spec, fs)
    return sos, _sosfilt_zi(sos), _settle_len(sos, fs, spec)


def _steady_state(zi: np.ndarray, first: np.ndarray) -> list:
    # Each section's state after an input held at ``first`` forever: the
    # step-response state scaled by the first sample, as sosfiltfilt starts.
    return [(zi[s, 0] * first, zi[s, 1] * first) for s in range(len(zi))]


def _overlaps(segments, lo: int, hi: int):
    # (block rows, segment rows, input, output) of each segment that steps
    # lo..hi - 1 of a pass reach.
    for start, source, target in segments:
        a, b = max(lo, start), min(hi, start + len(source))
        if a < b:
            yield slice(a - lo, b - lo), slice(a - start, b - start), source, target


def _pass(sos, state, pieces, length: int) -> None:
    """Run one direction of the filter over ``length`` steps of side-by-side
    pieces, from ``state``.

    Each piece is (columns, segments): its rows take those columns, and its
    segments, (first step, input, output or None), are (steps x rows) views
    that follow one another from step 0. Each block of _BLOCK_SAMPLES steps
    is gathered from every piece into one (block x columns) scratch, runs
    through every section, and goes back into the outputs; steps without an
    output only carry the state, and steps past a piece's last segment run
    on zeros.
    """
    width = state[0][0].shape[0]
    block = np.empty((min(_BLOCK_SAMPLES, length), width))
    products = np.empty((3,) + block.shape)
    for lo in range(0, length, _BLOCK_SAMPLES):
        x = block[: length - lo]
        hi = lo + len(x)
        for cols, segments in pieces:
            for into, part, source, _ in _overlaps(segments, lo, hi):
                x[into, cols] = source[part]
            start, source, _ = segments[-1]
            end = start + len(source)
            if end < hi:
                x[max(end - lo, 0) :, cols] = 0.0
        _sosfilt(sos, x, state, products[:, : len(x)])
        for cols, segments in pieces:
            for into, part, _, target in _overlaps(segments, lo, hi):
                if target is not None:
                    target[part] = x[into, cols]


def _filter_rows(sos, zi, pieces) -> None:
    """Filter (rows, out, pad) pieces forward and backward side by side,
    writing each row's result into ``out``, which may be ``rows``.

    Each piece's rows, reflected by ``pad`` samples at both ends, are read
    where they lie: the forward pass writes its output over ``out``, after
    the reflected tail, which it would overwrite, is copied into a (pad x
    rows) tail buffer, where its forward output then lands. The forward
    output over the leading padding only sets the filter state, and the
    backward pass never reads it. Each piece starts the forward pass at its
    own first padded sample, and the backward pass at its own last one, so
    every row comes out as it would on its own; columns never interact.
    """
    width = sum(len(rows) for rows, _, _ in pieces)
    tails = np.empty((max(pad for _, _, pad in pieces), width))
    forward, backward, first, last = [], [], [], []
    c = 0
    for rows, out, pad in pieces:
        cols = slice(c, c + len(rows))
        c += len(rows)
        x, y, n = rows.T, out.T, rows.shape[1]
        tail = tails[:pad, cols]
        tail[...] = x[-2 : -(pad + 2) : -1]
        forward.append((cols, [(0, x[pad:0:-1], None), (pad, x, y), (pad + n, tail, tail)]))
        backward.append((cols, [(0, tail[::-1], None), (pad, y[::-1], y[::-1])]))
        first.append(x[pad])
        last.append(tail[-1])
    steps = max(rows.shape[1] + 2 * pad for rows, _, pad in pieces)
    _pass(sos, _steady_state(zi, np.concatenate(first)), forward, steps)
    # The backward pass stops at each piece's first sample: what it would
    # give over the leading padding is thrown away.
    steps = max(rows.shape[1] + pad for rows, _, pad in pieces)
    _pass(sos, _steady_state(zi, np.concatenate(last)), backward, steps)


def bandpass(series, spec: BandpassSpec, fs: float, out=None):
    """Apply the Butterworth band-pass along the last axis.

    ``series`` is one series or an (..., n_samples) stack of them, and the
    output has its shape; or it is a list of such arrays, whose lengths may
    differ, and the output is a list of their filtered copies. Every row is
    filtered exactly as it would be on its own, zero-phase: forward and
    backward with even (reflection) padding of one filter-settling length,
    as ``scipy.signal.sosfiltfilt(sos, x, padtype="even", padlen=min(settle,
    n - 1))`` does, bit for bit.

    As in numpy, ``out`` (a C-contiguous float64 array of the input's
    shape, or a list of them for a list) receives the result and is
    returned; it may be the input itself, which is then filtered in place.

    The recursion steps over samples and works on many rows at once, so its
    cost is per sample, nearly whatever the number of rows: one call on a
    large stack, or a list of them, is much cheaper than one call per
    small stack. It runs every section over one block of _BLOCK_SAMPLES
    samples of every row before the next block, reading and writing the
    rows where they lie, so beside ``out`` it holds only one settling
    length of each row and that block.
    """
    many = isinstance(series, list) and all(isinstance(s, np.ndarray) for s in series)
    xs = [np.asarray(s, dtype=float) for s in (series if many else [series])]
    for x in xs:
        if x.ndim == 0:
            raise ValueError("series must have at least one dimension, got a scalar")
        if x.shape[-1] < 3 * spec.order:
            raise ValueError(
                f"series too short: {x.shape[-1]} samples < 3x filter order ({3 * spec.order})"
            )
    if out is None:
        outs = [np.empty(x.shape) for x in xs]
    else:
        outs = list(out) if many else [out]
        if len(outs) != len(xs) or not all(
            isinstance(o, np.ndarray) and o.dtype == np.float64 and o.flags.c_contiguous
            and o.shape == x.shape
            for o, x in zip(outs, xs)
        ):
            raise ValueError("out must be C-contiguous float64 arrays of the input's shapes")
    sos, zi, settle = _design(spec, fs)
    pieces = []
    for x, o in zip(xs, outs):
        n = x.shape[-1]
        pieces.append((x.reshape(-1, n), o.reshape(-1, n), min(settle, n - 1)))
    if sum(len(rows) for rows, _, _ in pieces):
        _filter_rows(sos, zi, pieces)
    return outs if many else outs[0]


def short_channel_regress(long, short) -> np.ndarray:
    """Remove the superficial component measured by a short channel.

    Fits beta = <long - mean, short - mean> / <short - mean, short - mean>
    and subtracts beta * (short - mean(short)); the result is orthogonal to
    the demeaned short series. ``long`` and ``short`` are single series, or
    (k, samples) arrays regressed row by row, each row exactly as on its
    own: the rows are made C-contiguous and each inner product is one dot.
    """
    x = np.asarray(long, dtype=float)
    s = np.asarray(short, dtype=float)
    if x.shape != s.shape:
        raise ValueError(f"series lengths differ: {x.shape} vs {s.shape}")
    if x.ndim == 1:
        return short_channel_regress(x[None], s[None])[0]
    x, s = np.ascontiguousarray(x), np.ascontiguousarray(s)
    sd = s - s.mean(axis=-1, keepdims=True)
    out = x - x.mean(axis=-1, keepdims=True)
    beta = np.empty((len(x), 1))
    for i, (xi, si) in enumerate(zip(out, sd)):
        denom = float(si.dot(si))
        if denom == 0.0:
            raise ValueError("uninformative short channel: zero variance")
        beta[i] = float(xi.dot(si)) / denom
    # x - beta * sd, written over the demeaned rows.
    np.multiply(beta, sd, out=out)
    return np.subtract(x, out, out=out)


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
