"""Optical density conversion and the modified Beer-Lambert inversion.

Raw intensities become optical densities (OD) against the mean of each
series; a two-wavelength OD pair, one (2, ..., samples) array with the
wavelengths on its first axis, is then inverted, per sample, into the
(2, ..., samples) pair of oxy- and deoxy-hemoglobin concentration changes
(mol/L) by solving the 2x2 extinction system. Extinction coefficients and differential pathlength
factors are configuration: the shipped defaults are commonly used literature
values for 760/850 nm, another table is an ``ExtinctionTable(entries=...,
dpf=...)`` built directly, and correctness is established by forward/inverse
round trips rather than by any specific table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExtinctionTable",
    "default_extinction_table",
    "intensity_to_od",
    "mbll_invert",
    "mbll_forward",
]

# Determinant threshold, relative to the matrix scale, below which the
# two-wavelength system is treated as singular.
_SINGULAR_REL_TOL = 1e-12


@dataclass(frozen=True)
class ExtinctionTable:
    """Molar extinction coefficients (L mol^-1 cm^-1) and DPF per wavelength."""

    entries: dict[float, tuple[float, float]]  # wavelength_nm -> (eps_hbo, eps_hbr)
    dpf: dict[float, float] = field(default_factory=dict)

    def __post_init__(self):
        for wl, (eps_hbo, eps_hbr) in self.entries.items():
            if eps_hbo <= 0 or eps_hbr <= 0:
                raise ValueError(
                    f"extinction coefficients must be positive at {wl} nm: "
                    f"({eps_hbo}, {eps_hbr})"
                )
        for wl, d in self.dpf.items():
            if d <= 0:
                raise ValueError(f"DPF must be positive at {wl} nm: {d}")

    def eps(self, wavelength_nm: float) -> tuple[float, float]:
        try:
            return self.entries[wavelength_nm]
        except KeyError:
            raise KeyError(
                f"wavelength {wavelength_nm} nm not in extinction table "
                f"(have {sorted(self.entries)})"
            ) from None

    def pathlength_factor(self, wavelength_nm: float) -> float:
        return self.dpf.get(wavelength_nm, 6.0)

    def extinction_matrix(self, wl1: float, wl2: float) -> np.ndarray:
        """2x2 matrix of extinction coefficients, rows = wavelengths."""
        e1 = self.eps(wl1)
        e2 = self.eps(wl2)
        return np.array([e1, e2], dtype=float)


def default_extinction_table() -> ExtinctionTable:
    """Commonly used literature extinction values at 760 and 850 nm, DPF 6."""
    return ExtinctionTable(
        entries={
            760.0: (586.0, 1548.52),
            850.0: (1058.0, 691.32),
        },
        dpf={760.0: 6.0, 850.0: 6.0},
    )


def intensity_to_od(intensity) -> np.ndarray:
    """Convert a positive intensity series, or each row of a (channels,
    samples) array of them, to optical density.

    od[t] = -ln(intensity[t] / mean), with the mean of each series, so a
    constant series maps to zero OD. The rows of an array are made
    C-contiguous first, so each mean sums its samples in the same order as
    it does for the series alone.
    """
    x = np.asarray(intensity, dtype=float)
    if x.size == 0:
        raise ValueError("intensity series is empty")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("intensity samples must be finite and strictly positive")
    x = np.ascontiguousarray(x)
    od = np.divide(x, x.mean(axis=-1, keepdims=True))
    np.log(od, out=od)
    return np.negative(od, out=od)


def _solve_matrix(
    wl1: float, wl2: float, distance_m: float, table: ExtinctionTable
) -> np.ndarray:
    if distance_m <= 0:
        raise ValueError(f"source-detector distance must be positive, got {distance_m}")
    ext = table.extinction_matrix(wl1, wl2)
    # Effective pathlength in cm: extinction tables are per cm.
    path_cm = np.array(
        [
            distance_m * 100.0 * table.pathlength_factor(wl1),
            distance_m * 100.0 * table.pathlength_factor(wl2),
        ]
    )
    m = ext * path_cm[:, None]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    scale = np.abs(m).max()
    if scale == 0 or abs(det) < _SINGULAR_REL_TOL * scale * scale:
        raise ValueError(
            f"extinction matrix is singular for wavelengths ({wl1}, {wl2}) nm"
        )
    return m


def _pair(x, what: str) -> np.ndarray:
    """``x`` as a (2, ..., samples) float array: one array or two of one shape."""
    try:
        pair = np.asarray(x, dtype=float)
    except ValueError as e:  # two arrays of different shapes
        raise ValueError(f"{what} series lengths differ: {e}") from None
    if pair.ndim < 2 or pair.shape[0] != 2:
        raise ValueError(f"{what} must be a (2, ..., samples) pair, got shape {pair.shape}")
    return pair


def _per_channel(pair, wavelengths_nm, distance_m, table, invert: bool) -> np.ndarray:
    """Each channel's 2x2 extinction system, or its inverse, times that
    channel's (2, samples) slice of the (2, ..., samples) ``pair``, with
    ``distance_m`` one distance or one per channel. One 2x2 @ (2, samples)
    product per channel, as for a single series, so each channel comes out
    exactly as it does on its own."""
    distances = np.broadcast_to(np.asarray(distance_m, dtype=float), pair.shape[1:-1])
    per_channel = distances.ravel().tolist()
    matrix = {}
    for d in dict.fromkeys(per_channel):
        m = _solve_matrix(wavelengths_nm[0], wavelengths_nm[1], d, table)
        matrix[d] = np.linalg.inv(m) if invert else m
    systems = np.array([matrix[d] for d in per_channel]).reshape(distances.shape + (2, 2))
    return np.moveaxis(np.matmul(systems, np.stack(pair, axis=-2)), -2, 0)


def mbll_invert(
    od_pair,
    wavelengths_nm: tuple[float, float],
    distance_m,
    table: ExtinctionTable,
) -> np.ndarray:
    """Invert two-wavelength OD changes into the (hbo, hbr) pair in mol/L.

    Solves, per sample, od(wl_i) = eps_hbo(wl_i)*dHbO + eps_hbr(wl_i)*dHbR
    scaled by distance and DPF. Exact 2x2 solve; raises on a singular
    extinction matrix. ``od_pair`` is a (2, samples) or (2, channels,
    samples) array in ``wavelengths_nm`` order, or a tuple of the two, with
    ``distance_m`` one distance or one per channel; the result has the same
    shape, hbo first, and each channel comes out exactly as it does on its
    own.
    """
    return _per_channel(_pair(od_pair, "OD"), wavelengths_nm, distance_m, table, invert=True)


def mbll_forward(
    hemo,
    wavelengths_nm: tuple[float, float],
    distance_m,
    table: ExtinctionTable,
) -> np.ndarray:
    """Forward-model the (hbo, hbr) pair of concentration changes (mol/L),
    a (2, samples) or (2, channels, samples) array or a tuple of the two,
    into the OD pair of the same shape, with ``distance_m`` one distance or
    one per channel; each channel comes out exactly as it does on its own."""
    return _per_channel(_pair(hemo, "hbo/hbr"), wavelengths_nm, distance_m, table, invert=False)
