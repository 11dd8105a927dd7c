"""Optical density conversion and the modified Beer-Lambert inversion.

Raw intensities become optical densities (OD) against a reference level;
paired two-wavelength OD series are then inverted, per sample, into oxy- and
deoxy-hemoglobin concentration changes (mol/L) by solving the 2x2 extinction
system. Extinction coefficients and differential pathlength factors are
configuration: the shipped defaults are commonly used literature values for
760/850 nm, and correctness is established by forward/inverse round trips
rather than by any specific table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

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

    @classmethod
    def from_csv(cls, path: str | Path) -> "ExtinctionTable":
        """Load a table from CSV columns wavelength_nm,eps_hbo,eps_hbr,dpf."""
        entries: dict[float, tuple[float, float]] = {}
        dpf: dict[float, float] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            required = {"wavelength_nm", "eps_hbo", "eps_hbr", "dpf"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ValueError(
                    f"{path}: extinction CSV must have columns {sorted(required)}"
                )
            for row in reader:
                wl = float(row["wavelength_nm"])
                entries[wl] = (float(row["eps_hbo"]), float(row["eps_hbr"]))
                dpf[wl] = float(row["dpf"])
        return cls(entries=entries, dpf=dpf)


def default_extinction_table() -> ExtinctionTable:
    """Commonly used literature extinction values at 760 and 850 nm, DPF 6."""
    return ExtinctionTable(
        entries={
            760.0: (586.0, 1548.52),
            850.0: (1058.0, 691.32),
        },
        dpf={760.0: 6.0, 850.0: 6.0},
    )


def intensity_to_od(intensity, reference: float | None = None) -> np.ndarray:
    """Convert a positive intensity series, or each row of a (channels,
    samples) array of them, to optical density.

    od[t] = -ln(intensity[t] / reference); the reference defaults to the
    mean of each series, so a constant series maps to zero OD. The rows of
    an array are made C-contiguous first, so each mean sums its samples in
    the same order as it does for the series alone.
    """
    x = np.asarray(intensity, dtype=float)
    if x.size == 0:
        raise ValueError("intensity series is empty")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("intensity samples must be finite and strictly positive")
    if reference is None:
        x = np.ascontiguousarray(x)
        ref = x.mean(axis=-1, keepdims=True)
    else:
        ref = float(reference)
        if ref <= 0:
            raise ValueError(f"reference must be strictly positive, got {ref}")
    od = np.divide(x, ref)
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


def mbll_invert(
    od_pair: tuple[np.ndarray, np.ndarray],
    wavelengths_nm: tuple[float, float],
    distance_m,
    table: ExtinctionTable,
) -> tuple[np.ndarray, np.ndarray]:
    """Invert two-wavelength OD changes into (delta_hbo, delta_hbr) in mol/L.

    Solves, per sample, od(wl_i) = eps_hbo(wl_i)*dHbO + eps_hbr(wl_i)*dHbR
    scaled by distance and DPF. Exact 2x2 solve; raises on a singular
    extinction matrix. The two OD arrays are single series, or (channels,
    samples) arrays with ``distance_m`` one distance or one per channel;
    each channel comes out exactly as it does on its own.
    """
    od1 = np.asarray(od_pair[0], dtype=float)
    od2 = np.asarray(od_pair[1], dtype=float)
    if od1.shape != od2.shape:
        raise ValueError(f"OD series lengths differ: {od1.shape} vs {od2.shape}")
    distances = np.broadcast_to(np.asarray(distance_m, dtype=float), od1.shape[:-1])
    per_channel = distances.ravel().tolist()
    inverse = {
        d: np.linalg.inv(_solve_matrix(wavelengths_nm[0], wavelengths_nm[1], d, table))
        for d in dict.fromkeys(per_channel)
    }
    inv = np.array([inverse[d] for d in per_channel])
    # One 2x2 @ (2, samples) product per channel, as for a single series.
    conc = np.matmul(inv.reshape(distances.shape + (2, 2)), np.stack([od1, od2], axis=-2))
    return conc[..., 0, :], conc[..., 1, :]


def mbll_forward(
    hbo: np.ndarray,
    hbr: np.ndarray,
    wavelengths_nm: tuple[float, float],
    distance_m: float,
    table: ExtinctionTable,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-model concentration changes (mol/L) into two OD series."""
    hbo = np.asarray(hbo, dtype=float)
    hbr = np.asarray(hbr, dtype=float)
    if hbo.shape != hbr.shape:
        raise ValueError(f"hbo/hbr lengths differ: {hbo.shape} vs {hbr.shape}")
    m = _solve_matrix(wavelengths_nm[0], wavelengths_nm[1], distance_m, table)
    od = m @ np.vstack([hbo, hbr])
    return od[0], od[1]
