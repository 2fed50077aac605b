"""Power-series arithmetic: Taylor coefficients of symbol powers and their
Dirichlet mass, the one place that takes it exactly or fits its remainder.

Coefficients of phi^k are recovered by sampling phi on a circle |z| = rho,
taking pointwise powers and inverting the discrete Fourier transform.  The
sampling radius balances two error sources that pull in opposite directions:
roundoff in the FFT is amplified by rho^-j, while aliasing of the degrees
beyond the sample count decays like rho^Q.  Every extraction is certified by
recomputing at a second radius and recording the worst term-wise
discrepancy; coefficients below the roundoff floor are flushed to exact
zeros so that polynomial symbols assemble exactly sparse matrices.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, tails
from .symbols import SymbolMap

__all__ = [
    "Space",
    "PowerSeries",
    "SeriesParams",
    "coefficients_of_power",
    "dirichlet_power_norms",
    "power_coefficient_table",
    "power_mass",
]

_LOG_EPS_BUDGET = math.log(1e16)  # digits spent between amplification and aliasing
_FLUSH_SAFETY = 64.0


class Space(enum.Enum):
    """The Dirichlet space and its origin-fixed subspace {f(0) = 0}."""

    DIRICHLET = "dirichlet"
    DIRICHLET_STAR = "dirichlet-star"


@dataclass(frozen=True)
class PowerSeries:
    """Finite coefficient vector c_0..c_M with an extraction certificate."""

    coeffs: np.ndarray
    sampling_radius: float
    error_bound: float
    aliasing_suspect: bool = False
    flushed: int = 0


@dataclass(frozen=True)
class SeriesParams:
    """Sampling plan for coefficient extraction.

    The default radius solves amplification * aliasing ~ machine epsilon:
    rho = 1 - log(1e16)/(M+Q), which keeps both error sources near 1e-14
    regardless of how slowly the true coefficients decay.
    """

    M: int
    rho: float | None = None
    Q: int | None = None

    def resolved(self) -> tuple[int, float, int]:
        M = int(self.M)
        if M < 0:
            raise ValueError("degree must be nonnegative")
        Q = self.Q or 1 << max(8, (8 * (M + 1) - 1).bit_length())
        if Q < 4 * (M + 1):
            raise ValueError("need at least 4(M+1) samples")
        rho = self.rho if self.rho is not None else 1.0 - _LOG_EPS_BUDGET / (M + Q)
        if not 0.0 < rho < 1.0:
            raise ValueError("sampling radius must lie in (0, 1)")
        if rho**M == 0.0:
            raise ValueError("degree overflow: rho^M underflows")
        return M, rho, Q


def _samples_on_circle(s: SymbolMap, rho: float, Q: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(Q) / Q
    return np.asarray(s.evaluate(rho * np.exp(1j * theta)), dtype=complex)


def power_coefficient_table(
    s: SymbolMap,
    k_max: int,
    params: SeriesParams,
):
    """Coefficients of phi^k, k = 1..k_max, as a (k_max, M+1) array.

    Returns (table, error_bounds, aliasing_flags, flush_counts).  Columns of
    the table are flushed to exact zero below the per-degree roundoff floor;
    error_bounds[k-1] holds the two-radius discrepancy plus that floor.
    """
    M, rho, Q = params.resolved()
    base = _samples_on_circle(s, rho, Q)
    rho2 = (1.0 + rho) / 2.0
    base2 = _samples_on_circle(s, rho2, Q)
    table = np.empty((k_max, M + 1), dtype=complex)
    err = np.empty(k_max)
    alias = np.zeros(k_max, dtype=bool)
    flushed = np.zeros(k_max, dtype=int)
    g = np.ones_like(base)
    g2 = np.ones_like(base)
    for k in range(1, k_max + 1):
        g = g * base
        c, floor = _coeffs_from_samples(g, M, rho)
        small = np.abs(c) < floor
        c[small] = 0.0
        flushed[k - 1] = int(small.sum())
        g2 = g2 * base2
        c2, _ = _coeffs_from_samples(g2, M, rho2)
        disc = float(np.abs(c - c2).max())
        colscale = max(float(np.abs(c).max()), 1e-300)
        alias[k - 1] = disc > 1e-6 * max(colscale, 1.0e-12)
        err[k - 1] = max(float(floor.max()), disc)
        table[k - 1] = c
    return table, err, alias, flushed


def _coeffs_from_samples(g: np.ndarray, M: int, rho: float):
    """(coefficients 0..M from circle samples of one function, roundoff floor)."""
    Q = len(g)
    scale = float(np.abs(g).max())
    c = np.fft.fft(g)[: M + 1] / Q
    amp = rho ** -np.arange(M + 1)
    floor = _FLUSH_SAFETY * np.finfo(float).eps * math.log2(Q) * scale * amp
    return c * amp, floor


def coefficients_of_power(
    s: SymbolMap,
    k: int,
    M: int,
    rho: float | None = None,
    Q: int | None = None,
) -> PowerSeries:
    """First M+1 Taylor coefficients of phi^k with a two-radius certificate."""
    if k < 1:
        raise ValueError("power must be >= 1")
    params = SeriesParams(M, rho, Q)
    _, rho_res, _ = params.resolved()
    table, err, alias, flushed = power_coefficient_table(s, k, params)
    return PowerSeries(
        table[k - 1],
        sampling_radius=rho_res,
        error_bound=float(err[k - 1]),
        aliasing_suspect=bool(alias[k - 1]),
        flushed=int(flushed[k - 1]),
    )


def power_mass(s: SymbolMap, table: np.ndarray):
    """(mass, beyond) of the powers phi^k whose coefficients 0..M are the rows
    of `table`: mass[k-1, j] = j |c_j|^2 and beyond[k-1] the Dirichlet mass of
    phi^k above degree M.  For a known image base that is the exact norm^2
    minus the retained mass (roundoff for a disk, whose powers end below M);
    otherwise the row's fitted remainder, infinite without summable decay or
    when the row is too short to fit.
    """
    j = np.arange(table.shape[1], dtype=float)
    mass = j * np.abs(table) ** 2
    exact = geometry.exact_power_norms(s, len(table))
    if exact is not None:
        return mass, np.maximum(exact**2 - mass.sum(axis=1), 0.0)
    if table.shape[1] < tails.MIN_TERMS:
        return mass, np.full(len(table), math.inf)
    return mass, np.array([tails.tail_remainder(row).remainder for row in mass])


def dirichlet_power_norms(s: SymbolMap, n_max: int, M: int | None = None):
    """Dirichlet norms of phi^k, k = 1..n_max, and their error bounds.

    A known image base gives them exactly (`geometry.exact_power_norms`, no
    extraction; for the cusp region this reaches mass far beyond any
    practical degree).  Otherwise the norms are sqrt(sum_j j |c_j|^2) up to
    degree M, and the bounds carry the extraction noise through that form
    plus the root of the mass beyond M (`power_mass`).
    """
    norms = geometry.exact_power_norms(s, n_max)
    if norms is not None:
        return norms, np.full(n_max, 1e-13)
    M = M if M is not None else max(64, 4 * n_max)
    table, err, _, _ = power_coefficient_table(s, n_max, SeriesParams(M))
    mass, beyond = power_mass(s, table)
    return np.sqrt(mass.sum(axis=1)), err * math.sqrt(M * (M + 1) / 2) + np.sqrt(beyond)
