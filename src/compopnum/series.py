"""Power-series arithmetic: Taylor coefficients of symbol powers and
space-tagged norms.

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
    "space_norm",
    "dirichlet_power_norms",
    "power_coefficient_table",
]

_LOG_EPS_BUDGET = math.log(1e16)  # digits spent between amplification and aliasing
_FLUSH_SAFETY = 64.0


class Space(enum.Enum):
    DIRICHLET = "dirichlet"
    DIRICHLET_STAR = "dirichlet-star"
    HARDY = "hardy"
    BERGMAN = "bergman"


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
    certify: bool = True,
):
    """Coefficients of phi^k, k = 1..k_max, as a (k_max, M+1) array.

    Returns (table, error_bounds, aliasing_flags, flush_counts).  Columns of
    the table are flushed to exact zero below the per-degree roundoff floor;
    error_bounds[k-1] holds the two-radius discrepancy plus that floor.
    """
    M, rho, Q = params.resolved()
    base = _samples_on_circle(s, rho, Q)
    rho2 = (1.0 + rho) / 2.0
    base2 = _samples_on_circle(s, rho2, Q) if certify else None
    table = np.empty((k_max, M + 1), dtype=complex)
    err = np.empty(k_max)
    alias = np.zeros(k_max, dtype=bool)
    flushed = np.zeros(k_max, dtype=int)
    g = np.ones_like(base)
    g2 = np.ones_like(base) if certify else None
    for k in range(1, k_max + 1):
        g = g * base
        c, floor = _coeffs_from_samples(g, M, rho)
        small = np.abs(c) < floor
        c[small] = 0.0
        flushed[k - 1] = int(small.sum())
        bound = float(floor.max())
        if certify:
            g2 = g2 * base2
            c2, _ = _coeffs_from_samples(g2, M, rho2)
            disc = float(np.abs(c - c2).max())
            colscale = max(float(np.abs(c).max()), 1e-300)
            alias[k - 1] = disc > 1e-6 * max(colscale, 1.0e-12)
            bound = max(bound, disc)
        err[k - 1] = bound
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


def space_norm(f: PowerSeries | np.ndarray, space: Space) -> float:
    """Coefficient-formula norm in the requested space."""
    coeffs = f.coeffs if isinstance(f, PowerSeries) else np.asarray(f)
    mags = np.abs(coeffs) ** 2
    n = np.arange(len(coeffs))
    if space in (Space.DIRICHLET, Space.DIRICHLET_STAR):
        if space is Space.DIRICHLET_STAR and isinstance(f, PowerSeries):
            if abs(coeffs[0]) > max(f.error_bound, 1e-12):
                raise ValueError("origin-fixed space requires a vanishing constant term")
        w = n.astype(float)
        w[0] = 1.0  # |c_0|^2 term
        return math.sqrt(float(np.dot(w, mags)))
    if space is Space.HARDY:
        return math.sqrt(float(mags.sum()))
    if space is Space.BERGMAN:
        return math.sqrt(float((mags / (n + 1.0)).sum()))
    raise ValueError(f"unknown space {space}")


def dirichlet_power_norms(
    s: SymbolMap,
    n_max: int,
    M: int | None = None,
    rho: float | None = None,
    Q: int | None = None,
    method: str = "auto",
):
    """Dirichlet norms of phi^k, k = 1..n_max.

    method "coefficients" sums j |c_j|^2 from the extracted series (error
    bounds propagated from the extraction certificates); "region" uses the
    exact change-of-variable integral over the image region, available when
    the image is a scaled cusp region, where power norms carry Taylor mass
    far beyond any practical truncation degree; "auto" picks "region"
    whenever it is available.

    Returns (norms, error_bounds) as arrays of length n_max.
    """
    if method not in ("auto", "region", "coefficients"):
        raise ValueError(f"unknown method {method!r}")
    if method != "coefficients":
        norms = geometry.exact_power_norms(s, n_max)
        if norms is not None:
            return norms, np.full(n_max, 1e-13)
        if method == "region":
            raise ValueError("region norms need an image that is a scaled cusp region")
    params = SeriesParams(M if M is not None else max(64, 4 * n_max), rho, Q)
    Mr, _, _ = params.resolved()
    table, err, alias, _ = power_coefficient_table(s, n_max, params)
    j = np.arange(Mr + 1, dtype=float)
    mass = j[None, :] * np.abs(table) ** 2
    norms = np.sqrt(np.maximum(mass.sum(axis=1), 0.0))
    # per-entry error: coefficient noise through the quadratic form, plus the
    # extrapolated Dirichlet mass above the retained degree
    bound = np.empty(n_max)
    for k in range(n_max):
        noise = err[k] * math.sqrt(float(j.sum()))
        tail = tails.tail_remainder(mass[k], allow_divergent=True).remainder
        if not math.isfinite(tail):
            tail = norms[k] ** 2  # no decay visible: mass beyond M unknown
        bound[k] = noise + math.sqrt(max(tail, 0.0))
    return norms, bound
