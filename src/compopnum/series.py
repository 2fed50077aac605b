"""Power-series arithmetic: Taylor coefficients of symbol powers and their
Dirichlet mass, the one place that takes the mass beyond the retained
degree: exactly for a known image (`geometry.image_of`), 0 for a polynomial
power that the degree holds whole, and otherwise infinite, as unproved.

Coefficients of phi^k come from one FFT of the k-th power of samples of phi
on one circle |z| = rho, chosen to balance roundoff, amplified by rho^-j,
against aliasing, which decays like rho^Q.  Their error bounds are a priori:

* aliasing, at most A = rho^Q/(1 - rho^Q) as self-map powers have
  |c_m| <= 1: a property of the plan alone, like the aliasing flag (proved);
* FFT roundoff, in l2 about 4 log2(Q) eps max|g| (Higham, Accuracy and
  Stability of Numerical Algorithms, Thm 24.2), below the flush floor
  64 log2(Q) eps max|g| rho^-j; coefficients below the floor become exact
  zeros, so polynomial symbols assemble exactly sparse (proved);
* evaluation, in l2 by Parseval at most k _EVAL_ULPS eps max|g| for the
  k-fold product of samples, resting on the measured `_EVAL_ULPS`.

Powers are transformed in blocks of `_POWER_BLOCK` rows, one FFT call per
block, each built in one work buffer that every block reuses.  A symbol with
real coefficients (`SymbolMap.real_coefficients`) is sampled on the upper
half-circle only, the Q/2+1 angles in [0, pi], and its
table is real: phi(rho e^{-i theta}) is the conjugate of phi(rho e^{i theta}),
so the inverse real FFT of the conjugated half samples is the full-circle
transform.  The bounds carry over unchanged: each implied lower-half sample
carries the same error as its mirror, |g| is symmetric so the peaks are the
same, and dropping an imaginary part whose true value is 0 can only lower
the error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .symbols import SymbolMap

__all__ = [
    "Space",
    "SeriesParams",
    "dirichlet_power_norms",
    "power_coefficient_table",
    "power_mass",
]

_LOG_EPS_BUDGET = math.log(1e16)  # digits spent between amplification and aliasing
_FLUSH_SAFETY = 64.0
_EPS = float(np.finfo(float).eps)
# bound on a sample's error in ulps, at its rounded point against mpmath at
# the exact angle; measured worst, the cusp's tip: 9.3 (M=64) to 164 (M=8192)
_EVAL_ULPS = 1024.0
_ALIASING_LIMIT = 1e-6  # of the coefficient scale |c_m| <= 1; flags the plan
# powers per FFT call, built in one work buffer that every block reuses: a
# fresh 2 MB block per call (Q = 32768) was handed back to the kernel and
# faulted in again, ~170k page faults for the N = 1024 cusp table; blocks of
# 4 in the same buffers churned again, so re-measure before changing this
_POWER_BLOCK = 8


class Space(enum.Enum):
    """The Dirichlet space and its origin-fixed subspace {f(0) = 0}."""

    DIRICHLET = "dirichlet"
    DIRICHLET_STAR = "dirichlet-star"


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
        Q = self.Q if self.Q is not None else 1 << max(8, (8 * (M + 1) - 1).bit_length())
        if Q < 4 * (M + 1):
            raise ValueError("need at least 4(M+1) samples")
        rho = self.rho if self.rho is not None else 1.0 - _LOG_EPS_BUDGET / (M + Q)
        if not 0.0 < rho < 1.0:
            raise ValueError("sampling radius must lie in (0, 1)")
        if rho**M == 0.0:
            raise ValueError("degree overflow: rho^M underflows")
        return M, rho, Q

    @property
    def aliasing_bound(self) -> float:
        """rho^Q/(1 - rho^Q): sum over l >= 1 of rho^(lQ) |c_(j+lQ)|, |c| <= 1."""
        _, rho, Q = self.resolved()
        return rho**Q / (1.0 - rho**Q)

    @property
    def aliasing_suspect(self) -> bool:
        return self.aliasing_bound > _ALIASING_LIMIT

    def error_bounds(self, peaks: np.ndarray) -> np.ndarray:
        """Bound on every coefficient of phi^k whose samples peak at modulus
        peaks[k-1]: twice the flush floor at M, evaluation and aliasing."""
        M, rho, Q = self.resolved()
        ulps = 2.0 * _FLUSH_SAFETY * math.log2(Q) + np.arange(1, len(peaks) + 1) * _EVAL_ULPS
        return ulps * _EPS * peaks * rho**-M + self.aliasing_bound


def power_coefficient_table(s: SymbolMap, k_max: int, params: SeriesParams):
    """Coefficients of phi^k, k = 1..k_max, as a (k_max, M+1) array with
    exact zeros below the roundoff floor, and each power's peak modulus on
    the circle, which `SeriesParams.error_bounds` turns into its bound.  The
    table is real for a symbol with real coefficients, else complex."""
    M, rho, Q = params.resolved()
    real = s.real_coefficients
    theta = 2.0 * np.pi * np.arange(Q // 2 + 1 if real else Q) / Q
    base = np.asarray(s.evaluate(rho * np.exp(1j * theta)), dtype=complex)
    amp = rho ** -np.arange(M + 1)
    table = np.empty((k_max, M + 1), dtype=float if real else complex)
    peaks = np.empty(k_max)
    work = np.empty((min(_POWER_BLOCK, k_max), base.size), dtype=complex)
    mod = np.empty(work.shape)
    g = np.ones_like(base)  # the last power built, kept apart from `work`
    for start in range(0, k_max, _POWER_BLOCK):
        stop = min(start + _POWER_BLOCK, k_max)
        block, rows = work[: stop - start], table[start:stop]
        power = g
        for row in block:
            power = np.multiply(power, base, out=row)
        g[:] = power
        np.abs(block, out=mod[: len(block)]).max(axis=1, out=peaks[start:stop])
        # the transform's returned array is the one allocation left per block:
        # its out= needs numpy >= 2.0
        if real:
            c = np.fft.irfft(np.conjugate(block, out=block), Q, axis=1)
            np.multiply(c[:, : M + 1], amp, out=rows)
        else:
            np.divide(np.fft.fft(block, axis=1)[:, : M + 1], Q, out=rows)
            rows *= amp
        floor = (_FLUSH_SAFETY * _EPS * math.log2(Q) * peaks[start:stop])[:, None] * amp
        rows[np.abs(rows) < floor] = 0.0
    return table, peaks


def power_mass(s: SymbolMap, table: np.ndarray):
    """(mass, beyond) of the powers phi^k whose coefficients 0..M are the rows
    of `table`: mass[k-1, j] = j |c_j|^2 and beyond[k-1] the Dirichlet mass of
    phi^k above degree M.  For a known image base that is the exact norm^2
    minus the retained mass; otherwise it is infinite, as no bound on it is
    proved.  Either way it is 0 when phi is a polynomial of degree d
    (`SymbolMap.degree`, read off the parameters) and k d <= M: the
    difference would be roundoff.
    """
    j = np.arange(table.shape[1], dtype=float)
    mass = np.abs(table)  # j |c_j|^2 in place: no table-sized temporaries
    mass *= mass
    mass *= j
    image = geometry.image_of(s)
    if image is not None:
        beyond = np.maximum(image.power_norms(len(table)) ** 2 - mass.sum(axis=1), 0.0)
    else:
        beyond = np.full(len(table), math.inf)
    if s.degree is not None:
        beyond[np.arange(1, len(table) + 1) * s.degree < table.shape[1]] = 0.0
    return mass, beyond


def dirichlet_power_norms(s: SymbolMap, n_max: int, M: int | None = None):
    """Dirichlet norms of phi^k, k = 1..n_max, from the coefficients, and
    their error bounds; the exact norms of a known image are
    `geometry.Image.power_norms`, with no extraction.

    The norms are sqrt(sum_j j |c_j|^2) up to degree M, and the bounds add
    the root of the mass beyond M (`power_mass`) to the coefficient errors
    in that norm: roundoff and evaluation at sqrt(M) rho^-M times their l2
    bounds, flushing at sqrt(j) times each floor, aliasing of the mass above
    Q at A/2 times that root (Cauchy-Schwarz), so the bounds are infinite
    wherever that mass is.
    """
    M = M if M is not None else max(64, 4 * n_max)
    params = SeriesParams(M)
    _, rho, Q = params.resolved()
    table, peaks = power_coefficient_table(s, n_max, params)
    mass, beyond = power_mass(s, table)
    fft, k = _FLUSH_SAFETY * math.log2(Q), np.arange(1, n_max + 1)
    ulps = math.sqrt(M) * (fft + k * _EVAL_ULPS) + math.sqrt(M * (M + 1) / 2) * fft
    bounds = ulps * _EPS * peaks * rho**-M + (1.0 + params.aliasing_bound / 2) * np.sqrt(beyond)
    return np.sqrt(mass.sum(axis=1)), bounds
