"""Truncated matrices of composition operators and certified singular values.

In the origin-fixed Dirichlet space the monomials z^k/sqrt(k) form an
orthonormal basis, and the operator column for basis index k is the
coefficient vector of phi^k scaled by sqrt(j/k).  Compressions onto the
first N basis vectors have singular values that increase monotonically with
N toward the approximation numbers; the distance to the full operator is
controlled by two Hilbert-Schmidt tails (discarded columns and discarded
rows) plus the coefficient-extraction noise.

When the image is factor * base for a known base (the unit disk or the
cusp region, see `geometry.image_of`), the column tail is a closed form of
the image integral and no power beyond N is extracted.  The row tail takes
each power's mass beyond the retained degree from `series.power_mass`,
exact for a known base; other symbols' column tails sum the power norms plus
their bounds (`dirichlet_power_norms`) to 4 max(N, 16) and fit the remainder.

`retained_degree` is the one rule for the default degree M: N for a known
image base, whose exact row tail ||phi^k||^2 - sum_{j <= N} j |c_j|^2 needs
no coefficient above the matrix, and 2N otherwise, where rows N+1..2N feed
the fitted remainder.  Retaining 2N for a known base would compute, store
and sum rows N+1..2N only for them to cancel against the exact norm.

Two certificates are attached to every spectrum:

* a perturbation radius, hs_tail + row_tail + assembly_error + dropped,
  valid for every entry (singular values are 1-Lipschitz in the operator
  norm; `series` proves assembly_error but for the evaluation accuracy).
  The last term is the Frobenius norm of the trailing columns the SVD
  skips, at most VALUE_FLOOR * eps: by Weyl's inequality dropping them
  moves no value by more, and the entries past the kept columns read 0.0
  within the radius (1.7e-28 for the cusp at N = 1024, which keeps 255 of
  its 1024 columns).  It is
  rigorous for a known image base; otherwise the tails rest on the
  least-squares fits of `tails.tail_remainder`, and the radius is an
  estimate until proved majorants replace them: for the cusp written as a
  twice-applied Moebius involution at M = 64, the exact power norms exceed
  the fitted norms plus bounds by 8-74% on rows 7-12;
* an empirical stability radius per entry, the change of the value when the
  truncation is halved.  It is an indicator, not a bound, and it can miss
  slow convergence: the cusp at N = 1024 marks n = 13 stable with radius
  2.3e-4, yet its value 4.6938e-3 lies 1.0e-2 below sigma_13(C P_1024) =
  1.4844e-2 (`geometry.region_gram_singular_values`), a ratio of 0.316
  (0.656 at n = 8).  For symbols whose power norms decay slowly (the cusp)
  the rigorous radius is honest but large, and the stability radius is
  what delimits the usable range; both are reported, neither is guessed.

A symbol with real coefficients (`SymbolMap.real_coefficients`) has a real
coefficient table, hence a real matrix, and its singular values come from a
real SVD.

`SingularSpectrum` owns every rule about usable entries: `VALUE_FLOOR`, the
certification floor max(VALUE_FLOOR, 2 radius) and the reliable range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, tails
from .series import Space, SeriesParams, dirichlet_power_norms
from .series import power_coefficient_table, power_mass
from .symbols import SymbolMap

__all__ = [
    "OperatorMatrix",
    "SingularSpectrum",
    "assemble",
    "retained_degree",
    "singular_spectrum",
    "hs_tail_bound",
    "VALUE_FLOOR",
]

# smallest singular value any consumer reads; every tier lies above it
VALUE_FLOOR = 1e-12
# trailing columns of smaller combined norm move no value >= VALUE_FLOOR by
# more than eps relative (Weyl), so the SVD skips them
_COLUMN_CUT = VALUE_FLOOR * np.finfo(float).eps


@dataclass(frozen=True)
class OperatorMatrix:
    """N x N (or (N+1) x (N+1) with the constant direction) truncation."""

    entries: np.ndarray
    N: int
    hs_tail: float
    row_tail: float
    assembly_error: float
    column_tail_fit: tails.TailFit  # the closed form or fit behind hs_tail
    params: SeriesParams  # the sampling plan the coefficients came from

    @property
    def truncation_norm_bound(self) -> float:
        """Bound on the distance between the full operator and the
        compression, hence on every singular value error."""
        return self.hs_tail + self.row_tail + self.assembly_error


@dataclass(frozen=True)
class SingularSpectrum:
    """Nonincreasing singular values, one rigorous error radius for all and
    per-entry stability radii (the change under halved truncation)."""

    values: np.ndarray
    radius: float
    stability_radii: np.ndarray | None = None
    columns: int | None = None  # K, the leading columns the values come from
    dropped: float = 0.0  # norm of the columns it skipped, already in radius

    @property
    def certification_floor(self) -> float:
        """Values at or above it exceed twice their rigorous error."""
        return max(VALUE_FLOOR, 2.0 * self.radius) if math.isfinite(self.radius) else math.inf

    @property
    def certified(self) -> np.ndarray:
        return self.values >= self.certification_floor

    @property
    def stable(self) -> np.ndarray:
        """Entries above the floor changing under 5 percent when halved."""
        if self.stability_radii is None:
            return self.certified
        ok = self.values >= VALUE_FLOOR
        return ok & (self.stability_radii <= 0.05 * self.values)

    def reliable_range(self) -> np.ndarray:
        """Indices n (1-based) usable for fits and probes: the entries
        certified with a tenfold margin when there are at least 20 of them,
        else the stable tier."""
        cert = self.certified & (self.values >= 10.0 * self.certification_floor)
        mask = cert if cert.sum() >= 20 else self.stable
        return np.nonzero(mask)[0] + 1


def _column_tail(s: SymbolMap, n: int):
    """(sqrt(sum_{k >= n} ||phi^k||_D^2 / k), how its remainder was found).

    A known image base gives the whole sum in closed form (model
    "closed-form:<base>").  Otherwise the norms at the top of their error
    bounds (`dirichlet_power_norms`, the mass beyond degree 2 k_max
    included) are summed to k_max = 4 max(n - 1, 16), whatever a matrix
    retains, and the remainder is fitted: infinite without summable decay.
    """
    image = geometry.image_of(s)
    if image is not None:
        return image.column_tail(n), tails.TailFit(f"closed-form:{image.base.name}", 0.0, 0.0)
    k_max = 4 * max(n - 1, 16)
    norms, bounds = dirichlet_power_norms(s, k_max, M=2 * k_max)
    t = (norms + bounds) ** 2 / np.arange(1, k_max + 1)
    fit = tails.tail_remainder(t)
    return math.sqrt(float(t[n - 1 :].sum()) + fit.remainder), fit


def hs_tail_bound(s: SymbolMap, n: int) -> float:
    """sqrt(sum_{k >= n} ||phi^k||_D^2 / k), in closed form for a known image
    base and otherwise by `_column_tail`'s plan, which `assemble` shares.

    Bounds the n-th approximation number from above (rank n-1 truncation of
    the coefficient expansion).  Returns math.inf for non-compact symbols:
    disk automorphisms, and power norms whose tail fit diverges.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    return _column_tail(s, n)[0]


def retained_degree(s: SymbolMap, N: int) -> int:
    """Default retained degree M of an N x N truncation: N when phi has an
    `Image` (`power_mass` then takes each row's mass beyond N exactly), else
    2N for the remainder fits.  Q/(M+1) does not depend on the choice, so
    rho^-M and the aliasing rho^Q are the same either way."""
    return N if geometry.image_of(s) is not None else 2 * N


def assemble(
    s: SymbolMap,
    N: int,
    space: Space = Space.DIRICHLET_STAR,
    series_params: SeriesParams | None = None,
) -> OperatorMatrix:
    """Truncated operator matrix with tail certificates.

    The origin-fixed basis requires phi(0) = 0; otherwise use the full
    Dirichlet space, which prepends the constant direction (fixed by the
    operator) as basis index 0.  Without `series_params` the coefficients
    are retained to `retained_degree(s, N)`.

    The row tail is taken before the matrix is built, so the table's mass
    array is gone by then; the matrix is one array, sqrt(j/k) formed in
    place in its power block and multiplied by the table.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if space is Space.DIRICHLET_STAR and not s.fixes_origin:
        raise ValueError("origin-fixed basis needs phi(0) = 0; use the Dirichlet space")
    params = series_params or SeriesParams(M=retained_degree(s, N))
    M, rho, Q = params.resolved()
    if M < N:
        raise ValueError("retained degree must reach the truncation size")
    if params.aliasing_suspect:
        raise ArithmeticError("sampling plan is aliasing-suspect; refusing to certify")
    table, peaks = power_coefficient_table(s, N, params)
    j = np.arange(1, N + 1, dtype=float)
    k = np.arange(1, N + 1, dtype=float)

    # row tail: mass of phi^k, k <= N, above the retained rows
    mass, beyond = power_mass(s, table)  # [k, j], [k]
    row_tail = math.sqrt(float(((mass[:, N + 1 :].sum(axis=1) + beyond) / k).sum()))
    del mass

    # the constant direction, when the space has it, is basis index 0
    c = int(space is Space.DIRICHLET)
    A = np.zeros((N + c, N + c), dtype=table.dtype)
    core = A[c:, c:]  # [j, k]; a complex core's real part is a view too
    np.divide(j[:, None], k[None, :], out=core.real)
    np.sqrt(core.real, out=core.real)
    core *= table[:, 1 : N + 1].T
    if c:
        A[0, 0] = 1.0
        A[0, 1:] = table[:, 0] / np.sqrt(k)

    # column tail: discarded basis vectors k > N
    hs_tail, column_fit = _column_tail(s, N + 1)
    if space is Space.DIRICHLET:
        # each discarded column k also has |phi(0)|^(2k)/k in the constant
        # row: sum_{k > N} x^k / k <= x^(N+1) / ((N+1)(1-x)), x = |phi(0)|^2
        x = abs(s.origin) ** 2
        const = x ** (N + 1) / ((N + 1) * (1.0 - x)) if x < 1.0 else math.inf
        hs_tail = math.sqrt(hs_tail**2 + const)

    # coefficient-noise aggregate: per-entry error sqrt(j/k) err_k, Frobenius;
    # the constant row's entries c_0(phi^k)/sqrt(k) carry err_k/sqrt(k)
    w_rows = float(j.sum()) + (space is Space.DIRICHLET)
    assembly_error = math.sqrt(float((params.error_bounds(peaks) ** 2 * w_rows / k).sum()))

    return OperatorMatrix(
        entries=A,
        N=N,
        hs_tail=hs_tail,
        row_tail=row_tail,
        assembly_error=assembly_error,
        column_tail_fit=column_fit,
        params=params,
    )


def _is_exact_diagonal(A: np.ndarray) -> bool:
    return np.count_nonzero(A) == np.count_nonzero(A.diagonal())


def _values_of(A: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(singular values, columns K the SVD ran on, norm of the columns dropped).

    Columns K.. have a combined Frobenius norm at most `_COLUMN_CUT` and are
    dropped: by Weyl's inequality the values of A[:, :K] are A's to within
    that norm, and entries past K read exactly 0.0, the cut matrix's own.
    K is the full width when no tail is that small, and 0 skips the SVD.
    """
    if _is_exact_diagonal(A):
        # exact singular values of a diagonal matrix; preserves tiny entries
        return np.sort(np.abs(np.diag(A)))[::-1], A.shape[1], 0.0
    # column masses without an N x N temporary; a complex A's real and imag are views
    parts = (A.real, A.imag) if np.iscomplexobj(A) else (A,)
    sq = sum(np.einsum("jk,jk->k", part, part) for part in parts)
    # tail[k] sums columns k..: nonnegative terms, so nothing cancels and
    # tail is nonincreasing in k; a NaN tail counts as mass and is kept
    tail = np.append(np.cumsum(sq[::-1])[::-1], 0.0)
    K = int(np.count_nonzero(~(tail <= _COLUMN_CUT**2)))
    values = np.zeros(min(A.shape))
    if K:
        values[: min(A.shape[0], K)] = np.linalg.svd(A[:, :K], compute_uv=False)
    return values, K, math.sqrt(float(tail[K]))


def singular_spectrum(m: OperatorMatrix) -> SingularSpectrum:
    """Singular values of the truncation with both certificate tiers.

    The radius is the rigorous uniform one (perturbation bound by the
    truncation norm, plus the norm of the columns `_values_of` drops);
    stability_radii compares against the half-size compression, cut the
    same way: an empirical indicator of truncation bias that can miss slow
    convergence (see the module docstring).
    """
    values, columns, dropped = _values_of(m.entries)
    stab = None
    if m.N >= 8:
        half = m.entries[: m.entries.shape[0] - m.N // 2, : m.entries.shape[1] - m.N // 2]
        vals_half = _values_of(half)[0]
        stab = np.full(len(values), np.inf)
        L = len(vals_half)
        stab[:L] = np.abs(values[:L] - vals_half)
    return SingularSpectrum(
        values=values,
        radius=m.truncation_norm_bound + dropped,
        stability_radii=stab,
        columns=columns,
        dropped=dropped,
    )
