"""Truncated matrices of composition operators and certified singular values.

In the origin-fixed Dirichlet space the monomials z^k/sqrt(k) form an
orthonormal basis, and the operator column for basis index k is the
coefficient vector of phi^k scaled by sqrt(j/k).  Compressions onto the
first N basis vectors have singular values that increase monotonically with
N toward the approximation numbers; the distance to the full operator is
controlled by two Hilbert-Schmidt tails (discarded columns and discarded
rows) plus the coefficient-extraction noise.

Two certificates are attached to every spectrum:

* a rigorous perturbation radius, hs_tail + row_tail + assembly_error,
  valid for every entry (singular values are 1-Lipschitz in the operator
  norm);
* an empirical stability radius per entry, the change of the value when the
  truncation is halved, which tracks the actual truncation bias far below
  the rigorous radius.  For symbols whose power norms decay slowly (the
  cusp), the rigorous radius is honest but large, and the stability radius
  is what delimits the usable range; both are reported, neither is guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, tails
from .series import Space, SeriesParams, dirichlet_power_norms, power_coefficient_table
from .symbols import SymbolMap

__all__ = [
    "OperatorMatrix",
    "SingularSpectrum",
    "assemble",
    "singular_spectrum",
    "hs_tail_bound",
]

_SVD_FLOOR = 1e-13


@dataclass(frozen=True)
class OperatorMatrix:
    """N x N (or (N+1) x (N+1) with the constant direction) truncation."""

    entries: np.ndarray
    basis: Space
    N: int
    hs_tail: float
    row_tail: float
    assembly_error: float
    aliasing_suspect: bool

    @property
    def truncation_norm_bound(self) -> float:
        """Bound on the distance between the full operator and the
        compression, hence on every singular value error."""
        return self.hs_tail + self.row_tail + self.assembly_error


@dataclass(frozen=True)
class SingularSpectrum:
    """Nonincreasing singular values with two error tiers per entry."""

    values: np.ndarray
    error_radii: np.ndarray
    certification_floor: float
    stability_radii: np.ndarray | None = None

    @property
    def certified(self) -> np.ndarray:
        return self.values >= self.certification_floor

    @property
    def stable(self) -> np.ndarray:
        """Entries whose halved-truncation change is below 5 percent."""
        if self.stability_radii is None:
            return self.certified
        ok = self.values >= max(_SVD_FLOOR, 1e-12)
        return ok & (self.stability_radii <= 0.05 * self.values)

    def reliable_range(self, mode: str = "auto") -> np.ndarray:
        """Indices n (1-based) usable for fits/probes under the given mode."""
        if mode == "certified":
            mask = self.certified & (self.values >= 10.0 * self.certification_floor)
        elif mode == "stable":
            mask = self.stable
        elif mode == "auto":
            cert = self.certified & (self.values >= 10.0 * self.certification_floor)
            mask = cert if cert.sum() >= 20 else self.stable
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return np.nonzero(mask)[0] + 1


def _power_norms_sq_over_k(s: SymbolMap, k_to: int, params: SeriesParams):
    """t_k = ||phi^k||_D^2 / k for k = 1..k_to, and the norms themselves when
    they are exact image integrals (None otherwise)."""
    exact = geometry.exact_power_norms(s, k_to)
    norms = exact
    if norms is None:
        # the k-th power needs retained degrees well past k
        M_tail = max(params.M, 2 * k_to)
        norms, _ = dirichlet_power_norms(s, k_to, M=M_tail, method="coefficients")
    return norms**2 / np.arange(1, k_to + 1), exact


def hs_tail_bound(
    s: SymbolMap,
    n: int,
    series_params: SeriesParams | None = None,
    k_max: int | None = None,
) -> float:
    """sqrt(sum_{k >= n} ||phi^k||_D^2 / k) with an extrapolated remainder.

    Bounds the n-th approximation number from above (rank n-1 truncation of
    the coefficient expansion).  Returns math.inf for non-compact symbols
    whose power norms do not decay (tail fit divergent).
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    k_max = k_max or 4 * max(n, 16)
    params = series_params or SeriesParams(M=2 * k_max)
    t, _ = _power_norms_sq_over_k(s, k_max, params)
    fit = tails.tail_remainder(t, allow_divergent=True)
    if not math.isfinite(fit.remainder):
        return math.inf
    return math.sqrt(float(t[n - 1 :].sum()) + fit.remainder)


def assemble(
    s: SymbolMap,
    N: int,
    space: Space = Space.DIRICHLET_STAR,
    series_params: SeriesParams | None = None,
    k_tail_factor: int = 4,
) -> OperatorMatrix:
    """Truncated operator matrix with tail certificates.

    The origin-fixed basis requires phi(0) = 0; otherwise use the full
    Dirichlet space, which prepends the constant direction (fixed by the
    operator) as basis index 0.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if space is Space.DIRICHLET_STAR and not s.fixes_origin:
        raise ValueError("origin-fixed basis needs phi(0) = 0; use the Dirichlet space")
    if space not in (Space.DIRICHLET_STAR, Space.DIRICHLET):
        raise ValueError("matrix assembly is implemented for the Dirichlet family")
    params = series_params or SeriesParams(M=2 * N)
    M, rho, Q = params.resolved()
    if M < N:
        raise ValueError("retained degree must reach the truncation size")
    table, errs, alias, _ = power_coefficient_table(s, N, params)

    j = np.arange(1, N + 1, dtype=float)
    k = np.arange(1, N + 1, dtype=float)
    core = np.sqrt(j[:, None] / k[None, :]) * table[:, 1 : N + 1].T  # [j, k]

    if space is Space.DIRICHLET:
        A = np.zeros((N + 1, N + 1), dtype=complex)
        A[0, 0] = 1.0
        A[0, 1:] = table[:, 0] / np.sqrt(k)
        A[1:, 1:] = core
    else:
        A = core

    # column tail: discarded basis vectors k > N
    k_max = k_tail_factor * N
    t_all, exact = _power_norms_sq_over_k(s, k_max, params)
    fit = tails.tail_remainder(t_all, allow_divergent=True)
    if math.isfinite(fit.remainder):
        hs_tail = math.sqrt(float(t_all[N:].sum()) + fit.remainder)
    else:
        hs_tail = math.inf

    # row tail: mass of phi^k, k <= N, above the retained rows
    jj = np.arange(M + 1, dtype=float)
    mass = jj[None, :] * np.abs(table) ** 2  # [k, j]
    above_N = mass[:, N + 1 :].sum(axis=1)
    deficit = np.zeros(N)
    if exact is not None:
        deficit = np.maximum(exact[:N] ** 2 - mass.sum(axis=1), 0.0)
    else:
        for idx in range(N):
            rem = tails.tail_remainder(mass[idx], allow_divergent=True).remainder
            deficit[idx] = rem if math.isfinite(rem) else 0.0
    row_tail = math.sqrt(float(((above_N + deficit) / k).sum()))

    # coefficient-noise aggregate: per-entry error sqrt(j/k) err_k, Frobenius
    w_rows = float((j).sum())
    assembly_error = math.sqrt(float(((errs**2) * w_rows / k).sum()))

    return OperatorMatrix(
        entries=A,
        basis=space,
        N=N,
        hs_tail=hs_tail,
        row_tail=row_tail,
        assembly_error=assembly_error,
        aliasing_suspect=bool(alias.any()),
    )


def _is_exact_diagonal(A: np.ndarray) -> bool:
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    return not np.any(off)


def _values_of(A: np.ndarray) -> np.ndarray:
    if _is_exact_diagonal(A):
        # exact singular values of a diagonal matrix; preserves tiny entries
        return np.sort(np.abs(np.diag(A)))[::-1]
    return np.linalg.svd(A, compute_uv=False)


def singular_spectrum(m: OperatorMatrix, stability: bool = True) -> SingularSpectrum:
    """Singular values of the truncation with both certificate tiers.

    error_radii is the rigorous uniform radius (perturbation bound by the
    truncation norm); stability_radii compares against the half-size
    compression, a sharp empirical indicator of truncation bias.
    """
    if m.aliasing_suspect:
        raise ArithmeticError("assembly carries an aliasing flag; refusing to certify")
    values = _values_of(m.entries)
    radius = m.truncation_norm_bound
    radii = np.full(len(values), radius)
    floor = max(_SVD_FLOOR, 2.0 * radius) if math.isfinite(radius) else math.inf
    stab = None
    if stability and m.N >= 8:
        half = m.entries[: m.entries.shape[0] - m.N // 2, : m.entries.shape[1] - m.N // 2]
        vals_half = _values_of(half)
        stab = np.full(len(values), np.inf)
        L = len(vals_half)
        stab[:L] = np.abs(values[:L] - vals_half)
    return SingularSpectrum(
        values=values,
        error_radii=radii,
        certification_floor=floor,
        stability_radii=stab,
    )
