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
the image integral and no power beyond N is extracted; any other symbol's
column tail is the sup-norm majorant `tails.column_tail_majorant`, infinite
where it proves nothing.  The row tail takes each power's mass beyond the
retained degree from `series.power_mass`: exact for a known base, 0 for a
polynomial power the degree holds whole, infinite otherwise.

A power whose column provably carries no mass is never extracted: before
any coefficient, `assemble` bounds every column of a symbol with an `Image`
by Parseval on circles |z| = r < 1 (`_column_bounds`) and extracts only
the K_a leading powers whose trailing bounds exceed the SVD's cut; the
columns past them read 0.0, their bound joins the dropped norm below, and
their row mass is the closed form's tau_{K_a+1}^2 - tau_{N+1}^2, tau_n^2 =
sum_{k >= n} ||phi^k||^2 / k.  The cusp at N = 1024 extracts 295 of 1024.

`retained_degree` is the one rule for the default degree M: N d for a
polynomial of degree d, which holds its first N powers whole, and N for
every other symbol.  Beyond N only the polynomial's exact row mass needs
coefficients: a known base's exact row tail ||phi^k||^2 - sum_{j <= N} j
|c_j|^2 needs none above the matrix, and no other mass beyond M is proved.

Two certificates are attached to every spectrum:

* a perturbation radius, hs_tail + row_tail + assembly_error + dropped,
  valid for every entry (singular values are 1-Lipschitz in the operator
  norm; `series` proves assembly_error but for the evaluation accuracy).
  The last term bounds the Frobenius norm of the trailing columns the SVD
  skips, those never extracted included, at most VALUE_FLOOR * eps: by
  Weyl's inequality dropping them moves no value by more, and the entries
  past the kept columns read 0.0 within the radius.  It is rigorous: its
  tails are exact for a known image base and proved bounds otherwise,
  infinite where nothing is proved.  Without an image both are finite only
  for a polynomial of known sup norm below 1 at the default degree; any
  other such symbol has only the stability tier;
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
# dirichlet_power_norms is not used here; perfbench's selftest checks that
# the tracer rebinds this module's name for it
from .series import Space, SeriesParams, dirichlet_power_norms  # noqa: F401
from .series import power_coefficient_table, power_mass
from .symbols import SymbolMap, circle_sup_bounds

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
# the circles |z| = 1 - depth on which `_column_bounds` samples sup |phi|,
# each at Q / _BOUND_SAMPLING angles.  For the cusp at N = 1024 (Q = 16384)
# they take ~2 ms and give K_a = 295; 16 circles of 4096 gave the same 295
# in ~6 ms, and these circles at Q / 8 gave 314.  At N = 256 they take ~1 ms
# of the ~3 ms the 68 powers they spare would cost.
_BOUND_DEPTHS = np.geomspace(0.5, 3e-3, 6)
_BOUND_SAMPLING = 4


@dataclass(frozen=True)
class OperatorMatrix:
    """The N x N truncation (N+1 with the constant direction), stored as its
    leading columns: those of the `extracted` powers, N of them unless
    `assemble` proved the rest negligible.  The columns past them read 0.0
    and `unextracted` bounds their Frobenius norm."""

    entries: np.ndarray
    N: int
    hs_tail: float
    row_tail: float
    assembly_error: float
    # how hs_tail was bounded: "closed-form:<base>", "sup-norm" or "divergent"
    column_tail_route: str
    params: SeriesParams  # the sampling plan the coefficients came from
    unextracted: float = 0.0

    @property
    def extracted(self) -> int:
        """K_a, the powers whose columns `entries` holds."""
        return self.entries.shape[1] - self.entries.shape[0] + self.N

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
    # bound on the norm of the columns it skipped, those never extracted
    # included; already in radius
    dropped: float = 0.0

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


def hs_tail_bound(s: SymbolMap, n: int) -> float:
    """sqrt(sum_{k >= n} ||phi^k||_D^2 / k): the image's closed form for a
    known base, else the sup-norm majorant `tails.column_tail_majorant`;
    `assemble` takes its column tail here.

    Bounds the n-th approximation number from above (rank n-1 truncation of
    the coefficient expansion).  Returns math.inf for non-compact symbols,
    the disk automorphisms, and wherever no majorant is proved.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    image = geometry.image_of(s)
    return image.column_tail(n) if image is not None else tails.column_tail_majorant(s, n)


def retained_degree(s: SymbolMap, N: int) -> int:
    """Default retained degree M of an N x N truncation: N d for a polynomial
    of degree d (`power_mass` then takes its rows' mass beyond M as 0), N for
    every other symbol.  The default Q is a power of two of at least 8(M+1)
    at every M, so rho^-M and the aliasing rho^Q hardly move with it."""
    return N * (s.degree or 1)


def _column_bounds(s: SymbolMap, N: int, c: int, Q: int) -> np.ndarray:
    """b_k^2, k = 1..N: bounds on the squared norms of the power columns of
    the (N+c)-row matrix, c = 1 with the constant row.

    On |z| = r Parseval gives sum_j |c_j(phi^k)|^2 r^(2j) <= S(r)^(2k), S(r) =
    max_{|z|=r} |phi|, so column k's squared norm, sum_{1<=j<=N} (j/k) |c_j|^2
    plus |c_0|^2/k in the constant row, is at most (N+c) r^(-2N) S(r)^(2k)/k.
    b_k^2 is the least of these over the circles of `_BOUND_DEPTHS`, with
    S(r) from `circle_sup_bounds`.
    """
    r = 1.0 - _BOUND_DEPTHS
    sup = circle_sup_bounds(s, r, Q // _BOUND_SAMPLING)
    k = np.arange(1, N + 1)
    # in logs: r^(-2N) overflows on the widest circle at N = 1024
    log_b2 = math.log(N + c) - 2.0 * N * np.log(r)[:, None] + np.outer(2.0 * np.log(sup), k)
    return np.exp(log_b2.min(axis=0) - np.log(k))


def _negligible(sq: np.ndarray, beyond: float = 0.0) -> tuple[int, float]:
    """(K, t): the fewest leading columns K whose trailing squared norms
    sq[K:], plus `beyond` for columns past them, sum to at most
    `_COLUMN_CUT`^2, and t the root of that sum.  The terms are nonnegative,
    so nothing cancels and the tail is nonincreasing; a NaN counts as mass
    and is kept."""
    tail = np.append(np.cumsum(sq[::-1])[::-1], 0.0) + beyond
    K = int(np.count_nonzero(~(tail <= _COLUMN_CUT**2)))
    return K, math.sqrt(float(tail[K]))


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

    A symbol with an `Image` extracts only the first K_a powers: K_a is the
    fewest whose later columns' bounds `_column_bounds` sum to at most
    `_COLUMN_CUT`^2 in square, and that sum's root is `unextracted`, which
    `singular_spectrum` counts in `dropped`.  The row tail charges the
    powers past K_a their whole mass, tau_{K_a+1}^2 - tau_{N+1}^2 from the
    image's column tail (0 where the degree holds polynomial powers whole).
    A symbol without an `Image` extracts all N, as it has no such tail.

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
    # the constant direction, when the space has it, is basis index 0
    c = int(space is Space.DIRICHLET)
    image = geometry.image_of(s)
    K, unextracted = N, 0.0
    if image is not None:
        K, unextracted = _negligible(_column_bounds(s, N, c, Q))
    table, peaks = power_coefficient_table(s, K, params)
    j = np.arange(1, N + 1, dtype=float)
    k = np.arange(1, K + 1, dtype=float)

    # column tail: discarded basis vectors k > N
    hs_tail = hs_tail_bound(s, N + 1)
    if image is not None:
        column_route = f"closed-form:{image.base.name}"
    else:
        column_route = "sup-norm" if math.isfinite(hs_tail) else "divergent"

    # row tail: mass of phi^k, k <= N, above the retained rows.  The powers
    # K_a < k <= N are never extracted; their whole mass is the image's
    # tau_{K_a+1}^2 - tau_{N+1}^2.  tau is infinite only on a disk of modulus
    # 1, where K_a < N never happens: an automorphism has S(r) >= r, so every
    # b_k^2 is at least (N+c)/k >= 1
    mass, beyond = power_mass(s, table)  # [k, j], [k]
    row_sq = float(((mass[:, N + 1 :].sum(axis=1) + beyond) / k).sum())
    del mass
    if K < N and (s.degree is None or N * s.degree > M):
        row_sq += image.column_tail(K + 1) ** 2 - hs_tail**2
    row_tail = math.sqrt(row_sq)

    A = np.zeros((N + c, K + c), dtype=table.dtype)
    core = A[c:, c:]  # [j, k]; a complex core's real part is a view too
    np.divide(j[:, None], k, out=core.real)
    np.sqrt(core.real, out=core.real)
    core *= table[:, 1 : N + 1].T
    if c:
        A[0, 0] = 1.0
        A[0, 1:] = table[:, 0] / np.sqrt(k)

    if space is Space.DIRICHLET:
        # each discarded column k also has |phi(0)|^(2k)/k in the constant
        # row: sum_{k > N} x^k / k <= x^(N+1) / ((N+1)(1-x)), x = |phi(0)|^2
        x = abs(s.origin) ** 2
        const = x ** (N + 1) / ((N + 1) * (1.0 - x)) if x < 1.0 else math.inf
        hs_tail = math.sqrt(hs_tail**2 + const)

    # coefficient-noise aggregate: per-entry error sqrt(j/k) err_k, Frobenius;
    # the constant row's entries c_0(phi^k)/sqrt(k) carry err_k/sqrt(k); the
    # columns never extracted carry no error, as `unextracted` bounds them whole
    w_rows = float(j.sum()) + (space is Space.DIRICHLET)
    assembly_error = math.sqrt(float((params.error_bounds(peaks) ** 2 * w_rows / k).sum()))

    return OperatorMatrix(
        entries=A,
        N=N,
        hs_tail=hs_tail,
        row_tail=row_tail,
        assembly_error=assembly_error,
        column_tail_route=column_route,
        params=params,
        unextracted=unextracted,
    )


def _is_exact_diagonal(A: np.ndarray) -> bool:
    return np.count_nonzero(A) == np.count_nonzero(A.diagonal())


def _values_of(A: np.ndarray, beyond: float = 0.0) -> tuple[np.ndarray, int, float]:
    """(singular values, columns K the SVD ran on, norm of the columns dropped)
    of the square matrix whose leading columns are A, no wider than tall;
    `beyond` bounds the norm of its columns past A, which read 0.0.

    Columns K.. have a combined Frobenius norm (with `beyond`) at most
    `_COLUMN_CUT` and are dropped: by Weyl's inequality the values of
    A[:, :K] are the matrix's to within that norm, and entries past K read
    exactly 0.0, the cut matrix's own.  K is A's width when no tail is that
    small, and 0 skips the SVD.
    """
    values = np.zeros(A.shape[0])
    if _is_exact_diagonal(A):
        # exact singular values of a diagonal matrix; preserves tiny entries
        diagonal = np.sort(np.abs(np.diag(A)))[::-1]
        values[: diagonal.size] = diagonal
        return values, A.shape[1], beyond
    # column masses without an N x N temporary; a complex A's real and imag are views
    parts = (A.real, A.imag) if np.iscomplexobj(A) else (A,)
    K, dropped = _negligible(sum(np.einsum("jk,jk->k", part, part) for part in parts), beyond**2)
    if K:
        values[: min(A.shape[0], K)] = np.linalg.svd(A[:, :K], compute_uv=False)
    return values, K, dropped


def singular_spectrum(m: OperatorMatrix) -> SingularSpectrum:
    """Singular values of the truncation with both certificate tiers.

    The radius is the rigorous uniform one (perturbation bound by the
    truncation norm, plus the norm of the columns `_values_of` drops, those
    `assemble` never extracted included); stability_radii compares against
    the half-size compression, cut the same way: an empirical indicator of
    truncation bias that can miss slow convergence (see the module
    docstring).  Both spectra have one entry per row, those past the
    columns reading 0.0.
    """
    values, columns, dropped = _values_of(m.entries, m.unextracted)
    stab = None
    if m.N >= 8:
        n = m.entries.shape[0] - m.N // 2
        vals_half = _values_of(m.entries[:n, :n], m.unextracted)[0]
        stab = np.full(len(values), np.inf)
        stab[:n] = np.abs(values[:n] - vals_half)
    return SingularSpectrum(
        values=values,
        radius=m.truncation_norm_bound + dropped,
        stability_radii=stab,
        columns=columns,
        dropped=dropped,
    )
