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

Columns are cut once, before extraction: `assemble` bounds every power's
column by Parseval on circles |z| = r < 1 (`_column_bounds`) and extracts
only the K_a leading powers whose trailing bounds sum to more than
`_COLUMN_CUT`; the columns past them read 0.0, their bound is
`unextracted`, and their row mass is tau_{K_a+1}^2 - tau_{N+1}^2 from
`hs_tail_bound`, tau_n^2 = sum_{k >= n} ||phi^k||^2 / k.  The cusp at
N = 1024 extracts 295 of 1024.

`retained_degree` is the one rule for the default degree M: N d for a
polynomial of degree d, which holds its first N powers whole, and N for
every other symbol.  Beyond N only the polynomial's exact row mass needs
coefficients: a known base's exact row tail ||phi^k||^2 - sum_{j <= N} j
|c_j|^2 needs none above the matrix, and no other mass beyond M is proved.

Two certificates are attached to every spectrum:

* a perturbation radius, hs_tail + row_tail + assembly_error +
  unextracted, valid for every entry (singular values are 1-Lipschitz in
  the operator norm, Weyl; `series` proves assembly_error but for the
  evaluation accuracy).  It is rigorous: its tails are exact for a known
  image base and proved bounds otherwise, infinite where nothing is proved.  Without an image both are finite only
  for a polynomial with sum |c_j| below 1 at the default degree; any
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
# more than eps relative (Weyl), so `assemble` never extracts them
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
    unextracted: float

    @property
    def extracted(self) -> int:
        """K_a, the powers whose columns `entries` holds."""
        return self.entries.shape[1] - self.entries.shape[0] + self.N

    @property
    def truncation_norm_bound(self) -> float:
        """Bound on the distance between the full operator and the stored
        compression, hence on every singular value error."""
        return self.hs_tail + self.row_tail + self.assembly_error + self.unextracted


@dataclass(frozen=True)
class SingularSpectrum:
    """Nonincreasing singular values, one rigorous error radius for all and
    per-entry stability radii (the change under halved truncation)."""

    values: np.ndarray
    radius: float
    stability_radii: np.ndarray | None = None

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


def _negligible(sq: np.ndarray) -> tuple[int, float]:
    """(K, t): the fewest leading columns K whose trailing squared norms
    sq[K:] sum to at most `_COLUMN_CUT`^2, and t the root of that sum.  The
    terms are nonnegative, so nothing cancels and the tail is nonincreasing;
    a NaN counts as mass and is kept."""
    tail = np.append(np.cumsum(sq[::-1])[::-1], 0.0)
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

    Only the first K_a powers are extracted: K_a is the fewest whose later
    columns' bounds `_column_bounds` sum to at most `_COLUMN_CUT`^2 in
    square, and that sum's root is `unextracted`.  The row tail charges the
    powers past K_a their whole mass, tau_{K_a+1}^2 - tau_{N+1}^2 from
    `hs_tail_bound` (none at degree 1: the powers k <= N have no rows past N).

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
    K, unextracted = _negligible(_column_bounds(s, N, c, Q))
    table, peaks = power_coefficient_table(s, K, params)
    j = np.arange(1, N + 1, dtype=float)
    k = np.arange(1, K + 1, dtype=float)

    # column tail: discarded basis vectors k > N
    hs_tail = hs_tail_bound(s, N + 1)
    image = geometry.image_of(s)
    if image is not None:
        column_route = f"closed-form:{image.base.name}"
    else:
        column_route = "sup-norm" if math.isfinite(hs_tail) else "divergent"

    # row tail: mass of phi^k, k <= N, above the retained rows.  The powers
    # K_a < k <= N are never extracted; tau_{K_a+1}^2 - tau_{N+1}^2 bounds
    # their whole mass (the image's closed form, or the majorant's per-k
    # terms), infinite where tau_{K_a+1} is
    mass, beyond = power_mass(s, table)  # [k, j], [k]
    row_sq = float(((mass[:, N + 1 :].sum(axis=1) + beyond) / k).sum())
    del mass
    if K < N and (s.degree is None or s.degree > 1):
        tau = hs_tail_bound(s, K + 1)
        row_sq += tau**2 - hs_tail**2 if math.isfinite(tau) else math.inf
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


def _values_of(A: np.ndarray) -> np.ndarray:
    """Singular values of the square matrix whose leading columns are A, no
    wider than tall; the columns past A read 0.0, and so do the entries
    past its width."""
    values = np.zeros(A.shape[0])
    if _is_exact_diagonal(A):
        # exact singular values of a diagonal matrix; preserves tiny entries
        values[: min(A.shape)] = np.sort(np.abs(np.diag(A)))[::-1]
    else:
        values[: A.shape[1]] = np.linalg.svd(A, compute_uv=False)
    return values


def singular_spectrum(m: OperatorMatrix) -> SingularSpectrum:
    """Singular values of the truncation with both certificate tiers.

    The radius is the rigorous uniform one, `m.truncation_norm_bound`;
    stability_radii compares against the half-size compression: an
    empirical indicator of truncation bias that can miss slow convergence
    (see the module docstring).  Both spectra have one entry per row.
    """
    values = _values_of(m.entries)
    stab = None
    if m.N >= 8:
        n = m.entries.shape[0] - m.N // 2
        stab = np.full(len(values), np.inf)
        stab[:n] = np.abs(values[:n] - _values_of(m.entries[:n, :n]))
    return SingularSpectrum(values=values, radius=m.truncation_norm_bound, stability_radii=stab)
