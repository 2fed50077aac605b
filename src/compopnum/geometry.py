"""Planar measure computations on image domains of univalent symbols.

For a univalent Schur function the counting function of the image is an
indicator, so annulus masses, Carleson-window masses and weighted integrals
over the image reduce to area integrals.  The cusp image is bounded by three
explicit circles, which gives closed-form angular arc measures at every
radius.  `_image` writes every supported image as factor * base, with the
unit disk or the cusp region as base; symbols without a known base fall
back to stratified Monte Carlo with a winding-number membership test.

All areas are normalized: dA = dx dy / pi, so the unit disk has area 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .symbols import (
    CUSP_DIAMETER,
    AffineMap,
    ComposedMap,
    CuspMap,
    MoebiusMap,
    SymbolMap,
)

__all__ = [
    "CuspRegion",
    "RegionMeasure",
    "CarlesonWindow",
    "BlaschkeProduct",
    "unit_interval_dyadic_zeros",
    "annulus_area",
    "m_functional",
    "M_functional",
    "zinc_upper_bound",
    "window_area",
    "cusp_imaginary_law",
    "cusp_inscribed_disk_radius",
    "blaschke_certificate",
    "region_power_norms",
    "exact_power_norms",
    "region_gram_singular_values",
]


# ---------------------------------------------------------------------------
# quadrature helpers


def _gauss_panels(
    u_lo: float,
    u_hi: float,
    n_nodes: int = 20,
    min_panel: float = 1e-14,
    refine_hi: bool = False,
):
    """Gauss-Legendre nodes on dyadically refined panels of [u_lo, u_hi].

    Panels shrink geometrically toward u_lo (and toward u_hi when asked), so
    integrands with endpoint mass or square-root kinks at the edges are
    resolved to near machine precision.  Returns (nodes, weights).
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)

    def edges_toward(lo, hi):
        # dyadic edges accumulating at lo
        out = [hi]
        while out[-1] - lo > max(min_panel, 1e-15 * max(1.0, abs(lo))):
            out.append(lo + (out[-1] - lo) / 2.0)
            if len(out) > 120:
                break
        out.append(lo)
        return out

    if refine_hi:
        mid = 0.5 * (u_lo + u_hi)
        lo_edges = edges_toward(u_lo, mid)
        hi_edges = [u_lo + u_hi - e for e in edges_toward(u_lo, mid)]
        pairs = list(zip(lo_edges[:-1], lo_edges[1:])) + list(zip(hi_edges[1:], hi_edges[:-1]))
    else:
        e = edges_toward(u_lo, u_hi)
        pairs = list(zip(e[:-1], e[1:]))
    nodes, weights = [], []
    for hi, lo in pairs:
        hi, lo = max(hi, lo), min(hi, lo)
        if hi <= lo:
            continue
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _panels_with_breakpoints(u_hi: float, breakpoints, n_nodes: int = 20):
    """Panel nodes on [0, u_hi] split at interior breakpoints, refined toward
    0 and toward every breakpoint (square-root kinks live there)."""
    cuts = sorted(b for b in breakpoints if 0.0 < b < u_hi)
    segs = list(zip([0.0] + cuts, cuts + [u_hi]))
    nodes, weights = [], []
    for lo, hi in segs:
        n, w = _gauss_panels(lo, hi, n_nodes=n_nodes, min_panel=1e-300, refine_hi=True)
        nodes.append(n)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


# ---------------------------------------------------------------------------
# the cusp image domain


@dataclass(frozen=True)
class CuspRegion:
    """Image of the cusp map: inside D(1-a/2, a/2), outside D(1 +/- ia/2, a/2).

    All three bounding circles pass through 1, where the two excluded disks
    are tangent to the real axis: the domain ends in a cusp of parabolic
    sharpness (half-width ~ u^2/a at depth u below the tip).
    """

    diameter: float = CUSP_DIAMETER

    @property
    def inner_center(self) -> float:
        return 1.0 - self.diameter / 2.0

    @property
    def radius(self) -> float:
        return self.diameter / 2.0

    def contains(self, w):
        """Strict three-circle membership test (vectorized)."""
        w = np.asarray(w, dtype=complex)
        a = self.diameter
        inside = np.abs(w - (1.0 - a / 2.0)) < a / 2.0
        out_up = np.abs(w - (1.0 + 0.5j * a)) > a / 2.0
        out_dn = np.abs(w - (1.0 - 0.5j * a)) > a / 2.0
        return inside & out_up & out_dn

    def arc_data(self, u):
        """Arc bounds of the slice {|w| = 1-u} inside the region.

        Returns (alpha, lo, hi): the slice is {|theta| < alpha} minus the two
        mirrored exclusion arcs +/-(lo, hi).  Parametrized by the depth
        u = 1 - s to keep the formulas cancellation-free near the cusp.
        """
        u = np.asarray(u, dtype=float)
        a = self.diameter
        s = 1.0 - u
        c1 = self.inner_center
        # inside the main circle: sin^2(alpha/2) = u (a-u) / (4 s c1)
        with np.errstate(invalid="ignore", divide="ignore"):
            q = u * (a - u) / (4.0 * s * c1)
            alpha = np.where(q >= 1.0, np.pi, 2.0 * np.arcsin(np.sqrt(np.minimum(q, 1.0))))
            # exclusion arc of the upper circle from the quadratic
            # (u^2+4s) tau^2 - 2 a s tau + u^2 = 0 in tau = tan(theta/2)
            disc = (a * s) ** 2 - u**2 * (u**2 + 4.0 * s)
            has = disc > 0.0
            root = np.sqrt(np.where(has, disc, 0.0))
            lo = 2.0 * np.arctan(u**2 / (a * s + root))
            hi = 2.0 * np.arctan((a * s + root) / (u**2 + 4.0 * s))
        lo = np.where(has, lo, 0.0)
        hi = np.where(has, hi, 0.0)
        bad = (u <= 0.0) | (u >= 1.0)
        alpha = np.where(bad, 0.0, alpha)
        return alpha, lo, hi

    def angular_measure(self, u):
        """Total angle of {|w| = 1-u} inside the region; ~ 2u^2/a near u=0."""
        alpha, lo, hi = self.arc_data(u)
        cut = np.maximum(0.0, np.minimum(alpha, hi) - np.minimum(alpha, lo))
        return np.maximum(0.0, 2.0 * (alpha - cut))

    def breakpoints(self):
        """Depths u where the slice structure changes (quadrature panel edges)."""
        a = self.diameter
        # second intersection of the main circle with an excluded circle
        # (the first is the cusp point 1); the excluded arc endpoint leaves
        # the main arc there
        c1, c2 = complex(self.inner_center), 1.0 + 0.5j * a
        d = abs(c2 - c1)
        e = (c2 - c1) / d
        mid = (c1 + c2) / 2.0
        half_chord = math.sqrt(max(0.0, self.radius**2 - (d / 2.0) ** 2))
        p = mid + 1j * e * half_chord
        if abs(p - 1.0) < 1e-9:
            p = mid - 1j * e * half_chord
        return (
            2.0 - a,  # main circle stops enclosing the slice
            1.0 - (math.hypot(1.0, a / 2.0) - a / 2.0),  # excluded disks appear
            1.0 - abs(p),  # excluded arc endpoint crosses the main arc
        )

    def annulus_area(self, t: float) -> float:
        """Normalized area of the region below depth t; ~ 2t^3/(3 a pi) for
        small t, a^2/(2 pi) at t = 1."""
        if t <= 0.0:
            return 0.0
        t = min(t, 1.0)
        u, w = _panels_with_breakpoints(t, self.breakpoints())
        vals = self.angular_measure(u) * (1.0 - u)
        return float(np.dot(w, vals)) / math.pi

    def power_moments(self, ks) -> np.ndarray:
        """(1/pi) * integral over the region of |w|^(2k-2) dA, for each k.

        Evaluated as a radial integral of the arc measure; the log1p keeps
        |w|^(2k-1) accurate at depths u ~ 1e-14 for k up to ~1e6.
        """
        ks = np.asarray(ks, dtype=float)
        u, w = _panels_with_breakpoints(1.0, self.breakpoints())
        keep = u < 1.0  # zero-radius nodes contribute nothing
        u, w = u[keep], w[keep]
        theta = self.angular_measure(u)
        logs = np.log1p(-u)  # log s
        # moment_k = sum_i w_i theta_i s_i^(2k-1)
        expo = np.exp(np.outer(2.0 * ks - 1.0, logs))
        return (expo @ (w * theta)) / math.pi

    def tip_angular_measure(self, sigma):
        """Angle of {|w - 1| = sigma} inside the region; ~ 2 sigma/a near 0."""
        sigma = np.asarray(sigma, dtype=float)
        a = self.diameter
        with np.errstate(invalid="ignore"):
            r = sigma / a
            val = 2.0 * np.minimum(np.arcsin(np.minimum(r, 1.0)), np.arccos(np.clip(r, -1.0, 1.0)))
        return np.where((sigma <= 0.0) | (sigma >= a), 0.0, val)

    def slice_halfwidth(self, x):
        """Half-height of the region at real part x, for x in (1-a, 1)."""
        x = np.asarray(x, dtype=float)
        a = self.diameter
        c1, r = self.inner_center, self.radius
        with np.errstate(invalid="ignore"):
            y_main = np.sqrt(np.maximum(0.0, r**2 - (x - c1) ** 2))
            s_out = np.sqrt(np.maximum(0.0, r**2 - (x - 1.0) ** 2))
            y_out = (x - 1.0) ** 2 / (a / 2.0 + s_out)  # a/2 - sqrt(a^2/4-(1-x)^2), stable
        return np.where((x <= 1.0 - a) | (x >= 1.0), 0.0, np.minimum(y_main, y_out))

    def box_angle(self, t: float) -> float:
        """Half-angle theta0 of a polar box about the tip provably containing
        the region's part of the annulus {|w| >= 1-t}: depth <= t and
        |angle| <= theta0.

        Membership in the main circle plus |w| >= 1-t forces the real part
        above x_min = ((1-t)^2 - (a-1))/(2 c1) ~ 1 - 4.56 t, and the excluded
        circles then cap |Im w| by the slice half-width there (~ (4.56 t)^2 /
        a), so the box angle shrinks quadratically in t: the importance
        stratum that keeps the hit rate high for deep annuli.
        """
        x_min = ((1.0 - t) ** 2 - (self.diameter - 1.0)) / (2.0 * self.inner_center)
        if x_min <= 0.5:
            return math.pi
        halfwidth = float(self.slice_halfwidth(x_min))
        theta0 = math.atan2(halfwidth, x_min) * 1.05 + 1e-12
        return min(math.pi, theta0)


class _UnitDisk:
    """The unit disk as an image base: affine maps scale it, disk
    automorphisms fill it."""

    def contains(self, w):
        return np.abs(w) < 1.0

    def annulus_area(self, t: float) -> float:
        return max(0.0, 1.0 - (1.0 - t) ** 2)

    def box_angle(self, t: float) -> float:
        return math.pi


_CUSP_REGION = CuspRegion()
_UNIT_DISK = _UnitDisk()


def _image(s: SymbolMap):
    """(base, factor) with phi(D) = factor * base.

    The base is the unit disk, the cusp region, or None when the image is
    only known through the boundary curve of phi.
    """
    if isinstance(s, AffineMap):
        return _UNIT_DISK, s.factor
    if isinstance(s, MoebiusMap):
        return _UNIT_DISK, 1.0
    if isinstance(s, CuspMap):
        return _CUSP_REGION, 1.0
    if isinstance(s, ComposedMap) and isinstance(s.outer, AffineMap):
        base, factor = _image(s.inner)
        return base, s.outer.factor * factor
    return None, 1.0


def _base_depth(t: float, factor) -> float:
    """Depth in the base whose annulus the factor scales onto {|w| >= 1-t}."""
    r = abs(factor)
    # a unit factor keeps t bit for bit; 1-(1-t)/1 can move it by an ulp
    return t if r == 1.0 else 1.0 - (1.0 - t) / r


# ---------------------------------------------------------------------------
# measures and windows


@dataclass(frozen=True)
class RegionMeasure:
    """A computed region mass with its method and uncertainty."""

    symbol: SymbolMap
    value: float
    std_error: float
    method: str
    samples: int = 0
    flagged: bool = False


@dataclass(frozen=True)
class CarlesonWindow:
    """Window S(xi, h) = {z in the disk : |z - xi| < h}, |xi| = 1."""

    xi: complex
    h: float

    def __post_init__(self):
        if abs(abs(complex(self.xi)) - 1.0) > 1e-12:
            raise ValueError("window center must be unimodular")
        if not 0.0 < self.h < 1.0:
            raise ValueError("window size must lie in (0, 1)")


class _UnsupportedRegion(ValueError):
    pass


def _require_univalent(s: SymbolMap):
    if not s.is_univalent:
        raise _UnsupportedRegion(
            "region measures need a univalent symbol (counting function = indicator)"
        )


def image_contains(s: SymbolMap, w):
    """Membership test w in phi(D) for univalent symbols."""
    _require_univalent(s)
    base, factor = _image(s)
    if base is None:
        # generic univalent fallback: winding number of the near-boundary curve
        return _winding_contains(s, w)
    w = np.asarray(w, dtype=complex)
    # dividing by a unit factor would only copy the points
    return base.contains(w if factor == 1.0 else w / factor)


def _winding_contains(s: SymbolMap, w, n_boundary: int = 4096):
    t = 2.0 * np.pi * (np.arange(n_boundary) + 0.5) / n_boundary
    curve = np.asarray(s.evaluate((1.0 - 1e-7) * np.exp(1j * t)))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    out = np.empty(w.shape, dtype=bool)
    for i in range(0, w.size, 256):
        blk = w.reshape(-1)[i : i + 256]
        diff = curve[None, :] - blk[:, None]
        ang = np.angle(diff)
        inc = np.diff(ang, axis=1, append=ang[:, :1])
        inc = np.mod(inc + np.pi, 2.0 * np.pi) - np.pi
        wind = np.abs(inc.sum(axis=1)) / (2.0 * np.pi)
        out.reshape(-1)[i : i + 256] = wind > 0.5
    return out.reshape(np.asarray(w).shape)


@functools.lru_cache(maxsize=16384)
def _exact_annulus_area(s: SymbolMap, t: float) -> float | None:
    """Closed-form A[phi(D) n {|w| >= 1-t}] when the image is known exactly."""
    base, factor = _image(s)
    if base is None:
        return None
    return abs(factor) ** 2 * base.annulus_area(_base_depth(t, factor))


def annulus_area(
    s: SymbolMap,
    t: float,
    method: str = "auto",
    samples: int = 10**6,
    seed: int = 0,
) -> RegionMeasure:
    """Normalized area of phi(D) intersected with {|w| >= 1-t}.

    method: "exact-arcs" (closed forms / arc quadrature), "monte-carlo"
    (stratified membership sampling), "polar" (membership on a deterministic
    polar grid), or "auto".
    """
    _require_univalent(s)
    if not 0.0 < t <= 1.0:
        raise ValueError("annulus depth must lie in (0, 1]")
    if method == "auto":
        method = "exact-arcs" if _exact_annulus_area(s, t) is not None else "monte-carlo"
    if method == "exact-arcs":
        val = _exact_annulus_area(s, t)
        if val is None:
            raise _UnsupportedRegion("no exact arcs for this symbol; use monte-carlo")
        return RegionMeasure(s, val, 0.0, "exact-arcs")
    if method == "polar":
        return _polar_annulus_area(s, t)
    if method == "monte-carlo":
        return _mc_annulus_area(s, t, samples, seed)
    raise ValueError(f"unknown method {method!r}")


def _annulus_box(s: SymbolMap, t: float):
    """(centre, theta0, normalized area) of the polar box {1-t <= |w| <= 1,
    |arg w - centre| <= theta0} that contains phi(D) n {|w| >= 1-t}."""
    base, factor = _image(s)
    centre, theta0 = 0.0, math.pi
    if base is not None:
        centre, theta0 = np.angle(factor), base.box_angle(_base_depth(t, factor))
    return centre, theta0, (1.0 - (1.0 - t) ** 2) * (theta0 / np.pi)


def _polar_annulus_area(s: SymbolMap, t: float, n_r: int = 400, n_th: int = 1024):
    centre, theta0, box = _annulus_box(s, t)
    lo2 = (1.0 - t) ** 2
    # midpoint grid of the box, equal-area in the radius
    rr = np.sqrt(lo2 + (1.0 - lo2) * (np.arange(n_r)[:, None] + 0.5) / n_r)
    th = centre + theta0 * ((2.0 * np.arange(n_th) + 1.0) / n_th - 1.0)
    inside = image_contains(s, rr * np.exp(1j * th))
    return RegionMeasure(s, box * float(inside.mean()), 0.0, "polar", samples=n_r * n_th)


def _mc_annulus_area(s: SymbolMap, t: float, samples: int, seed: int):
    rng = np.random.default_rng(seed)
    centre, theta0, box = _annulus_box(s, t)
    lo2 = (1.0 - t) ** 2
    # uniform on the box
    rr = np.sqrt(lo2 + (1.0 - lo2) * rng.random(samples))
    th = centre + theta0 * (2.0 * rng.random(samples) - 1.0)
    hits = image_contains(s, rr * np.exp(1j * th))
    value = box * hits.mean()
    std = box * hits.std(ddof=1) / math.sqrt(samples)
    return RegionMeasure(s, float(value), float(std), "monte-carlo", samples=samples)


def m_functional(s: SymbolMap, t: float, **kw) -> RegionMeasure:
    """m(t): annulus mass scaled by 1/t^2."""
    area = annulus_area(s, t, **kw)
    return RegionMeasure(
        s, area.value / t**2, area.std_error / t**2, area.method, area.samples, area.flagged
    )


def M_functional(s: SymbolMap, t: float, k_max: int = 40, **kw) -> RegionMeasure:
    """Dyadic sum M(t) = sum_k m(2^-k t), truncated with a fitted power-law tail.

    The last five dyadic terms are fit to c 2^(-alpha k); the fit must show
    decay (alpha > 0.2) for the truncation to be accepted.
    """
    if k_max < 5:
        raise ValueError("k_max must allow a 5-point tail fit")
    terms, errs = [], []
    for k in range(k_max + 1):
        mk = m_functional(s, t * 2.0**-k, **kw)
        terms.append(mk.value)
        errs.append(mk.std_error)
    terms = np.array(terms)
    total = float(terms.sum())
    std = float(math.hypot(*errs)) if any(errs) else 0.0
    tail = terms[-5:]
    if np.all(tail == 0.0):
        remainder = 0.0
    else:
        if np.any(tail <= 0.0):
            raise ArithmeticError("dyadic tail not strictly positive; M(t) not certifiable")
        ks = np.arange(k_max - 4, k_max + 1, dtype=float)
        slope, inter = np.polyfit(ks, np.log2(tail), 1)
        alpha = -slope
        if alpha <= 0.2:
            raise ArithmeticError(
                f"dyadic tail decays too slowly (alpha={alpha:.3f} <= 0.2); M(t) diverges numerically"
            )
        c = 2.0**inter
        remainder = c * 2.0 ** (slope * (k_max + 1)) / (1.0 - 2.0**slope)
    return RegionMeasure(s, total + remainder, std, f"dyadic-sum[{k_max}]")


def zinc_upper_bound(s: SymbolMap, n: int, t_grid=None, k_max: int = 40, **kw):
    """min over the grid of n (1-t)^n + sqrt(M(t)); returns (value, argmin t).

    The infimum form bounds the n-th approximation number up to a constant.
    """
    if t_grid is None:
        grid = list(np.exp(np.linspace(math.log(1e-4), math.log(0.999), 40)))
        grid += [2.0**-l for l in range(1, 12)]
        if s.sup_norm_hint is not None and s.sup_norm_hint < 1.0:
            grid.append(1.0 - s.sup_norm_hint)  # largest t with empty annulus
        t_grid = sorted(grid)
    best, best_t = math.inf, None
    for t in np.asarray(t_grid, dtype=float):
        try:
            Mt = M_functional(s, float(t), k_max=k_max, **kw).value
        except ArithmeticError:
            continue
        val = n * (1.0 - t) ** n + math.sqrt(max(Mt, 0.0))
        if val < best:
            best, best_t = val, float(t)
    if best_t is None:
        raise ArithmeticError("no grid point admitted a convergent M(t)")
    return best, best_t


# ---------------------------------------------------------------------------
# Carleson windows


def window_area(
    s: SymbolMap,
    window: CarlesonWindow,
    method: str = "auto",
    samples: int = 10**6,
    seed: int = 0,
) -> RegionMeasure:
    """Normalized area of S(xi, h) n phi(D)."""
    _require_univalent(s)
    xi, h = complex(window.xi), window.h
    at_tip = _image(s) == (_CUSP_REGION, 1.0) and xi == 1.0
    if method == "auto":
        method = "exact-arcs" if at_tip else "monte-carlo"
    if method == "exact-arcs":
        if not at_tip:
            raise _UnsupportedRegion("exact window arcs only at the cusp tip")
        u, wts = _gauss_panels(0.0, h)
        vals = _CUSP_REGION.tip_angular_measure(u) * u
        return RegionMeasure(s, float(np.dot(wts, vals)) / math.pi, 0.0, "exact-arcs")
    rng = np.random.default_rng(seed)
    rr = h * np.sqrt(rng.random(samples))
    th = 2.0 * np.pi * rng.random(samples)
    w = xi + rr * np.exp(1j * th)
    ok = np.abs(w) < 1.0
    hits = np.zeros(samples, dtype=bool)
    if ok.any():
        hits[ok] = image_contains(s, w[ok])
    value = h**2 * hits.mean()
    std = h**2 * hits.std(ddof=1) / math.sqrt(samples)
    return RegionMeasure(s, float(value), float(std), "monte-carlo", samples=samples)


def cusp_imaginary_law(h: float) -> float:
    """sup{|Im w| : w in the cusp region, Re w >= 1-h}, exact from the arcs.

    The excluded tangent circles bind throughout 0 < h <= a-1, giving
    a/2 - sqrt(a^2/4 - h^2) ~ h^2/a.
    """
    a = CUSP_DIAMETER
    if not 0.0 < h <= a - 1.0:
        raise ValueError("law valid for 0 < h <= a-1")
    s = math.sqrt(max(0.0, (a / 2.0) ** 2 - h**2))
    return h**2 / (a / 2.0 + s)


def cusp_inscribed_disk_radius(h: float) -> float:
    """Radius h^2/(4a) of the disks D(x, .) forced inside the region for
    0 <= x <= 1-h."""
    return h**2 / (4.0 * CUSP_DIAMETER)


# ---------------------------------------------------------------------------
# Blaschke products and the embedding certificate


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with real zeros, raised to an integer power."""

    zeros: tuple
    power: int = 1

    def __post_init__(self):
        if any(abs(z) >= 1.0 for z in self.zeros):
            raise ValueError("Blaschke zeros must lie in the open disk")
        if self.power < 0:
            raise ValueError("power must be nonnegative")

    def abs2(self, w):
        """|B(w)|^2, vectorized; stays in [0, 1] on the closed disk."""
        w = np.asarray(w, dtype=complex)
        out = np.ones(w.shape, dtype=float)
        for z in self.zeros:
            num = np.abs(z - w) ** 2
            den = np.abs(1.0 - np.conj(z) * w) ** 2
            out *= num / den
        return out**self.power


def unit_interval_dyadic_zeros(count: int) -> tuple:
    """Zeros 1 - 2^-j, j = 1..count, accumulating at the cusp point."""
    return tuple(1.0 - 2.0**-j for j in range(1, count + 1))


def default_window_grid(l_max: int = 12, j_max: int = 8):
    """Window grid near the contact point: xi = exp(i theta) for theta in
    {0, +/-2^-j}, sizes h = 2^-l."""
    thetas = [0.0] + [s * 2.0**-j for j in range(1, j_max + 1) for s in (+1.0, -1.0)]
    hs = [2.0**-l for l in range(1, l_max + 1)]
    return [(math.cos(t) + 1j * math.sin(t), h) for t in thetas for h in hs]


def _window_mean_quadrature(b: BlaschkeProduct, xi: complex, h: float, n_alpha: int = 48):
    """(1/pi) integral of |B|^2 over S(xi,h) n cusp region, by arcs at the tip
    (xi = 1) or by polar quadrature about xi with membership weights."""
    u, wts = _gauss_panels(0.0, h)
    if xi == 1.0:
        acc = 0.0
        x_leg, w_leg = np.polynomial.legendre.leggauss(n_alpha)
        for sigma, wt in zip(u, wts):
            half = 0.5 * float(_CUSP_REGION.tip_angular_measure(sigma))
            if half <= 0.0:
                continue
            beta = half * x_leg  # symmetric interval (-half, half)
            w = 1.0 + sigma * np.exp(1j * (np.pi + beta))
            acc += wt * sigma * half * float(np.dot(w_leg, b.abs2(w)))
        return acc / math.pi
    # generic center: uniform angular grid with membership indicator
    alphas = 2.0 * np.pi * (np.arange(n_alpha * 8) + 0.5) / (n_alpha * 8)
    ww = xi + u[:, None] * np.exp(1j * alphas)[None, :]
    mask = (np.abs(ww) < 1.0) & _CUSP_REGION.contains(ww)
    vals = np.where(mask, b.abs2(ww), 0.0).mean(axis=1) * (2.0 * np.pi)
    return float(np.dot(wts, vals * u)) / math.pi


def blaschke_certificate(
    r: int,
    window_grid=None,
    n_zeros: int | None = None,
    method: str = "quadrature",
    samples: int = 200_000,
    seed: int = 0,
) -> float:
    """sup over Carleson windows of (1/h) * integral of |B|^2 over the window
    intersected with the cusp region, B = (Blaschke with dyadic zeros)^r.

    n_zeros defaults to r (zeros 1-2^-j, j <= r); pass a fixed count to
    study the pure power mechanism.
    """
    if r < 0:
        raise ValueError("power must be nonnegative")
    zeros = unit_interval_dyadic_zeros(r if n_zeros is None else n_zeros)
    b = BlaschkeProduct(zeros, power=r)
    grid = window_grid if window_grid is not None else default_window_grid()
    best = 0.0
    rng = np.random.default_rng(seed)
    for xi, h in grid:
        if method == "quadrature":
            val = _window_mean_quadrature(b, complex(xi), float(h))
        else:
            rr = h * np.sqrt(rng.random(samples))
            th = 2.0 * np.pi * rng.random(samples)
            w = complex(xi) + rr * np.exp(1j * th)
            ok = (np.abs(w) < 1.0) & _CUSP_REGION.contains(w)
            val = float(h**2 * np.where(ok, b.abs2(w), 0.0).mean())
        best = max(best, val / h)
    return best


# ---------------------------------------------------------------------------
# region-side spectral data (independent of any Taylor expansion)


def region_power_norms(ks, region: CuspRegion | None = None) -> np.ndarray:
    """Dirichlet norms of the k-th powers of the cusp map, k in ks, from the
    exact change-of-variable integral k^2 (1/pi) int |w|^(2k-2) dA over the
    image region."""
    region = region or _CUSP_REGION
    ks = np.asarray(ks, dtype=float)
    return ks * np.sqrt(region.power_moments(ks))


def exact_power_norms(s: SymbolMap, n_max: int) -> np.ndarray | None:
    """Dirichlet norms of phi^k, k = 1..n_max, from the image integral when
    phi(D) is a scaled cusp region (|f|^k times the cusp norms); None for
    every other symbol."""
    base, factor = _image(s)
    if not isinstance(base, CuspRegion):
        return None
    ks = np.arange(1, n_max + 1)
    return abs(factor) ** ks * region_power_norms(ks, base)


def region_gram_singular_values(N: int, region: CuspRegion | None = None) -> np.ndarray:
    """Singular values of the cusp composition operator restricted to the
    span of the first N basis vectors, from the image-region Gram matrix.

    G[m, m'] = sqrt((m+1)(m'+1)) (1/pi) int_region w^m conj(w)^m' dA is the
    compression of a positive contraction; its eigenvalues are the squared
    restricted singular values.  Entirely independent of Taylor coefficients.
    """
    region = region or _CUSP_REGION
    u, wts = _panels_with_breakpoints(1.0, region.breakpoints(), n_nodes=24)
    keep = u < 1.0
    u, wts = u[keep], wts[keep]
    alpha, lo, hi = region.arc_data(u)
    hi = np.minimum(hi, alpha)
    lo = np.minimum(lo, alpha)
    qs = np.arange(N, dtype=float)
    # angular factor: int over arcs of cos(q theta) dtheta (even in theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = qs[:, None]
        s_all = np.where(q == 0, alpha[None, :], np.sin(q * alpha[None, :]) / np.where(q == 0, 1, q))
        s_hi = np.where(q == 0, hi[None, :], np.sin(q * hi[None, :]) / np.where(q == 0, 1, q))
        s_lo = np.where(q == 0, lo[None, :], np.sin(q * lo[None, :]) / np.where(q == 0, 1, q))
    ang = 2.0 * (s_all - (s_hi - s_lo))  # [q, node]
    logs = np.log1p(-u)
    G = np.empty((N, N))
    ms = np.arange(N)
    radial = np.exp(np.outer(ms, 2.0 * logs))  # s^(2m) | [m, node]
    s1 = np.exp(logs)
    for q in range(N):
        base = wts * s1 ** (q + 1) * ang[q] / math.pi
        diag = (radial[: N - q] * base[None, :]).sum(axis=1)
        mm = ms[: N - q]
        scale = np.sqrt((mm + 1.0) * (mm + q + 1.0))
        vals = scale * diag
        G[mm, mm + q] = vals
        G[mm + q, mm] = vals
    lam = np.linalg.eigvalsh(G)[::-1]
    return np.sqrt(np.maximum(lam, 0.0))
