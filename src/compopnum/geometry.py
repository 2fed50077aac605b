"""Planar measure computations on image domains of univalent symbols.

For a univalent Schur function the counting function of the image is an
indicator, so annulus masses, Carleson-window masses and weighted integrals
over the image reduce to area integrals.  The cusp image is bounded by three
explicit circles, which gives closed-form angular arc measures at every
radius.  `image_of` writes every supported image as an `Image`, factor *
base with the unit disk or the cusp region as base, which answers every
exact measure, power norm and column tail; symbols without a known base
fall back to Monte Carlo on i.i.d. uniform points with a winding-number
membership test.

All areas are normalized: dA = dx dy / pi, so the unit disk has area 1.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import gram_singular_values
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
    "M_functional",
    "zinc_upper_bound",
    "window_area",
    "blaschke_certificate",
    "default_window_grid",
    "Image",
    "image_of",
    "image_contains",
    "region_gram_singular_values",
    "MethodError",
]


# ---------------------------------------------------------------------------
# quadrature helpers


def _mirrored(half):
    """The Gauss-Legendre rule on [-1, 1] from its positive nodes and their
    weights, [node, weight] rows in increasing node order."""
    x, w = np.array(half).T
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


# the Gauss-Legendre rule on [-1, 1] that every panel carries: numpy's
# leggauss(20) bit for bit, which is exactly symmetric, kept as a table so
# that no job imports numpy.polynomial (1.8 MB resident)
_GAUSS = _mirrored([
    [0.07652652113349734, 0.15275338713072628],
    [0.22778585114164507, 0.14917298647260424],
    [0.37370608871541955, 0.1420961093183824],
    [0.5108670019508271, 0.1316886384491769],
    [0.636053680726515, 0.1181945319615186],
    [0.7463319064601508, 0.1019301198172407],
    [0.8391169718222188, 0.08327674157670471],
    [0.912234428251326, 0.06267204833410879],
    [0.9639719272779138, 0.040601429800386446],
    [0.993128599185095, 0.017614007139150893],
])


# width at which the dyadic refinement toward a panel set's end stops
_PANEL_STOP = 1e-14

# powers k per [k, node] block of the region power norms, all written into
# one 3.7 MB buffer on the radial rule's 7159 nodes: the ~295 powers of a
# cusp `an` at once would take 17 MB, a fresh exp per block 7.3 MB
_NORM_BLOCK = 64


def _split_panels(ends):
    """Panel edges (a, b) on the segments between consecutive ends, each refined
    dyadically toward both of its ends (square-root kinks live there)."""
    a, b = [], []
    for lo, hi in zip(ends[:-1], ends[1:]):
        # offsets 2^-j of the half-width, down to the first at or below _PANEL_STOP, then 0
        d = 0.5 * (hi - lo) * 0.5 ** np.arange(64)
        d = np.append(d[: np.argmax(d <= _PANEL_STOP) + 1], 0.0)
        a += [lo + d[:-1], hi - d[:-1]]
        b += [lo + d[1:], hi - d[1:]]
    return np.concatenate(a), np.concatenate(b)


def _wrap(phi):
    """phi moved into (-pi, pi] by a whole turn; values in it keep every bit."""
    return np.where(phi > np.pi, phi - 2.0 * np.pi, np.where(phi <= -np.pi, phi + 2.0 * np.pi, phi))


def _panel_rule(a, b):
    """`_GAUSS` moved onto the panels between edges a[i] and b[i]: nodes and
    weights, panel by panel."""
    x, w = _GAUSS
    mid, half = 0.5 * (a + b)[:, None], 0.5 * np.abs(a - b)[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _sized_rule(kinks, sizes):
    """(nodes, weights) of the one panel rule behind every integral over the
    cusp region up to a size, for a size or an array of sizes: Gauss panels
    on [0, max size] split at the kinks below it (`_split_panels`), every
    size one more panel edge.  The nodes run in increasing order, so each
    size's integral is a prefix of them."""
    sizes = np.atleast_1d(np.asarray(sizes, dtype=float))
    top = float(sizes.max())
    a, b = _split_panels([0.0] + [k for k in kinks if 0.0 < k < top] + [top])
    edges = np.sort(np.concatenate([a, b, sizes]))
    # each inner edge comes twice; a pair of equal edges is no panel
    step = edges[1:] > edges[:-1]
    return _panel_rule(edges[:-1][step], edges[1:][step])


# ---------------------------------------------------------------------------
# the cusp image domain


@dataclass(frozen=True)
class CuspRegion:
    """Image of the cusp map: inside D(1-a/2, a/2), outside D(1 +/- ia/2, a/2).

    All three bounding circles pass through 1, where the two excluded disks
    are tangent to the real axis: the domain ends in a cusp of parabolic
    sharpness (half-width ~ u^2/a at depth u below the tip).  The region
    has no parameters: a = CUSP_DIAMETER.
    """

    name = "cusp"  # a class attribute, not a field
    radial = False  # `contains` reads the angle too

    @property
    def circles(self):
        """The three bounding circles as (centre, radius, sign): sign +1 for
        the disk the region lies inside, -1 for the two it lies outside."""
        r = CUSP_DIAMETER / 2.0
        return ((complex(1.0 - r), r, 1), (complex(1.0, r), r, -1), (complex(1.0, -r), r, -1))

    @property
    def corners(self):
        """The tip and the two other points where the bounding circle meets one."""
        r = CUSP_DIAMETER / 2.0
        return (1.0 + 0j, complex(1.0 - r, r), complex(1.0 - r, -r))

    def contains(self, w):
        """Strict membership in the three `circles` (vectorized), measured
        from the tip: with d = w - 1 = x + iy, q = |d|^2 and a = 2r, |w - c|^2
        - r^2 is q + a x for the circle of sign +1 (c = 1 - r) and q -/+ a y
        for the two of sign -1 (c = 1 +/- ir).  So w is inside when q + a x
        < 0 and q > a |y|.  No r^2 cancels: at depth u below the tip |w - c|
        differs from r by ~u^2/a, a margin that comparing the two would lose
        to the rounding of |w - c|, while q and a y keep it to a few ulps.
        """
        w = np.asarray(w, dtype=complex)
        x, y = w.real - 1.0, np.abs(w.imag)
        q = x * x + y * y
        inside = q + CUSP_DIAMETER * x < 0.0
        inside &= q > CUSP_DIAMETER * y
        return inside

    def polar_cells(self, rho_edges):
        """(phi_in, phi_out), certificates of `contains` on the radial cells
        between increasing rho_edges: for rho_edges[j] <= rho <=
        rho_edges[j+1], contains(_polar(rho, phi)) is True when |phi| <
        phi_in[j] and False when |phi| >= phi_out[j], |phi| <= pi.  A cell
        with (0, inf) certifies nothing.

        Below the first breakpoint u0 the slice at depth u is the one arc
        |theta| < lo(u) (`arc_data`: hi = alpha there), and lo grows with u.
        So a cell's slices all hold |theta| < lo(shallow edge) and lie within
        lo(deep edge), and phi_in = (1 - d) lo(shallow), phi_out = (1 + d)
        lo(deep) with d = _CELL_MARGIN = 2^-20.  The margin covers the
        rounding of the test: at rho = 1 - u, x = rho cos phi - 1 has an
        absolute error below ~2^-52 and y a few ulps, so q - a y is off by
        ~u 2^-51, while at |phi| = (1 -/+ d) lo(u) it stands ~d u^2 from 0
        (a lo ~ u^2), and q + a x ~ -a u is far from 0.  Depths above ~2^-31
        would do; cells are certified at depths in [2^-20, u0/2] only, a
        2^11 margin, and away from u0, where the exclusion arc's far end
        nears the corner and both tests near 0.  The edges' depths 1 - rho
        are exact there (Sterbenz).  The region lies in the closed unit disk,
        so cells at radii >= 1 + 2^-20 are outside at every angle: phi_out =
        0.  Every other cell certifies nothing."""
        rho = np.asarray(rho_edges, dtype=float)
        shallow, deep = 1.0 - rho[1:], 1.0 - rho[:-1]
        phi_in, phi_out = np.zeros(shallow.shape), np.full(shallow.shape, np.inf)
        sure = (shallow >= _CELL_MARGIN) & (deep <= 0.5 * self.breakpoints()[0])
        phi_in[sure] = (1.0 - _CELL_MARGIN) * self.arc_data(shallow[sure])[1]
        phi_out[sure] = (1.0 + _CELL_MARGIN) * self.arc_data(deep[sure])[1]
        phi_out[rho[:-1] >= 1.0 + _CELL_MARGIN] = 0.0
        return phi_in, phi_out

    def kinks(self, xi):
        """Radii, in increasing order, where the slice {|w - xi| = sigma} changes
        shape: |d -/+ r| for each circle, d = |xi - centre|, and |xi - corner|."""
        radii = {abs(abs(xi - c) + e * r) for c, r, _ in self.circles for e in (-1.0, 1.0)}
        return sorted(radii | {abs(xi - p) for p in self.corners})

    def arcs(self, xi, sigma):
        """The slice {|w - xi| = sigma} in the region, for an array of radii:
        (turn, lo, hi) with [radius, piece] arrays lo, hi, the slice being
        xi + sigma turn e^{i phi}, lo < phi < hi (lo == hi: no piece).

        A circle holds the arc |phi - rho| < theta, cos theta = (sigma^2 + d^2
        - r^2) / (2 sigma d) with 1 -/+ cos theta factored around g = d - r,
        formed first and exactly 0 at the tip.  Each end is measured from its
        nearest anchor rho + k pi/2, |k| <= 2, so none cancels: the tip's piece
        is +/- arcsin(sigma/a) about exactly 0.  The ends cut (-pi, pi]; a
        piece is kept when its middle is inside the circles of sign +1 only."""
        sigma = np.asarray(sigma, dtype=float)[:, None]
        turn = self.circles[0][0] - xi
        turn /= abs(turn)
        ends, tests = [np.full_like(sigma, -np.pi), np.full_like(sigma, np.pi)], []
        for c, r, sign in self.circles:
            d = abs(c - xi)
            g = d - r
            cos = (sigma * sigma + g * (d + r)) / (2.0 * sigma * d)
            sin = np.sqrt(np.maximum((sigma - g) * (r + d - sigma), 0.0)
                          * np.maximum((sigma + g) * (sigma + d + r), 0.0)) / (2.0 * sigma * d)
            theta = np.arctan2(sin, cos)
            k = np.rint(theta / (0.5 * np.pi))
            off = np.select([k == 0.0, k == 1.0], [theta, np.arctan2(-cos, sin)], np.arctan2(-sin, -cos))
            rho = np.angle((c - xi) * np.conj(turn))
            ends += [_wrap(_wrap(rho + k * (0.5 * np.pi)) + off), _wrap(_wrap(rho - k * (0.5 * np.pi)) - off)]
            tests.append((rho, theta, sign > 0))
        cuts = np.sort(np.concatenate(ends, axis=1), axis=1)
        lo, hi = cuts[:, :-1], cuts[:, 1:]
        mid = 0.5 * (lo + hi)
        keep = np.logical_and.reduce([(np.abs(_wrap(mid - rho)) < theta) == inside for rho, theta, inside in tests])
        return turn, lo, np.where(keep, hi, lo)

    def arc_data(self, u):
        """Arc bounds of the slice {|w| = 1-u} inside the region.

        Returns (alpha, lo, hi), lo <= hi <= alpha: the slice is {|theta| <
        alpha} minus the two mirrored exclusion arcs +/-(lo, hi), clamped to
        alpha.  Parametrized by the depth u = 1 - s to keep the formulas
        cancellation-free near the cusp.
        """
        u = np.asarray(u, dtype=float)
        a = CUSP_DIAMETER
        s = 1.0 - u
        c1 = self.circles[0][0].real
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
        bad = (u <= 0.0) | (u >= 1.0)
        alpha = np.where(bad, 0.0, alpha)
        lo = np.minimum(np.where(has, lo, 0.0), alpha)
        hi = np.minimum(np.where(has, hi, 0.0), alpha)
        return alpha, lo, hi

    def angular_measure(self, u):
        """Total angle of {|w| = 1-u} inside the region; ~ 2u^2/a near u=0.

        The arc (-alpha, alpha) less the exclusion arcs +/-(lo, hi), written
        without the difference alpha - (alpha - lo), which loses every digit
        of the ~2u^2/a result below depths u ~ 1e-10."""
        alpha, lo, hi = self.arc_data(u)
        return 2.0 * (lo + (alpha - hi))

    def breakpoints(self):
        """Depths u in (0, 1), in increasing order, where the slice {|w| =
        1-u} changes shape: the radial rule's panel edges."""
        return sorted(1.0 - k for k in self.kinks(0.0) if 0.0 < k < 1.0)

    def radial_rule(self, t=1.0):
        """(u, weights) of the one rule behind every integral over the region
        below depth t: (1/pi) int f dA = sum_i weights_i * (the integral of f
        over the arcs at depth u_i), weights_i = w_i s_i / pi, s = 1 - u.

        `_sized_rule` at the breakpoints for a depth or an array of depths in
        [0, 1]: the nodes run in increasing depth, and each depth's integral
        is a prefix of them.  Zero-radius nodes carry no area and are
        dropped, so log(s) stays finite on every node."""
        u, w = _sized_rule(self.breakpoints(), t)
        keep = u < 1.0
        return u[keep], w[keep] * (1.0 - u[keep]) / math.pi

    def annulus_area(self, t):
        """Normalized area of the region below depth t; ~ 2t^3/(3 a pi) for
        small t, a^2/(2 pi) at t = 1, at one depth or an array of depths,
        each clamped to [0, 1].  The depths share one rule (`radial_rule`)
        and read their areas off one cumulative sum."""
        depths = np.clip(np.atleast_1d(t), 0.0, 1.0)
        u, w = self.radial_rule(depths)
        cumulative = np.append(0.0, np.cumsum(w * self.angular_measure(u)))
        # a node rounded onto a depth belongs to the panel that ends there
        areas = cumulative[np.searchsorted(u, depths, side="right")]
        return areas if np.ndim(t) else float(areas[0])

    @property
    def tip_area_constant(self) -> float:
        """C with annulus_area(tau) <= C tau^3 below the first breakpoint.
        There hi = alpha, so angular_measure(u) = 2 lo, lo = min(alpha,
        2 arctan(u^2/(a s + root))) <= 2u^2/(a s) (arctan x <= x, root >= 0),
        and (1/pi) int_0^tau angular_measure(u) s du <= 4 tau^3/(3 pi a)."""
        return 4.0 / (3.0 * math.pi * CUSP_DIAMETER)

    def power_norms(self, ks) -> np.ndarray:
        """Dirichlet norms k sqrt(moment_k) of w^k on the region, moment_k =
        (1/pi) int |w|^(2k-2) dA, in blocks of _NORM_BLOCK powers, the last
        padded, as a product's rounding depends on its row count.  The log1p
        keeps s^(2k-2) accurate at depths u ~ 1e-14 for k up to ~1e6."""
        ks = np.asarray(ks, dtype=float)
        u, w = self.radial_rule()
        log_s, weights = np.log1p(-u), w * self.angular_measure(u)
        padded = np.resize(ks, -(-ks.size // _NORM_BLOCK) * _NORM_BLOCK)
        moments = np.empty(padded.shape)
        powers = np.empty((_NORM_BLOCK, u.size))  # s^(2k-2), one block at a time
        for start in range(0, ks.size, _NORM_BLOCK):
            rows = slice(start, start + _NORM_BLOCK)
            np.outer(2.0 * padded[rows] - 2.0, log_s, out=powers)
            moments[rows] = np.exp(powers, out=powers) @ weights
        return ks * np.sqrt(moments[: ks.size])

    def column_tail_sq(self, n: int, r2: float) -> float:
        """sum_{k >= n} r2^k ||w^k||^2 / k over the region, r2 <= 1.

        ||w^k||^2 / k = sum_i w_i theta_i k s_i^(2k-2) in the radial rule, so
        with x = r2 s^2 the sum over k closes under the integral:
        sum_{k >= n} k x^(k-1) = x^(n-1) (1 + (n-1)(1-x)) / (1-x)^2.
        1-x comes from expm1 of log x, accurate at depths ~1e-14, where
        theta ~ 2u^2/a against (1-x)^2 ~ 4u^2 keeps the integrand bounded.
        """
        u, w = self.radial_rule()
        log_x = math.log(r2) + 2.0 * np.log1p(-u)
        gap = -np.expm1(log_x)  # 1 - x
        series = np.exp((n - 1) * log_x) * (1.0 + (n - 1) * gap) / gap**2
        return r2 * float(np.dot(w * self.angular_measure(u), series))

    def box_angle(self, t: float) -> float:
        """Half-angle theta0 of a polar box about the tip that contains the
        region's part of the annulus {|w| >= 1-t}: depth <= t and |angle| <=
        theta0.

        Below the first breakpoint `arc_data` has hi = alpha, so the slice at
        depth u is the one arc |angle| < lo(u), and lo grows with u: the part
        lies within |angle| <= lo(t) = angular_measure(t)/2.  The box is twice
        that, so an arc error below a factor 2 still shows in a Monte Carlo
        cross-check; from the first breakpoint on it is the whole circle.
        """
        if t >= self.breakpoints()[0]:
            return math.pi
        return min(math.pi, float(self.angular_measure(t)))


class _UnitDisk:
    """The unit disk as an image base: affine maps scale it, disk
    automorphisms fill it."""

    name = "disk"
    tip_area_constant = math.inf  # the area below depth t is ~ 2t, not cubic
    radial = True  # `contains` reads |w| alone: True below a radius

    def contains(self, w):
        return np.abs(w) < 1.0

    def annulus_area(self, t):
        return np.maximum(0.0, 1.0 - (1.0 - t) ** 2)

    def box_angle(self, t: float) -> float:
        return math.pi

    def power_norms(self, ks) -> np.ndarray:
        """Dirichlet norms of w^k on the disk: k^2 (1/pi) int |w|^(2k-2) dA = k."""
        return np.sqrt(ks)

    def column_tail_sq(self, n: int, r2: float) -> float:
        """sum_{k >= n} r2^k ||w^k||^2 / k = r2^n / (1 - r2); infinite for the
        automorphisms (r2 = 1), which are not compact."""
        return r2**n / (1.0 - r2) if r2 < 1.0 else math.inf


_CUSP_REGION = CuspRegion()
_UNIT_DISK = _UnitDisk()


@dataclass(frozen=True)
class Image:
    """phi(D) = factor * base for a known base: the unit disk or the cusp
    region, with |factor| stored as the symbols' scales give it: abs() of
    a rotation can miss 1 by an ulp.  Every exact region measure, power
    norm and column tail is a question to it, and reads modulus alone."""

    base: CuspRegion | _UnitDisk
    factor: complex = 1.0
    modulus: float = 1.0

    def depth(self, t: float) -> float:
        """Depth in the base whose annulus the factor scales onto {|w| >= 1-t}."""
        r = self.modulus
        # a unit factor keeps t bit for bit; 1-(1-t)/1 can move it by an ulp
        return t if r == 1.0 else 1.0 - (1.0 - t) / r

    def contains(self, w):
        """Membership test w in factor * base (vectorized)."""
        w = np.asarray(w, dtype=complex)
        # dividing by a unit factor would only copy the points
        return self.base.contains(w if self.factor == 1.0 else w / self.factor)

    def annulus_area(self, t):
        """Closed-form A[phi(D) n {|w| >= 1-t}], at one depth or an array."""
        return self.modulus**2 * self.base.annulus_area(self.depth(t))

    def box_angle(self, t: float) -> float:
        """Half-angle theta0 of the polar box {1-t <= |w| <= 1, |arg w - arg
        factor| <= theta0} that contains phi(D) n {|w| >= 1-t}: the base's
        `box_angle` at the scaled depth.  A factor keeps angles, so the
        base's angular bound holds for the image."""
        return self.base.box_angle(self.depth(t))

    def power_norms(self, n_max: int) -> np.ndarray:
        """Dirichlet norms of phi^k, k = 1..n_max, from the image integral:
        |f|^k sqrt(k) on a disk, |f|^k times the region norms on a cusp."""
        ks = np.arange(1, n_max + 1)
        return self.modulus**ks * self.base.power_norms(ks)

    def column_tail(self, n: int) -> float:
        """sqrt(sum_{k >= n} ||phi^k||_D^2 / k), the sum over k taken inside
        the image integral: neither a cut-off nor a fitted remainder.  It is
        infinite when |f| = 1 on the disk."""
        return math.sqrt(self.base.column_tail_sq(n, self.modulus**2))


def image_of(s: SymbolMap) -> Image | None:
    """The Image of phi, or None when phi(D) is only known through the
    boundary curve of phi.  An inner disk automorphism m (`is_automorphism`:
    a Moebius map or a rotation) keeps the outer map's Image: phi(D) = X(m(D))
    = X(D), and X^k o m has the Dirichlet integral of X^k.  An outer affine
    map multiplies the inner factor and modulus by its own; the Moebius map
    with u = 0 (z -> -z) negates the factor."""
    if isinstance(s, ComposedMap) and s.inner.is_automorphism:
        return image_of(s.outer)
    if isinstance(s, AffineMap):
        return Image(_UNIT_DISK, s.factor, s.r)
    if isinstance(s, MoebiusMap):
        return Image(_UNIT_DISK)
    if isinstance(s, CuspMap):
        return Image(_CUSP_REGION)
    inner = image_of(s.inner) if isinstance(s, ComposedMap) else None
    if inner is not None and isinstance(s.outer, AffineMap):
        return Image(inner.base, s.outer.factor * inner.factor, s.outer.r * inner.modulus)
    if inner is not None and isinstance(s.outer, MoebiusMap) and s.outer.u == 0:
        return Image(inner.base, -inner.factor, inner.modulus)
    return None


# ---------------------------------------------------------------------------
# measures and windows


@dataclass(frozen=True)
class RegionMeasure:
    """A computed region mass with its method and uncertainty."""

    value: float
    std_error: float
    method: str
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


class MethodError(ValueError):
    """A region measure was asked for a route that cannot run as given: an
    unknown method name, or Monte Carlo without a seed >= 0 or without the
    2 samples its standard error takes.  Raised before any sampling."""


class _UnsupportedRegion(ValueError):
    """The request is valid, but no route answers it for this region."""


def _route(method: str, exact: str, holds: bool, samples: int, seed: int | None) -> str:
    """The route a region measure runs: "auto" takes the exact route where it
    holds, else "monte-carlo"; an exact request where it does not hold raises
    _UnsupportedRegion.  The one check of a method name and of Monte Carlo's
    seed (not None, >= 0) and samples (>= 2): MethodError otherwise."""
    names = ("auto", exact, "monte-carlo")
    if method not in names:
        raise MethodError(f"unknown method {method!r}; choose from {list(names)}")
    if method == "auto":
        method = exact if holds else "monte-carlo"
    elif method == exact and not holds:
        raise _UnsupportedRegion(f"no {exact} route for this region; use monte-carlo")
    if method == "monte-carlo" and (seed is None or seed < 0 or samples < 2):
        raise MethodError(f"Monte Carlo needs a seed >= 0 and at least 2 samples, "
                          f"not seed={seed!r} and samples={samples!r}")
    return method


def _require_univalent(s: SymbolMap):
    if not s.is_univalent:
        raise _UnsupportedRegion("region measures need a univalent symbol (n_phi = indicator)")


def image_contains(s: SymbolMap, w):
    """Membership test w in phi(D) for univalent symbols."""
    _require_univalent(s)
    image = image_of(s)
    if image is None:
        # generic univalent fallback: winding number of the near-boundary curve
        return _winding_contains(_boundary_curve(s, 0.5), w)
    return image.contains(w)


_BOUNDARY_SAMPLES = 4096


def _boundary_curve(s: SymbolMap, offset: float):
    """phi on the circle of radius 1 - 1e-7 at angles 2 pi (j + offset) / n."""
    t = 2.0 * np.pi * (np.arange(_BOUNDARY_SAMPLES) + offset) / _BOUNDARY_SAMPLES
    return np.asarray(s.evaluate((1.0 - 1e-7) * np.exp(1j * t)))


def _winding_contains(curve, w):
    """w inside the closed sampled curve, by its winding number about w.  A
    point beyond the curve's largest modulus lies outside the disk holding
    the curve's polygon, so its winding number is 0 without the sum."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    flat = w.reshape(-1)
    out = np.zeros(flat.shape, dtype=bool)
    near = np.flatnonzero(np.abs(flat) <= np.abs(curve).max())
    for i in range(0, near.size, 256):
        idx = near[i : i + 256]
        diff = curve[None, :] - flat[idx, None]
        ang = np.angle(diff)
        inc = np.diff(ang, axis=1, append=ang[:, :1])
        inc = np.mod(inc + np.pi, 2.0 * np.pi) - np.pi
        wind = np.abs(inc.sum(axis=1)) / (2.0 * np.pi)
        out[idx] = wind > 0.5
    return out.reshape(w.shape)


def _sampling_membership(s: SymbolMap, image: Image | None, t: float):
    """(w -> w in phi(D), flagged) for sampling phi(D) near depth t, given
    image = image_of(s).

    A known base gives the exact test.  Otherwise one boundary curve is
    sampled and serves both the winding test and the flag, which is set
    when that curve cannot resolve the image at depth t (`_unresolved`).
    """
    if image is not None:
        # through image_contains, whose points the benchmark tracer counts
        return (lambda w: image_contains(s, w)), False
    _require_univalent(s)
    curve = _boundary_curve(s, 0.5)
    return (lambda w: _winding_contains(curve, w)), _unresolved(s, curve, t)


def _unresolved(s: SymbolMap, b, t: float) -> bool:
    """True when b, the boundary curve of the winding test, is too coarse to
    resolve phi(D) near the annulus {|w| >= 1-t}.

    At each gap between adjacent samples, phi at the middle angle leaves the
    chord by the sagitta; the gap is unresolved when the sagitta exceeds t/8
    and the gap, widened by twice its sagitta, reaches the annulus.  A cusp
    tip reached only logarithmically fast as |z| -> 1 shows up this way:
    the sampled curve cuts it off.
    """
    a = np.roll(b, 1)
    mid = _boundary_curve(s, 0.0)  # between a[j] and b[j]
    d = b - a
    along = np.clip(((mid - a) * np.conj(d)).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
    sag = np.abs(mid - (a + along * d))
    reach = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(mid)) + 2.0 * sag
    return bool(np.any((sag > t / 8.0) & (reach >= 1.0 - t)))


def annulus_area(
    s: SymbolMap,
    t: float,
    method: str = "auto",
    samples: int = 10**6,
    seed: int | None = None,
) -> RegionMeasure:
    """Normalized area of phi(D) intersected with {|w| >= 1-t}.

    method: "exact-arcs" (closed forms / arc quadrature, wherever the image
    base is known), "monte-carlo" (membership of i.i.d. uniform points on a
    polar box about the image), or "auto".  A Monte Carlo route needs a
    seed >= 0 and samples >= 2, else MethodError; a symbol that is not
    univalent has no route at all.
    """
    _require_univalent(s)
    if not 0.0 < t <= 1.0:
        raise ValueError("annulus depth must lie in (0, 1]")
    image = image_of(s)
    if _route(method, "exact-arcs", image is not None, samples, seed) == "exact-arcs":
        return RegionMeasure(image.annulus_area(t), 0.0, "exact-arcs")
    return _mc_annulus_area(s, image, t, samples, seed)


def _mc_annulus_area(s: SymbolMap, image: Image | None, t: float, samples: int, seed: int):
    """Membership sampling of i.i.d. uniform points on the image's polar box
    (`Image.box_angle`), or on the whole annulus when the base is unknown
    (image None).  On the cusp the box is twice the image's angular extent
    at depth t, so about a sixth of the samples hit near the tip.  The box
    is drawn in the base's frame, radius over the modulus and angle about
    arg factor, and the hits are those of the base's `contains` on every
    sample, counted block by block; their standard error follows from the
    count.  No sample divides by the factor.

    The radius rho(u) = sqrt(lo2 + (1 - lo2) u) / modulus of a radial
    uniform u rounds monotonically at every step, so a sample in radial bin
    j = floor(u 2^12) (exact: u 2^12 is) lies between the bin's edge radii,
    rho(j/2^12) and rho((j+1)/2^12).  A radial base (the disk) decides by
    rho alone: one bisection over the doubles of [0, 1) finds the least u*
    whose radius fails, the hits are the u < u*, and no angle is drawn.
    Otherwise the base's `polar_cells` certify each bin's verdict below an
    inner angle and from an outer one, and only the samples between the two
    (~0.04% on the cusp) are formed by `_polar` and tested by `contains`;
    the unknown base certifies nothing, and its winding test takes every
    sample."""
    rng = np.random.default_rng(seed)
    lo2 = (1.0 - t) ** 2
    if image is None:
        contains, flagged = _sampling_membership(s, None, t)
        theta0, modulus, base = math.pi, 1.0, None
    else:
        theta0, modulus, flagged = image.box_angle(t), image.modulus, False
        base, contains = image.base, image.base.contains
    box = (1.0 - lo2) * (theta0 / np.pi)

    def radius(u):
        return np.sqrt(lo2 + (1.0 - lo2) * u) / modulus

    hits = 0
    if base is not None and base.radial:
        cut = _least_double(lambda u: not contains(radius(u)))
        for u in _draw_blocks(rng, samples):
            hits += int(np.count_nonzero(u < cut))
    else:
        edges = radius(np.arange(_MC_BINS + 1) / _MC_BINS)
        if base is None:  # nothing certified: every sample takes the winding test
            phi_in, phi_out = np.zeros(_MC_BINS), np.full(_MC_BINS, np.inf)
        else:
            phi_in, phi_out = base.polar_cells(edges)
        for u, v in _uniform_blocks(rng, samples):
            phi = theta0 * (2.0 * v - 1.0)
            angle, cell = np.abs(phi), (u * _MC_BINS).astype(np.intp)
            sure = angle < phi_in[cell]
            near = np.flatnonzero(~sure & (angle < phi_out[cell]))
            w = _polar(radius(u[near]), phi[near])
            hits += int(np.count_nonzero(sure)) + int(np.count_nonzero(contains(w)))
    value = box * (hits / samples)
    std = box * math.sqrt(hits * (samples - hits) / (samples * (samples - 1))) / math.sqrt(samples)
    return RegionMeasure(float(value), float(std), "monte-carlo", flagged)


def _least_double(fails):
    """The least double u in [0, 1) with fails(u), else 1.0, for fails
    monotone on [0, 1) (False, then True): a bisection over the doubles,
    which as non-negative numbers order as their bit patterns."""
    lo, hi = 0, int(np.float64(1.0).view(np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(float(np.int64(mid).view(np.float64))):
            hi = mid
        else:
            lo = mid + 1
    return float(np.int64(lo).view(np.float64))


# points a Monte Carlo route holds at a time: each float temporary of an
# annulus block is then 64 KB, and each complex one of a window block 128 KB,
# so a block's work stays in a 2 MiB per-core L2 cache
_MC_BLOCK = 1 << 13
# radial bins of the annulus route's angle certificates, and their margin
_MC_BINS = 1 << 12
_CELL_MARGIN = 2.0**-20


def _polar(r, theta):
    """r e^{i theta} from cos and sin, which cost less than numpy's complex
    exp.  It is bit for bit r * np.exp(1j * theta) when libm's cexp(iy) is
    (cos y, sin y), as in glibc."""
    w = np.empty(np.broadcast(r, theta).shape, dtype=complex)
    w.real = r * np.cos(theta)
    w.imag = r * np.sin(theta)
    return w


def _uniform_blocks(rng, samples: int):
    """Yield (u, v), blocks of at most _MC_BLOCK uniforms each: u runs through
    rng.random(samples) and v through the rng.random(samples) drawn after it,
    so seeded results are those of drawing all of u, then all of v, at once.
    v comes from a copy of rng advanced past u (PCG64 spends one 64-bit draw
    per double); rng ends where both one-shot draws leave it."""
    angles = copy.deepcopy(rng)
    angles.bit_generator.advance(samples)
    yield from zip(_draw_blocks(rng, samples), _draw_blocks(angles, samples))
    rng.bit_generator.advance(samples)


def _draw_blocks(rng, samples: int):
    """rng.random(samples) in blocks of at most _MC_BLOCK."""
    for start in range(0, samples, _MC_BLOCK):
        yield rng.random(min(_MC_BLOCK, samples - start))


_DYADIC_CUT = 50  # M(t) computes the dyadic terms j = 0.._DYADIC_CUT


def M_functional(s: SymbolMap, t: float) -> float:
    """Dyadic sum M(t) = sum_{j >= 0} area(t 2^-j) 4^j / t^2 of exact annulus
    masses, the terms j <= _DYADIC_CUT from one `Image.annulus_area` call.
    The rest is bounded, not fitted.  It is 0 when t 2^-(_DYADIC_CUT+1) <=
    1 - |f|: no omitted annulus {|w| >= 1 - t 2^-j} then reaches the image,
    which lies in |w| < |f|.  Otherwise those depths lie far below the
    cusp's first breakpoint and the base's `tip_area_constant` C bounds the
    j-th term by C t 2^-j, the rest by C t 2^-_DYADIC_CUT; C is infinite on
    the disk.  An unknown image base raises: it would need sampling."""
    if not 0.0 < t <= 1.0:
        raise ValueError("annulus depth must lie in (0, 1]")
    image = image_of(s)
    if image is None:
        raise _UnsupportedRegion(
            f"M(t) needs a known image base (disk or cusp region); {s.spec_string()} has none"
        )
    j = np.arange(_DYADIC_CUT + 1)
    reaches = t * 2.0 ** -(_DYADIC_CUT + 1) > 1.0 - image.modulus
    rest = image.base.tip_area_constant * t * 2.0**-_DYADIC_CUT if reaches else 0.0
    return float(np.dot(image.annulus_area(t * 0.5**j), 4.0**j)) / t**2 + rest


# elementwise math.pow, the power of Python and numpy scalars; numpy's
# vectorised power can differ from it in the last bit
_pow = np.frompyfunc(math.pow, 2, 1)


def zinc_upper_bound(s: SymbolMap, n):
    """min over a fixed t-grid of n (1-t)^n + sqrt(M(t)), for an index n or an
    array of indices; returns (value, argmin t), each of n's shape.

    M(t) does not depend on n, so it is computed once per grid point.  The
    infimum form bounds the n-th approximation number up to a constant.
    """
    grid = list(np.exp(np.linspace(math.log(1e-4), math.log(0.999), 40)))
    grid += [2.0**-l for l in range(1, 12)]
    image = image_of(s)
    if image is not None and image.modulus < 1.0:
        grid.append(1.0 - image.modulus)  # largest t with empty annulus
    ts = np.array(sorted(grid))
    # an infinite M(t) never wins the minimum
    root_M = np.sqrt([M_functional(s, float(t)) for t in ts])
    if np.all(np.isinf(root_M)):
        raise ArithmeticError("no grid point admitted a convergent M(t)")
    ns = np.asarray(n)[..., None]
    vals = ns * _pow(1.0 - ts, ns).astype(float) + root_M  # [..., t]
    best = vals.argmin(axis=-1)
    value = np.take_along_axis(vals, best[..., None], axis=-1)[..., 0]
    if value.ndim == 0:
        return float(value), float(ts[best])
    return value, ts[best]


# ---------------------------------------------------------------------------
# Carleson windows


def _window_blocks(rng, xi: complex, h: float, samples: int):
    """Uniform points of the disk |w - xi| < h, one block at a time: radius
    h sqrt(U), angle 2 pi U', all radii drawn before all angles."""
    for u, v in _uniform_blocks(rng, samples):
        yield xi + _polar(h * np.sqrt(u), 2.0 * np.pi * v)


def _mc_window(contains, weight, xi: complex, h: float, rng, samples: int):
    """(value, std error) of (1/pi) * integral of weight(w) over the points of
    S(xi, h) that pass contains, from uniform window samples.  Membership is
    tested only on the samples in the disk, the weight only on the members.
    Each block's (count, mean, M2) is merged into the running ones by Chan's
    update, which does not cancel as sum v^2 - n mean^2 does."""
    n, mean, m2 = 0, 0.0, 0.0
    for w in _window_blocks(rng, xi, h, samples):
        kept = np.flatnonzero(np.abs(w) < 1.0)
        hit = kept[contains(w[kept])]
        vals = np.zeros(w.size)
        vals[hit] = weight(w[hit])
        b_mean = vals.mean()
        dev = vals - b_mean
        delta, total = b_mean - mean, n + w.size
        mean += delta * (w.size / total)
        m2 += float(np.dot(dev, dev)) + delta * delta * (n * w.size / total)
        n = total
    return float(h**2 * mean), float(h**2 * math.sqrt(m2 / (n - 1)) / math.sqrt(n))


def window_area(
    s: SymbolMap,
    window: CarlesonWindow,
    method: str = "auto",
    samples: int = 10**6,
    seed: int | None = None,
) -> RegionMeasure:
    """Normalized area of S(xi, h) n phi(D).  "exact-arcs" holds on every
    image f * (cusp region): the window rule with |B|^2 = 1 about xi/f with
    radius h/|f|, scaled by |f|^2.  A Monte Carlo route needs a seed >= 0
    and samples >= 2, else MethodError."""
    _require_univalent(s)
    xi, h = complex(window.xi), window.h
    image = image_of(s)
    cusp = image is not None and image.base is _CUSP_REGION
    if _route(method, "exact-arcs", cusp, samples, seed) == "exact-arcs":
        m = image.modulus
        value = m**2 * _window_mean_quadrature(BlaschkeProduct(()), xi / image.factor, h / m)
        return RegionMeasure(value, 0.0, "exact-arcs")
    # S(xi, h) lies in the annulus {|w| > 1-h}: the depth-h flag covers it
    contains, flagged = _sampling_membership(s, image, h)
    value, std = _mc_window(contains, lambda w: 1.0, xi, h, np.random.default_rng(seed), samples)
    return RegionMeasure(value, std, "monte-carlo", flagged)


# ---------------------------------------------------------------------------
# Blaschke products and the embedding certificate


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with real zeros, raised to an integer power."""

    zeros: tuple
    power: int = 1

    def __post_init__(self):
        if not all(isinstance(z, numbers.Real) and math.isfinite(z) for z in self.zeros):
            raise ValueError("Blaschke zeros must be finite real numbers")
        if any(abs(z) >= 1.0 for z in self.zeros):
            raise ValueError("Blaschke zeros must lie in the open disk")
        if not isinstance(self.power, numbers.Integral):
            raise ValueError("power must be an integer")
        if self.power < 0:
            raise ValueError("power must be nonnegative")

    def abs2(self, w):
        """|B(w)|^2, vectorized; stays in [0, 1] on the closed disk.  A real
        zero z contributes ((x-z)^2 + y^2) / ((1-zx)^2 + (zy)^2), w = x+iy."""
        w = np.asarray(w, dtype=complex)
        flat, out = w.reshape(-1), np.empty(w.size)
        # _MC_BLOCK points at a time, so every zero's passes over them stay in cache
        for start in range(0, w.size, _MC_BLOCK):
            block = flat[start : start + _MC_BLOCK]
            x, y2 = block.real.copy(), block.imag**2  # a contiguous x: every zero reads it twice
            b = np.ones(block.size)
            for z in self.zeros:
                b *= (np.square(x - z) + y2) / (np.square(1.0 - z * x) + z * z * y2)
            out[start : start + _MC_BLOCK] = b**self.power
        return out.reshape(w.shape)


def unit_interval_dyadic_zeros(count: int) -> tuple:
    """Zeros 1 - 2^-j, j = 1..count, accumulating at the cusp point."""
    return tuple(1.0 - 2.0**-j for j in range(1, count + 1))


def default_window_grid():
    """(centres, sizes) of the windows near the contact point: the centres
    xi = exp(i theta), theta = 0, +2^-1, -2^-1, ..., +2^-8, -2^-8, and the
    sizes h = 2^-l, l = 1..12, as one float array.  Every size is taken
    about every centre."""
    thetas = [0.0] + [s * 2.0**-j for j in range(1, 9) for s in (+1.0, -1.0)]
    centres = [math.cos(t) + 1j * math.sin(t) for t in thetas]
    return centres, np.array([2.0**-l for l in range(1, 13)])


def _window_mean_quadrature(b: BlaschkeProduct, xi: complex, h):
    """(1/pi) integral of |B|^2 over S(xi, h) n cusp region, xi anywhere, for
    a size h or an array of sizes: the radius sigma about xi on the panel
    rule split at the region's kinks (`_sized_rule` at `CuspRegion.kinks`),
    and Gauss nodes on each piece of the slice's arcs (`CuspRegion.arcs`)
    at every sigma.  Each size's window is a prefix of the nodes, summed by
    its own dot product (a cumulative sum would round the small windows
    off).  A scalar h returns a float."""
    hs = np.atleast_1d(np.asarray(h, dtype=float))
    sigma, weights = _sized_rule(_CUSP_REGION.kinks(xi), hs)
    turn, lo, hi = _CUSP_REGION.arcs(xi, sigma)
    i, j = np.nonzero(hi > lo)
    phi, arc_weights = _panel_rule(lo[i, j], hi[i, j])
    n = _GAUSS[0].size
    radius = np.repeat(sigma[i], n)
    values = b.abs2(xi + radius * turn * _polar(1.0, phi))
    mass = radius * np.repeat(weights[i], n) * arc_weights
    # a node rounded onto a size belongs to the panel that ends there
    prefixes = np.searchsorted(radius, hs, side="right")
    means = np.array([np.dot(mass[:e], values[:e]) for e in prefixes]) / math.pi
    return float(means[0]) if np.ndim(h) == 0 else means


def blaschke_certificate(
    r: int,
    method: str = "auto",
    samples: int = 200_000,
    seed: int | None = None,
) -> float:
    """sup over Carleson windows of (1/h) * integral of |B|^2 over the window
    intersected with the cusp region, B = (Blaschke with dyadic zeros)^r.

    method: "quadrature" (also what "auto" runs) or "monte-carlo", which
    needs a seed >= 0 and samples >= 2, else MethodError.
    """
    b = BlaschkeProduct(unit_interval_dyadic_zeros(r), power=r)
    if _route(method, "quadrature", True, samples, seed) == "quadrature":
        return _window_sup(b)
    centres, sizes = default_window_grid()
    rng = np.random.default_rng(seed)
    return max(_mc_window(_CUSP_REGION.contains, b.abs2, xi, h, rng, samples)[0] / h
               for xi in centres for h in sizes.tolist())


def _window_sup(b: BlaschkeProduct) -> float:
    """max over `default_window_grid()` of the quadrature's window mean / h,
    one `_window_mean_quadrature` call for all the sizes about each centre.

    Only the 9 centres with theta >= 0 are integrated: the cusp region is
    symmetric under conjugation and B has real zeros, so |B|^2 is too, and
    the window about conj(xi) has the mean of the window about xi.
    """
    centres, sizes = default_window_grid()
    return max(float(np.max(_window_mean_quadrature(b, xi, sizes) / sizes))
               for xi in centres if xi.imag >= 0.0)


# ---------------------------------------------------------------------------
# region-side spectral data (independent of any Taylor expansion)


_GRAM_BLOCK = 128  # rows m and columns q of the region Gram built at a time
# nodes a Gram block sums over at a time, in two reused 0.5 MB buffers: a
# q-block on all 7159 nodes held up to three 7.3 MB temporaries at once
_GRAM_CHUNK = 512
_GRAM_CUT = 1e-30  # a block drops the nodes whose s^(2m+q) is below this


def region_gram_singular_values(N: int) -> np.ndarray:
    """Singular values of the cusp composition operator restricted to the
    span of the first N basis vectors, from the image-region Gram matrix.

    G[m, m'] = sqrt((m+1)(m'+1)) (1/pi) int_region w^m conj(w)^m' dA is the
    compression of a positive contraction; its eigenvalues are the squared
    restricted singular values.  Entirely independent of Taylor coefficients.

    Only the upper triangle G[m, m+q] = sqrt((m+1)(m+q+1)) P[m, q] is built,
    P[m, q] = sum_i weight_i s_i^(2m+q) ang_q(u_i), in blocks of _GRAM_BLOCK
    columns q and rows m < N - q.  The nodes where the block's largest power
    s^(2 m0 + q0) is at least _GRAM_CUT are a prefix of the rule's, and the
    block runs on that prefix alone, summed over chunks of _GRAM_CHUNK
    nodes: the chunks drop the same nodes, and only reassociate the sums
    (~1e-13 relative on the top singular values).  The nodes dropped have
    s^(2m+q) < _GRAM_CUT, |ang_q| <= 2 pi and the weights sum to 1/(2 pi), so
    each P entry loses at most _GRAM_CUT, each G entry at most N _GRAM_CUT,
    and by Weyl's inequality each eigenvalue moves by at most N^2 _GRAM_CUT,
    ~1e-24 at N = 1024.

    The values come from `linalg.gram_singular_values`, a pivoted Cholesky
    factor of G stopped at a residual trace of eps trace G: each squared
    value is a lower end of its eigenvalue, within eps trace G, and past the
    factor's rank (61 at N = 1024) the values are exact zeros.
    """
    if N < 1:
        raise ValueError("N must be positive")
    u, wts = _CUSP_REGION.radial_rule()
    alpha, lo, hi = _CUSP_REGION.arc_data(u)
    log_s = np.log1p(-u)  # decreasing

    def prefix(k):
        """Number of leading nodes with s^k >= _GRAM_CUT."""
        return int(np.searchsorted(-k * log_s, -math.log(_GRAM_CUT), side="right"))

    G = np.zeros((N, N))
    # B[q, node] and a scratch array (s^(2m) at the end) of one node chunk,
    # reused by every chunk
    chunk = np.empty((2, _GRAM_BLOCK, _GRAM_CHUNK))
    for q0 in range(0, N, _GRAM_BLOCK):
        q = np.arange(q0, min(q0 + _GRAM_BLOCK, N))
        rows = [np.arange(m0, min(m0 + _GRAM_BLOCK, N - q0)) for m0 in range(0, N - q0, _GRAM_BLOCK)]
        prefixes = [prefix(2 * m[0] + q0) for m in rows]  # prefixes[0] = prefix(q0)
        P = np.zeros((N - q0, q.size))
        for c0 in range(0, prefixes[0], _GRAM_CHUNK):
            nodes = slice(c0, min(c0 + _GRAM_CHUNK, prefixes[0]))
            B, T = chunk[:, : q.size, : nodes.stop - c0]
            # angular factor: int over arcs of cos(q theta) dtheta (even in theta)
            np.sin(np.outer(q, alpha[nodes], out=B), out=B)
            B -= np.sin(np.outer(q, hi[nodes], out=T), out=T)
            B += np.sin(np.outer(q, lo[nodes], out=T), out=T)
            B *= (2.0 / np.maximum(q, 1))[:, None]
            if q0 == 0:
                B[0] = _CUSP_REGION.angular_measure(u[nodes])
            B *= np.exp(np.outer(q, log_s[nodes], out=T), out=T)
            B *= wts[nodes]  # B[q, node] = weight s^q ang_q
            for m, k in zip(rows, prefixes):
                if k <= c0:
                    break  # the prefixes shrink down the rows
                E = chunk[1, : m.size, : min(k, nodes.stop) - c0]
                np.exp(np.outer(2.0 * m, log_s[c0 : c0 + E.shape[1]], out=E), out=E)
                P[m] += E @ B[:, : E.shape[1]].T
        for m in rows:
            # the q-th diagonal: G[m, m+q] = sqrt((m+1)(m+q+1)) P[m, q], m + q < N
            r, c = np.nonzero(m[:, None] + q < N)
            i, j = m[r], m[r] + q[c]
            G[i, j] = np.sqrt((i + 1.0) * (j + 1.0)) * P[i, c]
    del chunk, B, T, E, P  # the chunk views hold its buffer
    return gram_singular_values(G)
