"""Catalog of analytic self-maps of the unit disk (Schur functions).

Every map comes with closed-form evaluation and derivative, plus the
facts the rest of the library needs, read off its parameters: univalence,
an exact sup-norm when one is known, the value phi(0) (and so whether the
origin is fixed), whether the Taylor coefficients are real and the degree
of a polynomial symbol.  The star of the catalog is the cusp map, built
from a Moebius transform onto the right half-disk followed by log/inversion
stages; its image is the region bounded by three circular arcs meeting at 1.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "SymbolMap",
    "AffineMap",
    "MoebiusMap",
    "CuspMap",
    "ComposedMap",
    "CoefficientMap",
    "CUSP_DIAMETER",
    "cusp_halfdisk_map",
    "EVAL_ULPS",
    "circle_sup_bounds",
    "evaluate_boundary",
    "pseudo_hyperbolic_sup",
    "parse_symbol",
    "builtin_contractions",
]

# Diameter of the cusp image along the real axis; the image is the inside of
# D(1-a/2, a/2) minus the closed disks D(1 +/- ia/2, a/2), all three circles
# passing through 1.  Chosen so the cusp map sends 0 to 0.
CUSP_DIAMETER = 1.0 - (2.0 / math.pi) * math.log(math.sqrt(2.0) - 1.0)

# bound on a sample's error in ulps, at its rounded point against mpmath at
# the exact angle; measured worst, the cusp's tip: 9.3 (M=64) to 164 (M=8192)
EVAL_ULPS = 1024.0


class DomainError(ValueError):
    """Evaluation requested outside the open unit disk."""


def _check_in_disk(z):
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("evaluation point must satisfy |z| < 1")


def _scalar_or_array(out):
    out = np.asarray(out)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class SymbolMap:
    """Base for all symbols.  Instances are immutable and thread-safe.

    Each kind writes its closed form once, as `_map` and `_map_derivative`
    on complex arrays of the closed disk; `evaluate` and `derivative` add
    the open-disk check and `evaluate_boundary` the check |xi| = 1.

    The facts below are read off each kind's parameters, never stored: a
    kind overrides them with constants or properties.  They stay plain class
    attributes here, since an annotation would make them dataclass fields.
    `origin` is phi(0); it has no default, so every kind states it.
    """

    is_univalent = False
    sup_norm_hint = None  # an exact sup |phi| when one is known
    real_coefficients = False  # phi(conj z) = conj(phi(z))
    degree = None  # the degree when phi is known to be a polynomial

    @property
    def origin(self) -> complex:
        raise NotImplementedError

    @property
    def fixes_origin(self) -> bool:
        return abs(self.origin) <= 1e-12

    @property
    def sup_bound(self) -> float | None:
        """An upper bound on sup |phi|, None when none is known: the exact
        `sup_norm_hint` unless the kind bounds it without knowing it."""
        return self.sup_norm_hint

    @property
    def is_automorphism(self) -> bool:
        """phi maps the disk onto itself: a Moebius map or a rotation c z, |c| = 1."""
        return self.degree == 1 and self.origin == 0 and self.sup_norm_hint == 1.0

    def evaluate(self, z):
        _check_in_disk(z)
        return _scalar_or_array(self._map(np.asarray(z, dtype=complex)))

    def derivative(self, z):
        _check_in_disk(z)
        return _scalar_or_array(self._map_derivative(np.asarray(z, dtype=complex)))

    def _map(self, z):
        raise NotImplementedError

    def _map_derivative(self, z):
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class AffineMap(SymbolMap):
    """z -> r e^{i theta} z.  Identity for r=1, theta=0."""

    r: float
    theta: float = 0.0

    is_univalent = True
    origin = 0j
    degree = 1

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise ValueError("affine scale must lie in (0, 1]")
        if not math.isfinite(self.theta):
            raise ValueError("affine angle must be finite")

    @property
    def sup_norm_hint(self) -> float:
        return self.r

    @property
    def factor(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))

    @property
    def real_coefficients(self) -> bool:
        return self.factor.imag == 0.0

    def _map(self, z):
        return self.factor * z

    def _map_derivative(self, z):
        return np.full_like(z, self.factor)

    def spec_string(self):
        return f"affine:r={self.r!r},theta={self.theta!r}"


@dataclass(frozen=True)
class MoebiusMap(SymbolMap):
    """Disk automorphism z -> (u - z)/(1 - conj(u) z), u in the disk."""

    u: complex

    is_univalent = True
    is_automorphism = True
    sup_norm_hint = 1.0

    def __post_init__(self):
        if not abs(self.u) < 1.0:  # NaN fails this too
            raise ValueError("Moebius parameter must lie in the open disk")

    @property
    def origin(self) -> complex:
        return complex(self.u)

    @property
    def real_coefficients(self) -> bool:
        return complex(self.u).imag == 0.0

    @property
    def degree(self) -> int | None:
        return 1 if self.u == 0 else None  # u = 0 is z -> -z

    def _map(self, z):
        return (self.u - z) / (1.0 - np.conj(self.u) * z)

    def _map_derivative(self, z):
        return (abs(self.u) ** 2 - 1.0) / (1.0 - np.conj(self.u) * z) ** 2

    def spec_string(self):
        u = complex(self.u)
        return f"moebius:u={u.real!r}{u.imag:+}i"


def _cusp_stages(z):
    """Stages of the cusp chain on the closed disk: (den, w, h0, h2) with
    den = iz - 1, w = sqrt((z - i)/den), the half-disk value
    h0 = (w - i)/(1 - iw) and h2 = 1 - (2/pi) log h0.

    The pole z = -i of the half-disk stage takes its limit h0 = i, and the
    corner z = 1, where h0 = 0, gets h2 = inf.  The quotient q = w^2 maps the
    open disk onto the open upper half-plane; on the circle roundoff can put
    it just below the real axis, where sqrt would take the reflected branch,
    so Im q is taken by its modulus.
    """
    den = 1j * z - 1.0
    pole = np.abs(den) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (z - 1j) / np.where(pole, 1.0, den)
        w = np.sqrt(q.real + 1j * np.abs(q.imag))
        h0 = np.where(pole, 1j, (w - 1j) / (-1j * w + 1.0))
        tip = np.abs(h0) < 1e-300
        h2 = np.where(tip, np.inf, 1.0 - (2.0 / math.pi) * np.log(np.where(tip, 1.0, h0)))
    return den, w, h0, h2


def cusp_halfdisk_map(z):
    """First stage of the cusp chain: conformal map of the disk onto the
    right half-disk {|w| < 1, Re w > 0}.

    Sends 1 -> 0, -1 -> 1, i -> -i, -i -> i and 0 -> sqrt(2) - 1; valid on
    the closed disk (see `_cusp_stages`).
    """
    return _scalar_or_array(_cusp_stages(np.asarray(z, dtype=complex))[2])


@dataclass(frozen=True)
class CuspMap(SymbolMap):
    """Univalent map of the disk onto the cusp domain touching the circle at 1.

    The image is the interior of D(1-a/2, a/2) with the two closed disks
    D(1 +/- ia/2, a/2) removed, a = CUSP_DIAMETER; the three circles meet at
    the cusp point 1.  The map fixes the origin and sends -1 to 1 - a.
    """

    is_univalent = True
    sup_norm_hint = 1.0
    origin = 0j
    real_coefficients = True

    def _map(self, z):
        h2 = _cusp_stages(z)[3]
        with np.errstate(invalid="ignore"):
            return np.where(np.isinf(h2), 1.0, 1.0 - CUSP_DIAMETER / h2)

    def _map_derivative(self, z):
        den, w, h0, h2 = _cusp_stages(z)
        # chain rule through q -> sqrt -> Moebius -> log -> inversion
        dq = -2.0 / den**2
        dw = dq / (2.0 * w)
        dh0 = 2.0 * dw / (1.0 - 1j * w) ** 2
        dh2 = -(2.0 / math.pi) * dh0 / h0
        return CUSP_DIAMETER * dh2 / h2**2

    def spec_string(self):
        return "cusp"


@dataclass(frozen=True)
class ComposedMap(SymbolMap):
    """outer o inner; both factors must be Schur functions."""

    outer: SymbolMap
    inner: SymbolMap

    @property
    def is_univalent(self) -> bool:
        return self.outer.is_univalent and self.inner.is_univalent

    @property
    def sup_norm_hint(self) -> float | None:
        # an inner disk automorphism m keeps the outer sup: X(m(D)) = X(D)
        if self.inner.is_automorphism:
            return self.outer.sup_norm_hint
        inner = self.inner.sup_norm_hint
        if inner is None:
            return None
        if isinstance(self.outer, AffineMap):
            return self.outer.r * inner
        if isinstance(self.outer, MoebiusMap):
            # the automorphism's largest modulus on |w| <= inner, taken at
            # w = -inner u/|u|: exact when the inner image is that disk, at
            # u = 0 (w -> -w) and at inner = 1 (|m(w)| -> 1 as |w| -> 1)
            u = abs(self.outer.u)
            if u == 0 or inner == 1.0 or _is_centred_disk_map(self.inner):
                return (inner + u) / (1.0 + inner * u)
        return None

    @property
    def origin(self) -> complex:
        w = self.inner.origin
        return self.outer.origin if w == 0 else complex(self.outer._map(np.asarray(w)))

    @property
    def real_coefficients(self) -> bool:
        return self.outer.real_coefficients and self.inner.real_coefficients

    @property
    def degree(self) -> int | None:
        outer, inner = self.outer.degree, self.inner.degree
        return None if outer is None or inner is None else outer * inner

    def _inner_values(self, z):
        # the outer closed form is only valid on the closed disk
        w = self.inner._map(z)
        if np.any(np.abs(w) > 1.0 + 1e-12):
            raise DomainError("inner factor leaves the closed unit disk")
        return w

    def _map(self, z):
        return self.outer._map(self._inner_values(z))

    def _map_derivative(self, z):
        return self.outer._map_derivative(self._inner_values(z)) * self.inner._map_derivative(z)

    def spec_string(self):
        return f"compose({self.outer.spec_string()},{self.inner.spec_string()})"


def _is_centred_disk_map(s: SymbolMap) -> bool:
    """s(D) is the centred disk {|w| < sup|s|}: s is c z after inner automorphisms."""
    while isinstance(s, ComposedMap) and s.inner.is_automorphism:
        s = s.outer
    return s.degree == 1 and s.origin == 0


@dataclass(frozen=True)
class CoefficientMap(SymbolMap):
    """Polynomial symbol c_0 + c_1 z + ... + c_M z^M, a self-map of the disk
    on the caller's word.  Univalence is Alexander's sufficient criterion
    sum_{j>=2} j|c_j| <= |c_1| != 0 (Ann. of Math. 17, 1915); sup |phi| is
    sum c_j, reached at z = 1, when no c_j is negative or complex, and at
    most sum |c_j| always."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if not all(cmath.isfinite(c) for c in self.coeffs):
            raise ValueError("polynomial coefficients must be finite")

    @property
    def is_univalent(self) -> bool:
        c = self.coeffs + (0j, 0j)
        return c[1] != 0 and sum(j * abs(cj) for j, cj in enumerate(c[2:], 2)) <= abs(c[1])

    @property
    def sup_norm_hint(self) -> float | None:
        known = all(c.imag == 0.0 and c.real >= 0.0 for c in self.coeffs)
        return sum(c.real for c in self.coeffs) if known else None

    @property
    def sup_bound(self) -> float:
        return sum(abs(c) for c in self.coeffs)

    @property
    def origin(self) -> complex:
        return self.coeffs[0] if self.coeffs else 0j

    @property
    def real_coefficients(self) -> bool:
        return all(c.imag == 0.0 for c in self.coeffs)

    @property
    def degree(self) -> int:
        return max((i for i, c in enumerate(self.coeffs) if c != 0), default=0)

    def _map(self, z):
        return np.polynomial.polynomial.polyval(z, np.asarray(self.coeffs))

    def _map_derivative(self, z):
        d = np.polynomial.polynomial.polyder(np.asarray(self.coeffs))
        return np.polynomial.polynomial.polyval(z, d)

    def spec_string(self):
        inner = ",".join(
            f"{c.real!r}" if c.imag == 0 else f"{c.real!r}{c.imag:+}i" for c in self.coeffs
        )
        return f"coeffs:[{inner}]"


# ---------------------------------------------------------------------------
# boundary values and the pseudo-hyperbolic derivative


def evaluate_boundary(s: SymbolMap, xi):
    """Boundary value at |xi| = 1, for diagnostics only: every kind's closed
    form extends continuously to the circle (the cusp corner z = 1 maps to
    the tip 1, the half-disk pole z = -i to its limit)."""
    xi = np.asarray(xi, dtype=complex)
    if np.any(np.abs(np.abs(xi) - 1.0) > 1e-12):
        raise ValueError("boundary evaluation requires |xi| = 1")
    return _scalar_or_array(s._map(xi))


_RING_DEPTH = 12


def _ring_grid(depth: int) -> np.ndarray:
    """The origin, then rings at radii 1 - 2^-l, l = 1..depth, ring l carrying
    max(64, 2^(l+4)) equally spaced angles from 0; a prefix of every deeper grid."""
    rings = [np.zeros(1, dtype=complex)]
    for l in range(1, depth + 1):
        radius, n = 1.0 - 2.0 ** (-l), max(64, 2 ** (l + 4))
        rings.append(radius * np.exp(1j * (2.0 * np.pi * np.arange(n) / n)))
    return np.concatenate(rings)


def pseudo_hyperbolic_sup(s: SymbolMap) -> float:
    """Grid lower estimate of sup |phi'(z)| (1-|z|^2) / (1-|phi(z)|^2).

    The grid is `_ring_grid(_RING_DEPTH)`, evaluated in one call.  Deeper
    grids contain shallower ones, so the estimate is monotone nondecreasing
    in the depth; the Schwarz-Pick inequality caps the true sup at 1.
    """
    z = _ring_grid(_RING_DEPTH)
    w, dw = s.evaluate(z), s.derivative(z)
    denom = 1.0 - np.abs(w) ** 2
    val = np.abs(dw) * (1.0 - np.abs(z) ** 2)
    ratio = np.divide(val, denom, out=np.zeros_like(val), where=denom > 0)
    # Schwarz-Pick: the true ratio never exceeds 1; excesses are roundoff
    return float(np.minimum(ratio, 1.0).max())


def circle_sup_bounds(s: SymbolMap, radii, samples: int) -> np.ndarray:
    """Upper bounds on S(r) = max_{|z| = r} |phi| at each radius r < 1.

    Each circle is sampled at `samples` equispaced angles from 0 (only those
    in [0, pi] for real coefficients, where |phi| is symmetric).  Every point
    of the circle lies within an arc pi r/samples of a sample, and a self-map
    has |phi'(z)| <= 1/(1 - |z|^2) (Schwarz-Pick), so S(r) exceeds the largest
    sample by at most pi r/(samples (1 - r^2)); the samples themselves are
    good to `EVAL_ULPS`.  An inner rotation (an automorphism fixing 0) maps
    every circle onto itself, so the outer map is sampled instead.  Capped
    at 1, as |phi| < 1.
    """
    while isinstance(s, ComposedMap) and s.inner.is_automorphism and s.inner.origin == 0:
        s = s.outer
    r = np.asarray(radii, dtype=float)
    theta = 2.0 * np.pi * np.arange(samples // 2 + 1 if s.real_coefficients else samples) / samples
    peaks = np.abs(s.evaluate(np.outer(r, np.exp(1j * theta)))).max(axis=1)
    slack = np.pi * r / (samples * (1.0 - r * r))
    return np.minimum(peaks * (1.0 + EVAL_ULPS * np.finfo(float).eps) + slack, 1.0)


# ---------------------------------------------------------------------------
# string specs:  "cusp", "affine:r=0.5,theta=0", "moebius:u=0.3+0i",
# "compose(outer,inner)", "coeffs:[...]"


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j").replace(" ", ""))


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_symbol(spec: str) -> SymbolMap:
    """Build a SymbolMap from its CLI/config string form."""
    spec = spec.strip()
    if spec == "cusp":
        return CuspMap()
    if spec == "identity":
        return AffineMap(1.0, 0.0)
    m = re.fullmatch(r"compose\((.+)\)", spec)
    if m:
        parts = _split_top_level(m.group(1))
        if len(parts) < 2:
            raise ValueError(f"compose(...) needs two symbols: {spec!r}")
        # symbol specs may contain their own commas (affine:r=..,theta=..);
        # accept the unique split where both halves parse
        for cut in range(1, len(parts)):
            left, right = ",".join(parts[:cut]), ",".join(parts[cut:])
            try:
                return ComposedMap(parse_symbol(left), parse_symbol(right))
            except ValueError:
                continue
        raise ValueError(f"cannot split compose(...) into two symbols: {spec!r}")
    if spec.startswith("affine:"):
        kv = dict(item.split("=", 1) for item in spec[len("affine:"):].split(","))
        unknown = set(kv) - {"r", "theta"}
        if unknown:
            raise ValueError(f"unknown affine parameters {sorted(unknown)}")
        return AffineMap(float(kv["r"]), float(kv.get("theta", "0")))
    if spec.startswith("moebius:"):
        kv = dict(item.split("=", 1) for item in spec[len("moebius:"):].split(","))
        if set(kv) != {"u"}:
            raise ValueError(f"moebius spec needs exactly u=...: {spec!r}")
        return MoebiusMap(_parse_complex(kv["u"]))
    m = re.fullmatch(r"coeffs:\[(.*)\]", spec)
    if m:
        items = [_parse_complex(t) for t in m.group(1).split(",") if t.strip()]
        if not items:
            raise ValueError("coeffs:[...] needs at least one coefficient")
        return CoefficientMap(tuple(items))
    raise ValueError(f"unrecognized symbol spec {spec!r}")


def builtin_contractions() -> list[SymbolMap]:
    """Built-in symbols with sup norm < 1, used by the sandwich checks; the
    fourth is 0.7 * moebius(0.3) with its value 0.21 at 0 moved back to 0."""
    return [parse_symbol(spec) for spec in (
        "affine:r=0.3", "affine:r=0.5", f"affine:r=0.7,theta={math.pi / 3!r}",
        "compose(moebius:u=0.21+0i,compose(affine:r=0.7,moebius:u=0.3+0i))",
        "coeffs:[0,0.5,0.25]")]
