import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compopnum.series import SeriesParams, power_coefficient_table
from compopnum.symbols import (
    CUSP_DIAMETER,
    AffineMap,
    CoefficientMap,
    ComposedMap,
    CuspMap,
    DomainError,
    MoebiusMap,
    SymbolMap,
    _ring_grid,
    builtin_contractions,
    circle_sup_bounds,
    cusp_halfdisk_map,
    evaluate_boundary,
    parse_symbol,
    pseudo_hyperbolic_sup,
)

ALL_SYMBOLS = [
    AffineMap(0.5),
    AffineMap(1.0),
    AffineMap(0.7, theta=math.pi / 3),
    MoebiusMap(0.3),
    MoebiusMap(0.2 - 0.4j),
    CuspMap(),
    ComposedMap(AffineMap(0.9), CuspMap()),
    CoefficientMap((0.0, 0.5, 0.25)),
    parse_symbol("compose(moebius:u=0.3+0.2i,affine:r=0.5)"),
]


def disk_points(n, seed=0):
    g = np.random.default_rng(seed)
    return np.sqrt(g.random(n)) * 0.999 * np.exp(2j * np.pi * g.random(n))


def test_cusp_fixes_origin():
    assert abs(CuspMap().evaluate(0.0)) <= 1e-12


def test_cusp_halfdisk_corner_values():
    assert abs(cusp_halfdisk_map(0.0) - (math.sqrt(2) - 1)) <= 1e-12
    assert abs(cusp_halfdisk_map(1j) - (-1j)) <= 1e-8
    assert abs(cusp_halfdisk_map(-1j) - 1j) <= 1e-8
    assert abs(cusp_halfdisk_map(-1.0) - 1.0) <= 1e-12
    assert abs(cusp_halfdisk_map(1.0)) <= 1e-12


def test_cusp_diameter_constant():
    assert CUSP_DIAMETER == pytest.approx(1.5610998523391801, abs=1e-12)
    assert 1.0 < CUSP_DIAMETER < 2.0


def test_cusp_at_minus_one():
    val = evaluate_boundary(CuspMap(), -1.0)
    assert abs(val - (1.0 - CUSP_DIAMETER)) <= 1e-12
    assert val == pytest.approx(-0.56109985, abs=1e-8)


# the catalog with compositions whose boundary values chain closed forms
BOUNDARY_SYMBOLS = ALL_SYMBOLS + [s for s in builtin_contractions() if s not in ALL_SYMBOLS] + [
    parse_symbol(spec)
    for spec in (
        "compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))",
        "compose(affine:r=0.95,theta=2,cusp)",
        "compose(moebius:u=0.3+0.1i,cusp)",
        "compose(cusp,moebius:u=0.3+0.1i)",
    )
]


@pytest.mark.parametrize(
    "s",
    BOUNDARY_SYMBOLS + [
        parse_symbol(spec)
        for spec in ("moebius:u=0.3+0i", "coeffs:[0,0.5,0.25]", "affine:r=0.7,theta=1",
                     "moebius:u=0.3+0.1i", "coeffs:[0,0.5+0.1i,0.25]",
                     "compose(affine:r=0.9,theta=1,cusp)")
    ],
    ids=lambda s: s.spec_string(),
)
def test_real_coefficients_never_lies(s):
    # real Taylor coefficients <=> phi(conj z) = conj phi(z), which either
    # holds to roundoff or fails visibly
    z = disk_points(2000, seed=3)
    gap = np.abs(s.evaluate(np.conj(z)) - np.conj(s.evaluate(z))).max()
    assert gap <= 1e-14 or gap >= 1e-3
    assert s.real_coefficients == (gap <= 1e-14)


@pytest.mark.parametrize(
    "s",
    [s for s in BOUNDARY_SYMBOLS if s.degree is not None] + [
        parse_symbol(spec)
        for spec in ("moebius:u=0+0i", "coeffs:[0,0.5+0.1i,0.25]", "coeffs:[0.1,0.5,0,0]",
                     "compose(moebius:u=0+0i,affine:r=0.7)", "compose(affine:r=0.7,affine:r=1,theta=1)",
                     "compose(affine:r=0.9,coeffs:[0,0.5,0.25])",
                     "compose(coeffs:[0,0.5,0.25],coeffs:[0,0.5,0.25])")
    ],
    ids=lambda s: s.spec_string(),
)
def test_degree_never_lies(s):
    # a polynomial of degree d has c_d != 0 and exact zeros beyond it, which
    # the extraction's roundoff flush keeps
    d = s.degree
    c = power_coefficient_table(s, 1, SeriesParams(4 * d + 8))[0][0]
    assert c[d] != 0.0
    assert not np.any(c[d + 1 :])


def test_degree_is_claimed_only_for_polynomials():
    for spec in ("cusp", "moebius:u=0.3+0i", "compose(cusp,affine:r=0.5)"):
        assert parse_symbol(spec).degree is None, spec
    assert parse_symbol("compose(coeffs:[0,0.5,0.25],coeffs:[0,0.5,0.25])").degree == 4


@pytest.mark.parametrize("s", BOUNDARY_SYMBOLS, ids=lambda s: s.spec_string())
def test_boundary_values_are_radial_limits(s):
    # every closed form extends to the circle; the cusp's half-disk stage
    # must keep its sqrt branch there (roundoff puts q just below the cut)
    th = 2.0 * np.pi * np.arange(200_000) / 200_000
    xi = np.exp(1j * th)
    b = evaluate_boundary(s, xi)
    assert np.abs(b).max() <= 1.0 + 1e-12
    away = np.abs(xi - 1.0) > 1e-3  # the cusp corner: phi' blows up at z = 1
    radial = s.evaluate((1.0 - 1e-12) * xi[away])
    assert np.abs(b[away] - radial).max() <= 1e-5


def test_composition_leaving_the_closed_disk_raises():
    # the inner polynomial sends 0.9 to 1.35; the outer closed form must not
    # be evaluated there
    s = parse_symbol("compose(cusp,coeffs:[0,1.5])")
    with pytest.raises(DomainError):
        s.evaluate(0.9)
    with pytest.raises(DomainError):
        s.derivative(0.9)


def test_affine_evaluate():
    assert AffineMap(0.5).evaluate(0.2) == pytest.approx(0.1)


def test_domain_error_on_boundary():
    with pytest.raises(DomainError):
        CuspMap().evaluate(1.0)
    with pytest.raises(DomainError):
        AffineMap(0.5).evaluate(1.2)


@pytest.mark.parametrize("s", ALL_SYMBOLS, ids=lambda s: s.spec_string())
def test_maps_into_disk(s):
    z = disk_points(10_000)
    assert np.all(np.abs(s.evaluate(z)) < 1.0)


@pytest.mark.parametrize("s", ALL_SYMBOLS, ids=lambda s: s.spec_string())
def test_sup_norm_hint_respected(s):
    if s.sup_norm_hint is None or s.sup_norm_hint >= 1.0:
        pytest.skip("no strict hint")
    z = disk_points(20_000, seed=3)
    assert np.abs(s.evaluate(z)).max() <= s.sup_norm_hint + 1e-10


@pytest.mark.parametrize("s", ALL_SYMBOLS, ids=lambda s: s.spec_string())
def test_origin_flag(s):
    phi0 = s.evaluate(0.0)
    assert abs(s.origin - phi0) <= 1e-15
    assert s.fixes_origin == (abs(s.origin) <= 1e-12)
    if s.fixes_origin:
        assert abs(phi0) <= 1e-12


def test_composed_origin_is_read_without_evaluation(monkeypatch):
    def no_evaluation(self, z):
        raise AssertionError("the cusp closed form was evaluated")

    monkeypatch.setattr(CuspMap, "_map", no_evaluation)
    assert parse_symbol("compose(moebius:u=0.3+0i,cusp)").origin == 0.3


@pytest.mark.parametrize(
    ("spec", "fixed"),
    [("moebius:u=1e-13+0i", True), ("coeffs:[1e-13,0.5]", True),
     ("moebius:u=1e-11+0i", False), ("coeffs:[1e-11,0.5]", False)],
)
def test_origin_fixed_up_to_roundoff(spec, fixed):
    # one rule for every kind: |phi(0)| <= 1e-12 counts as phi(0) = 0
    assert parse_symbol(spec).fixes_origin is fixed


def test_a_kind_without_an_origin_claims_nothing():
    with pytest.raises(NotImplementedError):
        SymbolMap().fixes_origin


def test_composition_agrees_pointwise():
    comp = ComposedMap(MoebiusMap(0.3), AffineMap(0.6))
    z = disk_points(500, seed=1)
    direct = MoebiusMap(0.3).evaluate(AffineMap(0.6).evaluate(z))
    assert np.abs(comp.evaluate(z) - direct).max() <= 1e-12


@pytest.mark.parametrize("s", ALL_SYMBOLS, ids=lambda s: s.spec_string())
def test_derivative_matches_finite_differences(s):
    # central differences, away from the cusp point
    z = 0.7 * disk_points(200, seed=2)
    h = 1e-5
    fd = (np.asarray(s.evaluate(z + h)) - np.asarray(s.evaluate(z - h))) / (2 * h)
    dv = np.asarray(s.derivative(z))
    denom = np.maximum(np.abs(fd), 1e-8)
    assert (np.abs(dv - fd) / denom).max() <= 1e-6


def test_moebius_derivative_at_origin():
    assert MoebiusMap(0.3).derivative(0.0) == pytest.approx(-(1 - 0.09), abs=1e-12)


def test_affine_derivative_constant():
    z = disk_points(50, seed=4)
    assert np.abs(AffineMap(0.5).derivative(z) - 0.5).max() == 0.0


def test_pseudo_hyperbolic_values():
    assert pseudo_hyperbolic_sup(AffineMap(0.5)) == pytest.approx(0.5, abs=1e-6)
    assert pseudo_hyperbolic_sup(AffineMap(1.0)) == pytest.approx(1.0, abs=1e-12)
    assert pseudo_hyperbolic_sup(MoebiusMap(0.3)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("s", ALL_SYMBOLS, ids=lambda s: s.spec_string())
def test_schwarz_pick_bound(s):
    assert pseudo_hyperbolic_sup(s) <= 1.0 + 1e-10


def test_pseudo_hyperbolic_monotone_in_depth():
    # shallower grids are prefixes of the full one, so the grid sup is
    # monotone nondecreasing in the depth
    full = _ring_grid(12)
    for depth in (4, 8):
        grid = _ring_grid(depth)
        assert np.array_equal(full[: len(grid)], grid)


@pytest.mark.parametrize("s", ALL_SYMBOLS, ids=lambda s: s.spec_string())
def test_circle_sup_bounds_exceed_a_finer_grid(s):
    # 64 samples a circle bound the max of 4096 from the whole circle; the
    # disk maps' circles are exact: r |c| for c z, (|u| + r)/(1 + |u| r) for
    # the Moebius map
    radii = np.array([0.5, 0.9, 0.99])
    bounds = circle_sup_bounds(s, radii, 64)
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    fine = np.abs(s.evaluate(np.outer(radii, np.exp(1j * theta)))).max(axis=1)
    assert np.all(bounds >= fine) and np.all(bounds <= 1.0)
    if isinstance(s, AffineMap):
        assert np.all(bounds >= s.r * radii)
    if isinstance(s, MoebiusMap):
        u = abs(s.u)
        assert np.all(bounds >= (u + radii) / (1.0 + u * radii))


def test_an_inner_rotation_keeps_the_circle_bounds():
    # phi(e^{i t} z) takes the values of phi on each circle: the outer map's
    # samples serve, bit for bit, where a turned grid would move the max
    radii = np.array([0.5, 0.99])
    cusp = circle_sup_bounds(CuspMap(), radii, 256)
    for inner in (AffineMap(1.0, 1.0), MoebiusMap(0.0)):
        assert circle_sup_bounds(ComposedMap(CuspMap(), inner), radii, 256).tolist() == cusp.tolist()
    moved = circle_sup_bounds(ComposedMap(CuspMap(), MoebiusMap(0.3)), radii, 256)
    assert moved.tolist() != cusp.tolist()


@settings(max_examples=200, deadline=None)
@given(
    re=st.floats(-0.99, 0.99),
    im=st.floats(-0.99, 0.99),
)
def test_cusp_image_in_disk_property(re, im):
    z = complex(re, im)
    if abs(z) >= 0.999:
        return
    w = CuspMap().evaluate(z)
    assert abs(w) < 1.0


def test_parse_round_trip():
    for spec in (
        "cusp",
        "affine:r=0.5,theta=0.0",
        "moebius:u=0.3+0i",
        "compose(affine:r=0.9,theta=0.0,cusp)",
        "coeffs:[0.0,0.5,0.25]",
    ):
        s = parse_symbol(spec)
        assert parse_symbol(s.spec_string()).spec_string() == s.spec_string()


def test_parse_identity():
    assert parse_symbol("identity") == AffineMap(1.0, 0.0)


def test_parse_rejects_garbage():
    for bad in ("nope", "affine:q=1", "moebius:u=2.0+0i", "compose(cusp)", "coeffs:[]",
                # non-finite parameters
                "affine:r=0.5,theta=nan", "affine:r=0.5,theta=inf", "moebius:u=nan+0i",
                "moebius:u=0.1+nani", "coeffs:[0,nan]", "coeffs:[0,0.5+infi]"):
        with pytest.raises(ValueError):
            parse_symbol(bad)


@pytest.mark.parametrize(("spec", "univalent", "sup"), [
    ("coeffs:[0,0.5,0.25]", True, 0.75),  # Alexander: 2 * 0.25 <= 0.5
    ("coeffs:[0,0,1]", False, 1.0),  # z^2 is 2-to-1
    ("coeffs:[0.1,0.5]", True, 0.6),
    ("coeffs:[0,0.5+0.1i,0.25]", True, None),  # a complex coefficient: sup unknown
    ("coeffs:[0.5]", False, 0.5),  # constant
    ("coeffs:[0.2,-0.3]", True, None),  # a negative coefficient: sup unknown
])
def test_polynomial_facts_are_read_off_the_coefficients(spec, univalent, sup):
    s = parse_symbol(spec)
    assert s.is_univalent is univalent
    assert s.sup_norm_hint == sup


@pytest.mark.parametrize(("spec", "sup"), [
    ("compose(moebius:u=0.3+0.2i,affine:r=0.5)", 0.7291125019739527),
    ("compose(moebius:u=0.21+0i,compose(affine:r=0.7,moebius:u=0.3+0i))", 0.7933740191804707),
    ("compose(cusp,moebius:u=0.3+0i)", 1.0),
    # an inner automorphism keeps the outer sup
    ("compose(affine:r=0.9,compose(cusp,moebius:u=0.3+0i))", 0.9),
    ("compose(moebius:u=0+0i,compose(affine:r=0.9,cusp))", 0.9),
    ("compose(moebius:u=0.3+0i,compose(affine:r=0.5,affine:r=1,theta=1))",
     (0.5 + 0.3) / (1.0 + 0.5 * 0.3)),
    # the Moebius bound (s + |u|)/(1 + s|u|) is taken only where the image
    # reaches -s u/|u|; the scaled cusp reaches only its tip, 60/73
    ("compose(moebius:u=0.3+0i,compose(affine:r=0.9,cusp))", None),
])
def test_a_composition_sup_is_exact_or_unknown(spec, sup):
    s = parse_symbol(spec)
    assert s.sup_norm_hint == sup
    if sup is not None:
        top = np.abs(evaluate_boundary(s, np.exp(2j * np.pi * np.arange(2**14) / 2**14))).max()
        assert top <= sup + 1e-12
        # the cusp nears its tip only logarithmically: a grid finds its sup
        # only where it hits the corner
        assert "cusp" in spec or top >= sup - 1e-6


@pytest.mark.parametrize(("spec", "onto"), [
    ("moebius:u=0.3-0.2i", True),
    ("affine:r=1,theta=2", True),
    ("coeffs:[0,1]", True),
    ("compose(affine:r=1,theta=1,moebius:u=0+0i)", True),
    ("affine:r=0.9", False),
    ("coeffs:[0,0.5,0.25]", False),
    ("cusp", False),
])
def test_automorphisms_are_read_off_the_symbol(spec, onto):
    assert parse_symbol(spec).is_automorphism is onto


def test_builtin_contractions_are_contractions():
    cats = builtin_contractions()
    assert len(cats) >= 5
    z = disk_points(5_000, seed=5)
    for s in cats:
        assert s.sup_norm_hint is not None and s.sup_norm_hint < 1.0
        assert np.abs(s.evaluate(z)).max() <= s.sup_norm_hint + 1e-10
        assert s.fixes_origin
        # every built-in is named by its spec string
        assert parse_symbol(s.spec_string()) == s
