import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compopnum import geometry
from compopnum.geometry import (
    BlaschkeProduct,
    CarlesonWindow,
    CuspRegion,
    M_functional,
    annulus_area,
    blaschke_certificate,
    region_gram_singular_values,
    unit_interval_dyadic_zeros,
    window_area,
    zinc_upper_bound,
)
from compopnum.opmatrix import hs_tail_bound
from compopnum.symbols import (
    CUSP_DIAMETER,
    AffineMap,
    ComposedMap,
    CuspMap,
    MoebiusMap,
    parse_symbol,
)

REGION = CuspRegion()
CUSP = CuspMap()
ANGLES = st.floats(0.0, 2.0 * math.pi)
# depth in the unscaled image, kept off 0 so the annulus has area to sample
BASE_DEPTHS = st.floats(2.0**-6, 1.0)
# the image a rotated cusp test samples, and base depths in each regime of
# `CuspRegion.box_angle`: the deep tip, the tip, then up to and past the
# first breakpoint (~0.18919)
ROTATED_CUSP = "compose(affine:r=0.95,theta=2.3,cusp)"
BOX_DEPTHS = (1e-4, 2.0**-6, 0.15, 0.188, 0.19, 0.3)
# depths where the cusp's slice is ~2u^2/a ~ 1e-14 and 1e-18 rad wide:
# membership must stay exact there
TIP_DEPTHS = (1e-7, 1e-9)
# the Blaschke certificate's windows: every size about every centre
GRID_CENTRES, GRID_SIZES = geometry.default_window_grid()


def test_region_area_closed_form():
    # the two excluded half-lenses leave exactly a^2/(2 pi)
    assert REGION.annulus_area(1.0) == pytest.approx(CUSP_DIAMETER**2 / (2 * math.pi), abs=1e-12)


def test_region_contains_mapped_points():
    g = np.random.default_rng(1)
    z = np.sqrt(g.random(20_000)) * 0.9999 * np.exp(2j * np.pi * g.random(20_000))
    w = CUSP.evaluate(z)
    assert REGION.contains(w).all()


@pytest.mark.parametrize("u", [1e-8, 1e-9])
def test_region_contains_is_exact_at_the_tip(u):
    # the slice at depth u is the one arc |phi| < lo(u) ~ u^2/a; membership
    # must see it within a percent, where it is ~1e-16 of the circles' radius
    lo = float(REGION.arc_data(u)[1])
    phi = lo * np.array([0.9, 0.99, 1.01, 1.1])
    w = (1.0 - u) * np.exp(1j * np.concatenate([phi, -phi]))
    assert REGION.contains(w).tolist() == [True, True, False, False] * 2


def test_angular_measure_matches_monte_carlo():
    g = np.random.default_rng(2)
    for s in (0.55, 0.7, 0.9):
        th = 2 * np.pi * g.random(1_000_000)
        frac = REGION.contains(s * np.exp(1j * th)).mean()
        exact = float(REGION.angular_measure(1.0 - s)) / (2 * np.pi)
        assert frac == pytest.approx(exact, abs=4.0 * math.sqrt(exact / 1_000_000) + 1e-6)


def test_angular_measure_accurate_at_the_tip():
    # ~ 2u^2/a (1 + O(u)); the slice's arcs must not cancel to 0 at tiny depths
    u = np.array([1e-15, 1e-12, 1e-10, 1e-8])
    assert REGION.angular_measure(u) == pytest.approx(2.0 * u**2 / CUSP_DIAMETER, rel=1e-7, abs=0.0)


def test_annulus_area_cubic_law():
    ratios = [REGION.annulus_area(2.0**-l) / 2.0 ** (-3 * l) for l in range(3, 9)]
    med = np.median(ratios)
    assert max(ratios) <= 2 * med and min(ratios) >= med / 2
    # the sharp constant at the cusp is 2/(3 pi a)
    assert ratios[-1] == pytest.approx(2 / (3 * math.pi * CUSP_DIAMETER), rel=1e-3)


def test_annulus_area_methods_agree():
    exact = annulus_area(CUSP, 1.0, method="exact-arcs")
    mc = annulus_area(CUSP, 1.0, method="monte-carlo", samples=2_000_000, seed=11)
    assert abs(mc.value - exact.value) <= 3 * mc.std_error


@pytest.mark.parametrize("method", ["polar", "exactarcs"])
def test_region_measures_reject_unknown_methods(method):
    # an unknown name is an error, never a silent Monte Carlo run
    with pytest.raises(geometry.MethodError, match="unknown method"):
        annulus_area(CUSP, 0.25, method=method)
    with pytest.raises(geometry.MethodError, match="unknown method"):
        window_area(CUSP, CarlesonWindow(1.0, 0.1), method=method)
    with pytest.raises(geometry.MethodError, match="unknown method"):
        blaschke_certificate(1, method=method)


def test_exact_routes_refuse_where_they_do_not_hold():
    # the window rule holds about any centre of a known cusp image, so only an
    # image without a known base refuses it
    unknown = parse_symbol("compose(cusp,affine:r=0.5)")
    with pytest.raises(geometry._UnsupportedRegion):
        annulus_area(unknown, 0.25, method="exact-arcs")
    with pytest.raises(geometry._UnsupportedRegion):
        window_area(unknown, CarlesonWindow(-1.0, 0.1), method="exact-arcs")
    with pytest.raises(geometry._UnsupportedRegion):
        window_area(AffineMap(0.5), CarlesonWindow(1.0, 0.1), method="exact-arcs")
    # quadrature is the certificate's exact route: a window's name is unknown
    with pytest.raises(geometry.MethodError, match="unknown method"):
        blaschke_certificate(1, method="exact-arcs")


def test_image_of_composes_outer_factors():
    negated = parse_symbol("compose(affine:r=0.9,theta=1.0,compose(moebius:u=0+0i,cusp))")
    image = geometry.image_of(negated)
    assert image == geometry.Image(REGION, -AffineMap(0.9, 1.0).factor, 0.9)
    assert image.factor == pytest.approx(-0.9 * complex(math.cos(1.0), math.sin(1.0)), rel=1e-15)
    # z -> -z is a rotation by pi, and both images keep the modulus 0.9 as given
    rotated = geometry.image_of(ComposedMap(AffineMap(0.9, 1.0 + math.pi), CUSP))
    assert image.annulus_area(0.1) == rotated.annulus_area(0.1)
    assert image.power_norms(40).tolist() == rotated.power_norms(40).tolist()
    assert image.column_tail(5) == rotated.column_tail(5)


def test_image_of_double_negation_is_the_cusp():
    twice = parse_symbol("compose(moebius:u=0+0i,compose(moebius:u=0+0i,cusp))")
    assert geometry.image_of(twice) == geometry.image_of(CUSP)
    assert window_area(twice, CarlesonWindow(1.0, 0.25)).method == "exact-arcs"


@pytest.mark.parametrize("spec", [
    "compose(moebius:u=0.3+0i,cusp)",
    "compose(cusp,affine:r=0.5)",
    "compose(cusp,affine:r=0.9,theta=1)",
    "compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))",
])
def test_image_of_unknown_base_is_none(spec):
    assert geometry.image_of(parse_symbol(spec)) is None


@pytest.mark.parametrize("inner", ["affine:r=1,theta=1", "affine:r=1,theta=-2.5", "affine:r=1,theta=0.3",
                                   "moebius:u=0.3+0.1i", "coeffs:[0,1]"])
@pytest.mark.parametrize("outer", ["cusp", "compose(affine:r=0.9,theta=1,cusp)", "affine:r=0.7"])
def test_an_inner_automorphism_keeps_the_outer_image(outer, inner):
    # phi(D) = X(m(D)) = X(D), and X^k o m has the Dirichlet integral of X^k
    x, s = parse_symbol(outer), parse_symbol(f"compose({outer},{inner})")
    assert geometry.image_of(s) == geometry.image_of(x)
    assert hs_tail_bound(s, 17) == hs_tail_bound(x, 17)
    for t in (0.1, 2.0**-6):
        assert annulus_area(s, t, method="exact-arcs") == annulus_area(x, t, method="exact-arcs")
        assert M_functional(s, t) == M_functional(x, t)


def test_an_inner_automorphism_keeps_the_image_under_an_outer_map():
    # the rule that gives this symbol its sup 0.9 gives it the scaled cusp's image
    s = parse_symbol("compose(affine:r=0.9,compose(cusp,coeffs:[0,1]))")
    assert s.sup_norm_hint == 0.9
    assert zinc_upper_bound(s, 100) == zinc_upper_bound(parse_symbol("compose(affine:r=0.9,cusp)"), 100)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(r=st.floats(0.5, 1.0), theta=ANGLES, u=BASE_DEPTHS)
def test_exact_arcs_rotation_invariant(r, theta, u):
    t = 1.0 - r * (1.0 - u)
    rotated = annulus_area(ComposedMap(AffineMap(r, theta), CUSP), t, method="exact-arcs")
    plain = annulus_area(ComposedMap(AffineMap(r), CUSP), t, method="exact-arcs")
    assert rotated.value == plain.value


def _with_box_depths(test):
    """Hypothesis examples of the cusp and the rotated cusp at BOX_DEPTHS,
    and of the cusp at TIP_DEPTHS."""
    for u in BOX_DEPTHS:
        test = example(kind="cusp", r=1.0, theta=0.0, u=u)(test)
        test = example(kind="rotated-cusp", r=0.95, theta=2.3, u=u)(test)
    for u in TIP_DEPTHS:
        test = example(kind="cusp", r=1.0, theta=0.0, u=u)(test)
    return test


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["affine", "moebius", "cusp", "rotated-cusp"]),
    r=st.floats(0.5, 1.0),
    theta=ANGLES,
    u=BASE_DEPTHS,
)
@_with_box_depths
def test_monte_carlo_within_five_sigma_of_exact(kind, r, theta, u):
    s = {
        "affine": AffineMap(r, theta),
        "moebius": MoebiusMap(0.5 * r * complex(math.cos(theta), math.sin(theta))),
        "cusp": CUSP,
        "rotated-cusp": ComposedMap(AffineMap(r, theta), CUSP),
    }[kind]
    t = 1.0 - r * (1.0 - u) if kind in ("affine", "rotated-cusp") else u
    exact = annulus_area(s, t, method="exact-arcs").value
    mc = annulus_area(s, t, method="monte-carlo", samples=100_000, seed=17)
    # when every sample hits, the estimate is the box area: exact up to roundoff
    # (never above 1e-15, and relative below area 1, since the areas at
    # TIP_DEPTHS are ~1e-22 and ~1e-28)
    assert abs(mc.value - exact) <= 5.0 * mc.std_error + 1e-15 * min(exact, 1.0)


def test_winding_membership_flags_an_unresolved_tip():
    # the Moebius involution twice is the cusp, but only its boundary curve is
    # known; at |z| = 1 - 1e-7 the curve reaches |w| = 0.81, short of the tip,
    # so every annulus sample at depth 0.1 tests outside
    twice = parse_symbol("compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))")
    mc = annulus_area(twice, 0.1, method="monte-carlo", samples=2000, seed=1)
    assert mc.value == 0.0 and mc.flagged
    # a boundary the samples resolve is not flagged, and its estimate holds
    smooth = parse_symbol("compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,affine:r=0.9))")
    for t in (0.2, 1e-3):
        mc = annulus_area(smooth, t, method="monte-carlo", samples=2000, seed=1)
        assert not mc.flagged
        assert abs(mc.value - max(0.0, 0.81 - (1.0 - t) ** 2)) <= 5.0 * mc.std_error
    assert not annulus_area(CUSP, 0.1, method="monte-carlo", samples=2000, seed=1).flagged


def test_winding_rejection_beyond_the_curve_keeps_every_verdict():
    # reference: the winding sum on every point, none rejected early
    def winding(curve, w):
        ang = np.angle(curve[None, :] - w[:, None])
        inc = np.mod(np.diff(ang, axis=1, append=ang[:, :1]) + np.pi, 2.0 * np.pi) - np.pi
        return np.abs(inc.sum(axis=1)) / (2.0 * np.pi) > 0.5

    curve = geometry._boundary_curve(parse_symbol("compose(cusp,affine:r=0.5)"), 0.5)
    top = np.abs(curve).max()
    g = np.random.default_rng(8)
    turns = np.exp(2j * np.pi * g.random(300))
    edge = curve[np.argmax(np.abs(curve))] / top  # the direction the curve reaches top
    w = np.concatenate([
        top * np.sqrt(g.random(300)) * turns,  # inside the disk of the curve
        top * (1.0 + g.random(300)) * turns,  # beyond it
        top * (1.0 - np.logspace(-8.0, -1.0, 15)) * edge,  # inside, just below the curve's top
        top * (1.0 + 1e-12 * np.linspace(-1.0, 1.0, 41))[:, None] * np.array([edge, edge * 1j, -edge]),
    ], axis=None)
    got = geometry._winding_contains(curve, w)
    assert np.array_equal(got, winding(curve, w))
    assert 0 < np.count_nonzero(got) < w.size
    assert geometry._winding_contains(curve, 0.0).shape == (1,)


def test_image_contains_without_a_known_base_runs_the_winding_test():
    s = parse_symbol("compose(cusp,affine:r=0.5)")
    assert geometry.image_of(s) is None
    g = np.random.default_rng(9)
    w = np.sqrt(g.random(500)) * np.exp(2j * np.pi * g.random(500))
    got = geometry.image_contains(s, w)
    assert np.array_equal(got, geometry._sampling_membership(s, None, 0.1)[0](w))
    assert 0 < np.count_nonzero(got) < w.size
    turns = np.exp(2j * np.pi * g.random(200))
    assert geometry.image_contains(s, s.evaluate(0.8 * turns)).all()
    top = np.abs(geometry._boundary_curve(s, 0.5)).max()
    assert not geometry.image_contains(s, top * (1.0 + g.random(200)) * turns).any()


def test_monte_carlo_window_flags_an_unresolved_tip():
    # same curve as above: S(1, 0.1) holds 1.36e-4 of the cusp, none of
    # which the sampled boundary reaches
    window = CarlesonWindow(1.0, 0.1)
    twice = parse_symbol("compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))")
    mc = window_area(twice, window, method="monte-carlo", samples=5000, seed=1)
    assert mc.value == 0.0 and mc.flagged
    assert not window_area(CUSP, window, method="monte-carlo", samples=5000, seed=1).flagged
    inside = parse_symbol("compose(moebius:u=0.5+0i,affine:r=0.5)")
    assert not window_area(inside, window, method="monte-carlo", samples=5000, seed=1).flagged


def test_annulus_area_affine_disjoint():
    assert annulus_area(AffineMap(0.5), 0.25).value == 0.0
    assert annulus_area(MoebiusMap(0.3), 0.25).value == pytest.approx(1 - 0.75**2)


def test_annulus_area_monotone_in_t():
    ts = np.linspace(0.05, 1.0, 12)
    vals = [annulus_area(CUSP, float(t)).value for t in ts]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_m_functional_near_linear_for_cusp():
    # m(t) = area(t)/t^2, the dyadic terms of M(t)
    vals = {t: annulus_area(CUSP, t).value / t**2 for t in [2.0**-l for l in range(3, 9)]}
    ratios = [v / t for t, v in vals.items()]
    med = np.median(ratios)
    assert max(ratios) <= 2 * med and min(ratios) >= med / 2


def test_m_functional_affine_zero():
    assert annulus_area(AffineMap(0.5), 0.25).value / 0.25**2 == 0.0
    assert M_functional(AffineMap(0.5), 0.25) == 0.0


def test_M_functional_dyadic_sum_bounded():
    for t in (0.125, 0.03125):
        m = annulus_area(CUSP, t).value / t**2
        M = M_functional(CUSP, t)
        assert m < M <= 2.5 * m


# the cusp, -cusp and two scaled cusps, 0.9 e^i cusp and 0.95 cusp
CUSP_IMAGES = [CUSP, ComposedMap(MoebiusMap(0.0), CUSP), ComposedMap(AffineMap(0.9, 1.0), CUSP),
               ComposedMap(AffineMap(0.95), CUSP)]
M_DEPTHS = (0.999, 0.5, 0.3, 0.1, 2.0**-6, 1e-4)


@pytest.mark.parametrize("s", CUSP_IMAGES, ids=lambda s: s.spec_string())
def test_M_functional_matches_sixty_scalar_terms(s):
    image = geometry.image_of(s)
    for t in M_DEPTHS:
        terms = [image.annulus_area(t * 2.0**-j) * 4.0**j / t**2 for j in range(61)]
        assert M_functional(s, t) == pytest.approx(math.fsum(terms), rel=1e-13, abs=0.0)
        # the terms past the cut stay under the proved bound on them
        bound = REGION.tip_area_constant * t * 2.0**-geometry._DYADIC_CUT
        assert math.fsum(terms[geometry._DYADIC_CUT + 1 :]) <= bound


def test_vector_annulus_area_matches_scalar_calls():
    depths = np.array([1.0, 0.999, 0.5, 0.3, 0.1, 2.0**-6, 1e-4, 1e-9, 2.0**-50, 0.0, -0.2])
    for s in CUSP_IMAGES + [AffineMap(0.5), MoebiusMap(0.3)]:
        image = geometry.image_of(s)
        scalar = [image.annulus_area(float(t)) for t in depths]
        assert image.annulus_area(depths) == pytest.approx(scalar, rel=1e-14, abs=0.0)


ONE_RULE_DEPTHS = (2.0**-40, 0.1, 1.0)


@pytest.mark.parametrize("t", ONE_RULE_DEPTHS)
def test_radial_rule_is_sorted_and_scalar_is_the_one_depth_array(t):
    u, w = REGION.radial_rule(t)
    # two adjacent nodes near u = 1 round to the same double
    assert np.all(np.diff(u) >= 0.0)
    u1, w1 = REGION.radial_rule(np.array([t]))
    assert np.array_equal(u, u1) and np.array_equal(w, w1)


@pytest.mark.parametrize("t", ONE_RULE_DEPTHS)
def test_scalar_annulus_area_is_the_one_depth_array(t):
    assert REGION.annulus_area(t) == REGION.annulus_area(np.array([t]))[0]


def test_annulus_area_clamps_depths():
    assert REGION.annulus_area(0.0) == 0.0
    assert REGION.annulus_area(-0.3) == 0.0
    assert np.array_equal(REGION.annulus_area(np.array([0.0, 0.0])), [0.0, 0.0])
    assert REGION.annulus_area(1.7) == REGION.annulus_area(1.0)


def test_arc_data_exclusion_arcs_clamped_to_alpha():
    # the exclusion arcs' ends meet at the breakpoints, where lo nears hi
    near = np.add.outer(REGION.breakpoints(), np.linspace(-1e-6, 1e-6, 2001)).ravel()
    u = np.concatenate([np.linspace(0.0, 1.0, 20_001), 2.0 ** -np.arange(0.0, 60.0, 0.25), near])
    alpha, lo, hi = REGION.arc_data(u)
    assert np.all(lo <= hi) and np.all(hi <= alpha)


def test_tip_bound_on_angular_measure():
    # angular_measure(u) <= 4u^2/(a(1-u)) below the first breakpoint, the
    # inequality behind the dyadic remainder of M(t)
    u = min(REGION.breakpoints()) * 2.0 ** -np.arange(0.0, 60.0, 0.25)
    bound = 4.0 * u**2 / (CUSP_DIAMETER * (1.0 - u))
    assert np.all(REGION.angular_measure(u) <= bound)


def test_unit_rotation_of_the_cusp_is_the_cusp_bit_for_bit():
    # abs() of this factor is 1 - 1.1e-16; mapping depths with it dropped the
    # deepest dyadic terms of M(t), an undercount in an upper bound
    rotated = parse_symbol("compose(affine:r=1,theta=0.77,cusp)")
    assert abs(geometry.image_of(rotated).factor) < 1.0
    for t in (1e-4, 1e-3, 0.1):
        assert M_functional(rotated, t) == M_functional(CUSP, t)
        assert annulus_area(rotated, t).value == annulus_area(CUSP, t).value


def test_a_rotation_changes_no_exact_measure():
    # C_{R phi} = C_phi C_R with C_R unitary, and the Image keeps the modulus
    # r as given, so every exact measure of r e^{i theta} X is X's bit for bit
    differ = []
    for x in ("cusp", "affine:r=0.6", "moebius:u=0.3+0.1i", "compose(moebius:u=0+0i,cusp)"):
        for r in (1.0, 0.95, 0.7):
            plain = parse_symbol(f"compose(affine:r={r!r},{x})")
            for theta in (0.3, 1.0, 2.3, -2.5, 4.1, 1.495176):
                s = parse_symbol(f"compose(affine:r={r!r},theta={theta!r},{x})")
                image, expected = geometry.image_of(s), geometry.image_of(plain)
                same = (image.modulus == expected.modulus
                        and all(annulus_area(s, t, method="exact-arcs") == annulus_area(plain, t, method="exact-arcs")
                                for t in (0.1, 2.0**-6))
                        and image.power_norms(40).tolist() == expected.power_norms(40).tolist()
                        and hs_tail_bound(s, 17) == hs_tail_bound(plain, 17)
                        and M_functional(s, 0.1) == M_functional(plain, 0.1))
                if not same:
                    differ.append(s.spec_string())
    assert not differ, differ


def test_M_functional_rest_is_zero_where_the_omitted_annuli_miss_the_image():
    # |f| = 1 - 2^-53 is a contraction: the omitted depths t 2^-j, j > 50,
    # miss the image when t 2^-51 <= 2^-53, and the disk's infinite tip
    # constant bounds them otherwise
    s = AffineMap(1.0 - 2.0**-53)
    assert geometry.image_of(s).modulus == 0.9999999999999999
    assert hs_tail_bound(s, 3) == pytest.approx(2.0**26, rel=1e-14)
    assert M_functional(s, 0.1) == pytest.approx(1.5453528133134e16, rel=1e-12)
    assert M_functional(s, 0.25) < math.inf
    assert M_functional(s, 0.25 + 2.0**-20) == M_functional(s, 1.0) == math.inf


def test_rotated_cusp_monte_carlo_does_not_depend_on_theta():
    # the box is drawn in the base's frame, its radii over the modulus 0.95
    # as given: no sample reads the angle of the factor
    values = {annulus_area(parse_symbol(f"compose(affine:r=0.95,theta={theta!r},cusp)"), 0.1,
                           method="monte-carlo", samples=2_000_000, seed=5)
              for theta in (0.7, 2.3, 4.1)}
    assert len(values) == 1


def test_rotated_disk_monte_carlo_does_not_depend_on_theta():
    values = {annulus_area(parse_symbol(f"affine:r=0.9,theta={theta!r}"), 0.2,
                           method="monte-carlo", samples=200_000, seed=5).value
              for theta in (0.0, 2.3, 5.6)}
    assert values == {0.16995959999999993}


def test_M_functional_needs_known_image(monkeypatch):
    # the dyadic sum refuses before sampling a single annulus
    def no_sampling(*args, **kwargs):
        raise AssertionError("M(t) must not sample")

    monkeypatch.setattr(geometry, "_mc_annulus_area", no_sampling)
    with pytest.raises(ValueError, match="known image base"):
        M_functional(parse_symbol("compose(cusp,affine:r=0.5)"), 0.5)


def test_M_functional_infinite_for_automorphism():
    # m(t) ~ 2/t grows along the dyadic terms: no summable remainder
    assert M_functional(MoebiusMap(0.3), 0.1) == math.inf
    with pytest.raises(ArithmeticError):
        zinc_upper_bound(MoebiusMap(0.3), 10)


def test_zinc_upper_bound_affine_closed_form():
    for n in (5, 20):
        val, t_star = zinc_upper_bound(AffineMap(0.5), n)
        assert val <= n * 0.5**n + 1e-12
        assert t_star >= 0.5 - 1e-9


def test_zinc_finite_at_n1():
    val, _ = zinc_upper_bound(CUSP, 1)
    assert math.isfinite(val)


def test_zinc_eventually_nonincreasing_for_cusp():
    vals = zinc_upper_bound(CUSP, np.arange(10, 60, 5))[0]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_zinc_reads_the_image_not_the_spelling(monkeypatch):
    # one Image, two spellings: an inner automorphism keeps the scaled cusp
    a = parse_symbol("compose(affine:r=0.9,cusp)")
    b = parse_symbol("compose(affine:r=0.9,compose(cusp,moebius:u=0.3+0i))")
    bounds = [zinc_upper_bound(a, n) for n in (100, 300)]
    assert [zinc_upper_bound(b, n) for n in (100, 300)] == bounds
    # the empty-annulus depth 1 - 0.9 comes from the Image, not the sup norm
    monkeypatch.setattr(ComposedMap, "sup_norm_hint", None)
    assert [zinc_upper_bound(a, n) for n in (100, 300)] == bounds


def test_zinc_array_call_matches_scalar_calls():
    ns = np.arange(20, 201).reshape(-1, 1)
    # the scaled cusp's argmins have M(t) = 0, so n (1-t)^n is all there is
    for s in (CUSP, ComposedMap(AffineMap(0.9, theta=1.0), CUSP)):
        vals, ts = zinc_upper_bound(s, ns)
        assert vals.shape == ts.shape == ns.shape
        assert zinc_upper_bound(s, 20) == (vals[0, 0], ts[0, 0])
        # every value is the scalar formula at its argmin, bit for bit
        root_M = {}
        for n, val, t in zip(ns.flat, vals.flat, ts.flat):
            if t not in root_M:
                root_M[t] = math.sqrt(M_functional(s, float(t)))
            assert val == int(n) * (1.0 - t) ** int(n) + root_M[t]


def test_window_area_cusp_tip_cubic():
    ratios = []
    for l in range(3, 8):
        h = 2.0**-l
        meas = window_area(CUSP, CarlesonWindow(1.0, h))
        ratios.append(meas.value / h**3)
    assert max(ratios) <= 2 * min(ratios)


def test_window_area_away_from_region():
    # the region stays at distance 2-a from -1
    h = 0.9 * (2.0 - CUSP_DIAMETER)
    meas = window_area(CUSP, CarlesonWindow(-1.0, h), method="monte-carlo", samples=200_000, seed=3)
    assert meas.value == 0.0
    assert window_area(AffineMap(0.5), CarlesonWindow(1.0, 0.25), method="monte-carlo", samples=100_000, seed=4).value == 0.0


def test_window_area_tip_methods_agree():
    h = 0.125
    ex = window_area(CUSP, CarlesonWindow(1.0, h))
    mc = window_area(CUSP, CarlesonWindow(1.0, h), method="monte-carlo", samples=4_000_000, seed=5)
    assert abs(ex.value - mc.value) <= 3 * mc.std_error + 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(h=st.floats(2.0**-7, 0.5))
def test_window_area_tip_monte_carlo_within_five_sigma(h):
    window = CarlesonWindow(1.0, h)
    exact = window_area(CUSP, window)
    assert exact.method == "exact-arcs" and exact.std_error == 0.0
    mc = window_area(CUSP, window, method="monte-carlo", samples=200_000, seed=23)
    assert mc.method == "monte-carlo" and mc.std_error > 0.0
    assert abs(mc.value - exact.value) <= 5.0 * mc.std_error


@settings(max_examples=30, deadline=None, derandomize=True)
@given(h=st.floats(2.0**-7, 0.5), ratio=st.floats(1.001, 2.0))
def test_window_area_tip_increases_with_h(h, ratio):
    smaller = window_area(CUSP, CarlesonWindow(1.0, h / ratio)).value
    assert 0.0 < smaller < window_area(CUSP, CarlesonWindow(1.0, h)).value


@pytest.mark.parametrize(
    ("spec", "theta", "h"),
    [("cusp", 1.0 / 8.0, 0.25), ("cusp", 1.0 / 256.0, 2.0**-7),
     ("compose(affine:r=0.9,theta=1.0,cusp)", 1.0, 0.2), ("compose(affine:r=0.95,theta=-2.0,cusp)", -2.02, 0.1)],
)
def test_window_area_off_the_tip_monte_carlo_within_five_sigma(spec, theta, h):
    # the exact route covers every window of a scaled, rotated cusp image
    s = parse_symbol(spec)
    window = CarlesonWindow(complex(math.cos(theta), math.sin(theta)), h)
    exact = window_area(s, window)
    assert exact.method == "exact-arcs" and exact.value > 0.0
    mc = window_area(s, window, method="monte-carlo", samples=1_000_000, seed=1)
    assert abs(mc.value - exact.value) <= 5.0 * mc.std_error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(theta=ANGLES, sigma=st.floats(1e-3, 2.0))
def test_window_arcs_match_membership(theta, sigma):
    # reference: the region's points on a fine grid of the slice |w - xi| = sigma
    xi = complex(math.cos(theta), math.sin(theta))
    turn, lo, hi = REGION.arcs(xi, np.array([sigma]))
    phi = 2.0 * np.pi * (np.arange(20_000) + 0.5) / 20_000 - np.pi
    inside = REGION.contains(xi + sigma * turn * np.exp(1j * phi))
    on_arcs = np.any((lo[0][:, None] < phi) & (phi < hi[0][:, None]), axis=0)
    # only grid points within a grid step of an arc end may disagree
    assert np.count_nonzero(inside != on_arcs) <= 2 * lo.shape[1]
    assert float(np.sum(hi - lo)) == pytest.approx(2.0 * np.pi * inside.mean(), abs=4.0 * np.pi / 20_000)


def test_window_area_tip_is_the_unit_weight_quadrature():
    # the tip route is the certificate's tip quadrature with |B|^2 = 1
    h = 0.125
    value = window_area(CUSP, CarlesonWindow(1.0, h)).value
    assert value == geometry._window_mean_quadrature(BlaschkeProduct(()), 1.0, h)
    assert value == pytest.approx(0.00026566672243968757, rel=1e-15, abs=0.0)


def test_carleson_window_validation():
    with pytest.raises(ValueError):
        CarlesonWindow(0.5, 0.1)
    with pytest.raises(ValueError):
        CarlesonWindow(1.0, 1.5)


@pytest.mark.parametrize("spec", ["cusp", ROTATED_CUSP])
@pytest.mark.parametrize("fraction", [1e-3, 0.01, 0.1, 0.3, 0.6, 0.9, 0.99, 1.0 - 1e-9])
def test_box_contains_the_region_below_the_first_breakpoint(spec, fraction):
    # points of the image at depth <= t on a grid dense in log |angle|, which
    # resolves the tip's ~u^2/a half-width at every depth
    image = geometry.image_of(parse_symbol(spec))
    t = 1.0 - image.modulus * (1.0 - fraction * REGION.breakpoints()[0])
    centre, theta0 = np.angle(image.factor), image.box_angle(t)
    depth = t * np.linspace(0.0, 1.0, 129)[1:, None]
    offset = np.geomspace(1e-12, math.pi, 4000)
    offset = np.concatenate([-offset, offset])
    inside = image.contains((1.0 - depth) * np.exp(1j * (centre + offset)))
    assert inside.any()
    assert np.abs(np.broadcast_to(offset, inside.shape)[inside]).max() <= theta0


@pytest.mark.parametrize("t", [REGION.breakpoints()[0], 0.2, 0.5, 1.0])
def test_box_is_the_whole_circle_from_the_first_breakpoint(t):
    assert REGION.box_angle(t) == math.pi


def test_cusp_monte_carlo_hits_the_tip():
    # the box is twice the slice at depth t, and the slice at depth u < t is
    # ~(u/t)^2 of that: about a sixth of the samples hit
    t = 2.0**-6
    theta0 = geometry.image_of(CUSP).box_angle(t)
    box = (1.0 - (1.0 - t) ** 2) * (theta0 / np.pi)
    mc = annulus_area(CUSP, t, method="monte-carlo", samples=100_000, seed=2)
    assert mc.value / box >= 0.10


def test_blaschke_single_factor():
    b = BlaschkeProduct((0.5,), power=1)
    assert math.sqrt(b.abs2(0.0)) == pytest.approx(0.5)


@pytest.mark.parametrize("zeros, power, message", [
    ((0.5j,), 1, "finite real"),
    ((0.5 + 0j,), 1, "finite real"),
    ((float("nan"),), 1, "finite real"),
    ((float("inf"),), 1, "finite real"),
    ((0.5,), 1.5, "integer"),
    ((0.5,), 2.0, "integer"),
])
def test_blaschke_product_rejects_what_abs2_cannot_take(zeros, power, message):
    # abs2 reads each zero as real and raises |B|^2 to an integer power
    with pytest.raises(ValueError, match=message):
        BlaschkeProduct(zeros, power=power)


def test_blaschke_power_raises_the_product_to_it():
    # |B^r|^2 = (|B|^2)^r, against the one-factor product's own values
    w = np.array([0.0, 0.5 + 0.3j, -0.7j, 0.95, 0.9 + 0.1j])
    zeros = unit_interval_dyadic_zeros(10)
    base = np.prod([np.abs(z - w) ** 2 / np.abs(1.0 - z * w) ** 2 for z in zeros], axis=0)
    for r in (0, 1, 4, 7):
        got = BlaschkeProduct(zeros, power=r).abs2(w)
        np.testing.assert_allclose(got, base**r, rtol=1e-12, atol=0.0)


def _tip_area(h):
    """(1/pi) * area of S(1, h) n cusp region in closed form: the slice at
    radius sigma about the tip is an arc of angle 2 arcsin(sigma/a)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, h = mpmath.mpf(CUSP_DIAMETER), mpmath.mpf(h)
        return float(2 / mpmath.pi * ((h**2 / 2 - a**2 / 4) * mpmath.asin(h / a) + h / 4 * mpmath.sqrt(a**2 - h**2)))


def test_blaschke_certificate_trivial_power():
    # |B|^2 = 1: the largest window mass / h is the tip window's at h = 1/2
    best = max(_tip_area(h) / h for h in GRID_SIZES)
    assert best == _tip_area(0.5) / 0.5
    value = blaschke_certificate(0)
    assert value == pytest.approx(best, rel=1e-14, abs=0.0)
    assert value == pytest.approx(0.034344196854957, rel=1e-13, abs=0.0)


def test_blaschke_certificate_rejects_a_negative_power():
    # the product's own check runs before the route's
    for method in ("auto", "monte-carlo"):
        with pytest.raises(ValueError, match="power must be nonnegative"):
            blaschke_certificate(-1, method)


def test_blaschke_certificate_sup_sits_at_the_tip():
    b = BlaschkeProduct(unit_interval_dyadic_zeros(6), power=6)
    h = 2.0**-10
    tip = geometry._window_mean_quadrature(b, 1.0, h) / h
    value = blaschke_certificate(6)
    assert value == pytest.approx(tip, rel=1e-10, abs=0.0)
    assert value == pytest.approx(1.78342284997e-8, rel=1e-10, abs=0.0)


def test_blaschke_certificate_decreasing_in_power(blaschke_certificates):
    logs = np.log(blaschke_certificates)
    assert np.all(np.diff(logs) < 0)


def test_blaschke_certificate_monte_carlo_matches_quadrature():
    # r = 0: |B|^2 = 1, so both methods estimate the largest window area / h
    mc = blaschke_certificate(0, method="monte-carlo", samples=200_000, seed=3)
    assert mc == pytest.approx(blaschke_certificate(0), rel=0.03)


def test_blaschke_monte_carlo_evaluates_kept_points_only(monkeypatch):
    # reference: |B|^2 on every sample, zeroed outside the region by np.where
    r, samples, seed = 3, 2000, 5
    b = BlaschkeProduct(unit_interval_dyadic_zeros(r), power=r)
    rng = np.random.default_rng(seed)
    best, kept = 0.0, 0
    for xi in GRID_CENTRES:
        for h in GRID_SIZES.tolist():
            w = np.concatenate(list(geometry._window_blocks(rng, xi, h, samples)))
            ok = (np.abs(w) < 1.0) & REGION.contains(w)
            best = max(best, float(h**2 * np.where(ok, b.abs2(w), 0.0).mean()) / h)
            kept += int(ok.sum())
    points = []
    abs2 = BlaschkeProduct.abs2
    monkeypatch.setattr(BlaschkeProduct, "abs2", lambda self, w: points.append(w.size) or abs2(self, w))
    got = blaschke_certificate(r, method="monte-carlo", samples=samples, seed=seed)
    assert got == pytest.approx(best, rel=1e-12, abs=0.0)
    assert sum(points) == kept


BLOCK = geometry._MC_BLOCK


def _one_shot_uniforms(seed, samples):
    # the draws before blocks: all radii, then all angles, from one generator
    rng = np.random.default_rng(seed)
    return rng.random(samples), rng.random(samples)


def test_polar_is_complex_exp_bit_for_bit():
    theta = np.random.default_rng(11).uniform(-2.0 * np.pi, 4.0 * np.pi, 100_003)
    theta[:4] = [-2.0 * np.pi, 0.0, np.pi, 4.0 * np.pi]
    r = np.random.default_rng(12).random(theta.size)
    for radius in (r, 0.75, 1.0):
        want = radius * np.exp(1j * theta)
        got = geometry._polar(radius, theta)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cusp_polar_membership_is_contains_bit_for_bit():
    g = np.random.default_rng(13)
    n = 50_000
    # anywhere near the region, then at depths 1e-9 up to the first
    # breakpoint within twice the slice's half-angle, and the tip itself
    depth = np.geomspace(1e-9, REGION.breakpoints()[0], n)
    rho = np.concatenate([1.2 * g.random(n), 1.0 - depth, [1.0]])
    phi = np.concatenate([g.uniform(-np.pi, np.pi, n), REGION.angular_measure(depth) * g.uniform(-1.0, 1.0, n), [0.0]])
    got = REGION.contains_polar(rho, phi)
    assert np.array_equal(got, REGION.contains(geometry._polar(rho, phi)))
    assert 0 < np.count_nonzero(got[n:]) < n
    assert not got[-1]


def test_disk_polar_membership_reads_the_radius():
    g = np.random.default_rng(14)
    rho, phi = 2.0 * g.random(100_000), g.uniform(-np.pi, np.pi, 100_000)
    away = np.abs(rho - 1.0) > 1e-12
    disk = geometry._UNIT_DISK
    got = disk.contains_polar(rho, phi)
    assert np.array_equal(got[away], disk.contains(geometry._polar(rho, phi))[away])


def test_annulus_monte_carlo_on_a_known_base_forms_no_point(monkeypatch):
    # the values are those of points built by _polar in the image's frame
    def no_points(*args):
        raise AssertionError("formed a point")

    monkeypatch.setattr(geometry, "_polar", no_points)
    for spec, t, value in [("cusp", 2.0**-6, 5.177709305142975e-07),
                           (ROTATED_CUSP, 0.1, 1.7574736142548277e-05),
                           ("affine:r=0.9,theta=5.6", 0.2, 0.16967879999999996)]:
        got = annulus_area(parse_symbol(spec), t, method="monte-carlo", samples=100_000, seed=7)
        assert got.value == value
    # no Image: the winding test still takes points
    twice = parse_symbol("compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))")
    with pytest.raises(AssertionError, match="formed a point"):
        annulus_area(twice, 0.5, method="monte-carlo", samples=100, seed=7)


@pytest.mark.parametrize(
    "spec, t, samples",
    [
        pytest.param("cusp", 0.1, BLOCK - 1, id="cusp-block-1"),
        pytest.param("cusp", 0.1, BLOCK, id="cusp-block"),
        pytest.param("cusp", 0.1, BLOCK + 1, id="cusp-block+1"),
        pytest.param("cusp", 0.1, 3 * BLOCK - 7, id="cusp-3block-7"),
        # with the two below, the benchmark's Monte Carlo jobs, whose oracle
        # needs hits short of every sample: sigma > 0
        pytest.param("cusp", 2.0**-6, 3 * BLOCK - 7, id="cusp-tip-3block-7"),
        pytest.param(ROTATED_CUSP, 0.1, 3 * BLOCK - 7, id="rotated-cusp-3block-7"),
        pytest.param("affine:r=0.9,theta=5.6", 0.2, 3 * BLOCK - 7, id="disk-3block-7"),
    ],
)
def test_annulus_monte_carlo_blocks_match_one_shot_draws(spec, t, samples):
    # reference: all draws at once, points by complex exp, membership in the image's frame
    s, seed = parse_symbol(spec), 9
    image = geometry.image_of(s)
    centre, theta0 = np.angle(image.factor), image.box_angle(t)
    lo2 = (1.0 - t) ** 2
    box = (1.0 - lo2) * (theta0 / np.pi)
    u, v = _one_shot_uniforms(seed, samples)
    w = np.sqrt(lo2 + (1.0 - lo2) * u) * np.exp(1j * (centre + theta0 * (2.0 * v - 1.0)))
    hits = geometry.image_contains(s, w)
    got = annulus_area(s, t, method="monte-carlo", samples=samples, seed=seed)
    assert 0 < hits.sum() < samples
    assert got.value == box * hits.mean()  # the same hit count
    std = box * hits.std(ddof=1) / math.sqrt(samples)
    assert got.std_error == pytest.approx(std, rel=1e-14, abs=0.0)


def _one_shot_window_values(u, v, xi, h, weight):
    w = xi + h * np.sqrt(u) * np.exp(1j * (2.0 * np.pi * v))
    ok = (np.abs(w) < 1.0) & REGION.contains(w)
    return h**2 * np.where(ok, weight(w), 0.0)


def test_window_monte_carlo_blocks_match_one_shot_draws():
    samples, seed, window = 3 * BLOCK - 7, 4, CarlesonWindow(1.0, 0.25)
    vals = _one_shot_window_values(*_one_shot_uniforms(seed, samples), 1.0, 0.25, np.ones_like)
    got = window_area(CUSP, window, method="monte-carlo", samples=samples, seed=seed)
    assert got.value == pytest.approx(vals.mean(), rel=1e-12, abs=0.0)
    assert got.std_error == pytest.approx(vals.std(ddof=1) / math.sqrt(samples), rel=1e-12, abs=0.0)


def test_blaschke_monte_carlo_blocks_share_one_generator(monkeypatch):
    # four windows drawn one after another, every size about each centre in
    # turn: each must start where the last one's one-shot draws ended, past a
    # block boundary
    r, samples, seed = 3, BLOCK + 5, 6
    centres, sizes = [1.0, complex(math.cos(0.25), math.sin(0.25))], np.array([0.5, 0.125])
    monkeypatch.setattr(geometry, "default_window_grid", lambda: (centres, sizes))
    b = BlaschkeProduct(unit_interval_dyadic_zeros(r), power=r)
    rng = np.random.default_rng(seed)
    best = 0.0
    for xi in centres:
        for h in sizes:
            u, v = rng.random(samples), rng.random(samples)
            best = max(best, _one_shot_window_values(u, v, xi, h, b.abs2).mean() / h)
    got = blaschke_certificate(r, method="monte-carlo", samples=samples, seed=seed)
    assert got == pytest.approx(best, rel=1e-12, abs=0.0)


def test_monte_carlo_needs_two_samples():
    with pytest.raises(geometry.MethodError, match="2 samples"):
        annulus_area(CUSP, 0.1, method="monte-carlo", samples=1, seed=3)
    with pytest.raises(geometry.MethodError, match="2 samples"):
        window_area(CUSP, CarlesonWindow(1.0, 0.25), method="monte-carlo", samples=1, seed=3)
    with pytest.raises(geometry.MethodError, match="2 samples"):
        blaschke_certificate(1, method="monte-carlo", samples=1, seed=3)


@pytest.mark.parametrize("seed", [None, -1])
def test_monte_carlo_needs_a_seed(seed):
    # no entry point samples with a seed it was not given
    with pytest.raises(geometry.MethodError, match="seed >= 0"):
        annulus_area(CUSP, 0.1, method="monte-carlo", seed=seed)
    with pytest.raises(geometry.MethodError, match="seed >= 0"):
        window_area(CUSP, CarlesonWindow(1.0, 0.25), method="monte-carlo", seed=seed)
    with pytest.raises(geometry.MethodError, match="seed >= 0"):
        blaschke_certificate(1, method="monte-carlo", seed=seed)
    # "auto" samples where no exact route holds, and then needs the seed too
    twice = parse_symbol("compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))")
    with pytest.raises(geometry.MethodError, match="seed >= 0"):
        annulus_area(twice, 0.1, seed=seed)
    with pytest.raises(geometry.MethodError, match="seed >= 0"):
        window_area(AffineMap(0.5), CarlesonWindow(1.0, 0.25), seed=seed)


# the child's own peak: ru_maxrss would carry the forking test process's peak
# across exec, while VmHWM belongs to the memory map exec made
_PEAK_RSS_RUN = """
import sys
from compopnum import geometry
from compopnum.symbols import parse_symbol

if sys.argv[1] == "annulus":
    geometry.annulus_area(parse_symbol("compose(affine:r=0.95,theta=2,cusp)"), 0.1,
                          "monte-carlo", samples=10**7, seed=1)
else:
    geometry.window_area(parse_symbol("cusp"), geometry.CarlesonWindow(1.0, 0.125),
                         "monte-carlo", samples=10**7, seed=1)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))  # kB
"""


@pytest.mark.parametrize("route", ["annulus", "window"])
def test_monte_carlo_memory_is_set_by_the_block(route):
    # 10^7 samples drawn at once peaked near 744 MB; by blocks of 2^13 ~37 MB, 30 of it imports
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_RUN, route], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) / 1024 < 64.0


def test_window_grid_is_centres_by_sizes():
    # centres e^{i theta}: theta = 0, then +2^-j, -2^-j for j = 1..8
    centres, sizes = geometry.default_window_grid()
    thetas = [0.0] + [sign * 2.0**-j for j in range(1, 9) for sign in (1.0, -1.0)]
    assert len(centres) == 17
    assert np.abs(centres) == pytest.approx(np.ones(17), rel=1e-15, abs=0.0)
    assert np.angle(centres) == pytest.approx(thetas, rel=1e-15, abs=0.0)
    # sizes 2^-1 .. 2^-12, decreasing, as one float array
    assert isinstance(sizes, np.ndarray) and sizes.dtype == float
    assert sizes.tolist() == [2.0**-l for l in range(1, 13)]


def test_tip_window_matches_the_closed_form():
    # each size alone, and all sizes from one rule
    shared = geometry._window_mean_quadrature(BlaschkeProduct(()), 1.0, GRID_SIZES)
    for h, value in zip(GRID_SIZES, shared):
        alone = geometry._window_mean_quadrature(BlaschkeProduct(()), 1.0, h)
        assert abs(alone - _tip_area(h)) <= 1e-15 * _tip_area(h)
        assert abs(value - _tip_area(h)) <= 1e-15 * _tip_area(h)


def test_tip_window_matches_node_loop():
    # reference: at each radius sigma about the tip, the region's one arc
    # pi +/- arcsin(sigma/a), a 20-point rule on it, summed in a loop
    b = BlaschkeProduct(unit_interval_dyadic_zeros(4), power=4)
    h = 0.25
    x, w = geometry._GAUSS
    sigmas, weights = geometry._panel_rule(*geometry._split_panels([0.0, h]))
    acc = 0.0
    for sigma, weight in zip(sigmas, weights):
        half = math.asin(sigma / CUSP_DIAMETER)
        points = 1.0 + sigma * np.exp(1j * (np.pi + half * x))
        acc += weight * sigma * half * float(np.dot(w, b.abs2(points)))
    value = geometry._window_mean_quadrature(b, 1.0, h)
    assert value == pytest.approx(acc / math.pi, rel=1e-13, abs=0.0)


POWERS = range(11)


class _DyadicPowers:
    """|B_r|^2 for r = 0..10 as the columns of one weight, B_r the product over
    the first r dyadic zeros raised to r.  Window means are linear in the
    weight, so one rule gives every power's means at once; each column takes
    the products in `BlaschkeProduct.abs2`'s order."""

    def abs2(self, w):
        factors = [BlaschkeProduct((z,)).abs2(w) for z in unit_interval_dyadic_zeros(POWERS[-1])]
        products = np.cumprod([np.ones(w.shape)] + factors, axis=0)
        return np.stack([products[r] ** r for r in POWERS], axis=1)


@pytest.fixture(scope="module")
def window_means():
    """(shared, alone) for each centre of the grid: [size, power] means of its
    windows, from one rule for all sizes and from one rule per size."""
    b = _DyadicPowers()
    return [(geometry._window_mean_quadrature(b, xi, GRID_SIZES),
             np.concatenate([geometry._window_mean_quadrature(b, xi, GRID_SIZES[i : i + 1])
                             for i in range(GRID_SIZES.size)]))
            for xi in GRID_CENTRES]


@pytest.mark.parametrize("r", [1, 2, 8])
def test_window_means_are_conjugation_symmetric(r):
    # the cusp region and |B| with real zeros are symmetric under w -> conj(w),
    # so the window about conj(xi) has the mean of the window about xi
    b = BlaschkeProduct(unit_interval_dyadic_zeros(r), power=r)
    for xi in GRID_CENTRES:
        mirrored = geometry._window_mean_quadrature(b, xi.conjugate(), GRID_SIZES)
        np.testing.assert_allclose(
            mirrored, geometry._window_mean_quadrature(b, xi, GRID_SIZES), rtol=1e-14, atol=0.0)


def test_a_scalar_size_is_the_one_size_rule():
    b = BlaschkeProduct(unit_interval_dyadic_zeros(4), power=4)
    # the tip, and the centre e^{-i/2}
    for xi, h in [(1.0, 0.125), (GRID_CENTRES[2], 2.0**-6)]:
        value = geometry._window_mean_quadrature(b, xi, h)
        assert type(value) is float
        assert value == geometry._window_mean_quadrature(b, xi, np.array([h]))[0]


@pytest.mark.parametrize("r", [0, 4])
def test_window_sizes_share_one_rule(window_means, r):
    # windows far below the sup, near the region's edge, converge in neither
    # rule (one of ~6e-23 at r = 8 differs by ~20% between them); the
    # windows near the sup agree
    ratios = [(shared[:, r] / GRID_SIZES, alone[:, r] / GRID_SIZES) for shared, alone in window_means]
    sup = max(alone.max() for _, alone in ratios)
    for shared, alone in ratios:
        near = alone >= 1e-3 * sup
        assert shared[near] == pytest.approx(alone[near], rel=1e-9, abs=0.0)


def test_blaschke_certificate_is_the_per_window_maximum(window_means):
    for r in POWERS:
        best = max(float(np.max(alone[:, r] / GRID_SIZES)) for _, alone in window_means)
        assert blaschke_certificate(r) == pytest.approx(best, rel=1e-12, abs=0.0)


def test_dyadic_zeros():
    assert unit_interval_dyadic_zeros(3) == (0.5, 0.75, 0.875)


def test_region_power_norms_paper_scale():
    # ||chi^n|| * sqrt(n) / (log n)^{3/2} stays bounded over two decades
    ns = np.arange(10, 1001)
    norms = REGION.power_norms(ns)
    scaled = norms * np.sqrt(ns) / np.log(ns) ** 1.5
    running_max = np.maximum.accumulate(scaled)
    assert running_max[-1] / running_max[0] < 3.0
    # and the norm sequence is eventually decreasing
    assert np.all(np.diff(norms[50:]) < 0)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1024, 2048])
def test_region_power_norms_in_row_blocks_match_one_matrix(n):
    # reference: every power's s^(2k-2) on every node in one [k, node] matrix
    ks = np.arange(1, n + 1, dtype=float)
    u, w = REGION.radial_rule()
    moments = np.exp(np.outer(2.0 * ks - 2.0, np.log1p(-u))) @ (w * REGION.angular_measure(u))
    np.testing.assert_allclose(REGION.power_norms(ks), ks * np.sqrt(moments), rtol=2e-16, atol=0.0)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(theta=ANGLES, n=st.integers(1, 200))
def test_scaled_cusp_power_norms(theta, n):
    # ||(f chi)^k|| = |f|^k ||chi^k||: the scaled cusp takes the region route
    scaled = geometry.image_of(ComposedMap(AffineMap(0.9, theta), CUSP)).power_norms(n)
    plain = geometry.image_of(CUSP).power_norms(n)
    assert scaled == pytest.approx(0.9 ** np.arange(1, n + 1) * plain, rel=1e-12)


def test_region_gram_matches_diagonal_loop():
    # reference: the Gram matrix filled one entry at a time, diagonal by diagonal
    N = 48
    u, wts = REGION.radial_rule()
    alpha, lo, hi = REGION.arc_data(u)
    hi, lo = np.minimum(hi, alpha), np.minimum(lo, alpha)
    s = 1.0 - u
    G = np.empty((N, N))
    for q in range(N):
        if q == 0:
            ang = 2.0 * (alpha - (hi - lo))
        else:
            ang = 2.0 * (np.sin(q * alpha) - (np.sin(q * hi) - np.sin(q * lo))) / q
        for m in range(N - q):
            moment = np.dot(wts * ang, s ** (2 * m + q))
            G[m, m + q] = G[m + q, m] = math.sqrt((m + 1) * (m + q + 1)) * moment
    ref = np.sqrt(np.maximum(np.linalg.eigvalsh(G)[::-1], 0.0))
    assert region_gram_singular_values(N)[:10] == pytest.approx(ref[:10], rel=1e-12, abs=0.0)


def _full_gemm_region_gram(N):
    """The region Gram's singular values from every P[m, q], m, q < N, on
    every node in the rule's own order, read back on the triangle."""
    u, wts = REGION.radial_rule()
    alpha, lo, hi = REGION.arc_data(u)
    hi, lo = np.minimum(hi, alpha), np.minimum(lo, alpha)
    q = np.arange(1, N)[:, None]
    ang = np.empty((N, u.size))
    ang[0] = REGION.angular_measure(u)
    ang[1:] = 2.0 * (np.sin(q * alpha) - np.sin(q * hi) + np.sin(q * lo)) / q
    radial = np.exp(np.outer(np.arange(N), np.log1p(-u)))  # s^m
    P = radial**2 @ (ang * radial * wts).T
    i, j = np.triu_indices(N)
    G = np.zeros((N, N))
    G[i, j] = np.sqrt((i + 1.0) * (j + 1.0)) * P[i, j - i]
    return np.sqrt(np.maximum(np.linalg.eigvalsh(G, UPLO="U")[::-1], 0.0))


def test_region_gram_blocks_match_full_gemm():
    # the blocked build drops only nodes whose weight s^(2m+q) is below 1e-30
    N = 512
    ref = _full_gemm_region_gram(N)
    values = region_gram_singular_values(N)
    assert values[:20] == pytest.approx(ref[:20], rel=1e-12, abs=0.0)
    assert values == pytest.approx(ref, rel=0.0, abs=1e-8)


@pytest.mark.parametrize("N", [0, -3])
def test_region_gram_rejects_empty_size(N):
    with pytest.raises(ValueError, match="N must be positive"):
        region_gram_singular_values(N)


@pytest.mark.parametrize("N", [64, 256, 1024])
def test_region_gram_hilbert_schmidt_identity(N):
    # trace G = sum_k k (1/pi) int |w|^(2k-2) dA = sum_k ||chi^k||^2 / k
    ks = np.arange(1, N + 1)
    hs = np.sum(region_gram_singular_values(N) ** 2)
    assert hs == pytest.approx(np.sum(REGION.power_norms(ks) ** 2 / ks), rel=1e-12, abs=0.0)


def test_region_gram_monotone_and_dominates_matrix(cusp_spectra):
    # the Gram compression of C*C dominates the squared SVD compression and
    # increases with the truncation size
    g256 = region_gram_singular_values(256)
    g512 = region_gram_singular_values(512)
    assert np.all(g512[:256] >= g256 - 1e-10)
    _, spec = cusp_spectra[512]
    top = slice(0, 12)
    assert np.all(g512[top] >= spec.values[top] - 1e-9)


def _use_radial_nodes(monkeypatch, n):
    """Swap the panel rule's 20 nodes per panel for n."""
    monkeypatch.setattr(geometry, "_GAUSS", np.polynomial.legendre.leggauss(n))


@pytest.mark.parametrize("r2", [1.0, 0.81])
def test_cusp_column_tail_node_rules_agree(r2, monkeypatch):
    ns = (1, 65, 1025, 100_000)
    rule20 = [REGION.column_tail_sq(n, r2) for n in ns]
    _use_radial_nodes(monkeypatch, 24)
    rule24 = [REGION.column_tail_sq(n, r2) for n in ns]
    assert rule20 == pytest.approx(rule24, rel=1e-8, abs=0.0)
    assert rule20 != rule24  # the patch took effect


def test_M_functional_node_rules_agree(monkeypatch):
    rule20 = [M_functional(CUSP, t) for t in M_DEPTHS]
    _use_radial_nodes(monkeypatch, 40)
    rule40 = [M_functional(CUSP, t) for t in M_DEPTHS]
    assert rule20 == pytest.approx(rule40, rel=1e-13, abs=0.0)
    assert rule20 != rule40  # the patch took effect


def test_region_gram_node_rules_agree(monkeypatch):
    # the Gram needs no finer rule than the norms and tails: 24 nodes per
    # panel move its top 20 values by far less than 1e-10
    rule20 = region_gram_singular_values(256)[:20]
    _use_radial_nodes(monkeypatch, 24)
    rule24 = region_gram_singular_values(256)[:20]
    assert rule20 == pytest.approx(rule24, rel=1e-10, abs=0.0)
    assert not np.array_equal(rule20, rule24)  # the patch took effect


@pytest.mark.parametrize(
    ("base", "r2"), [(REGION, 1.0), (REGION, 0.81), (geometry._UNIT_DISK, 0.81)]
)
def test_column_tails_telescope_to_power_norms(base, r2):
    # tau_k^2 - tau_(k+1)^2 = r2^k ||w^k||^2 / k: the closed form sums the norms
    ks = np.arange(1, 100)
    steps = [base.column_tail_sq(k, r2) - base.column_tail_sq(k + 1, r2) for k in ks]
    assert steps == pytest.approx(r2**ks * base.power_norms(ks) ** 2 / ks, rel=1e-11, abs=0.0)
