import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compopnum.geometry import (
    BlaschkeProduct,
    CarlesonWindow,
    CuspRegion,
    M_functional,
    annulus_area,
    blaschke_certificate,
    cusp_imaginary_law,
    cusp_inscribed_disk_radius,
    m_functional,
    region_gram_singular_values,
    region_power_norms,
    unit_interval_dyadic_zeros,
    window_area,
    zinc_upper_bound,
)
from compopnum.series import dirichlet_power_norms
from compopnum.symbols import CUSP_DIAMETER, AffineMap, ComposedMap, CuspMap, MoebiusMap

REGION = CuspRegion()
CUSP = CuspMap()
ANGLES = st.floats(0.0, 2.0 * math.pi)
# depth in the unscaled image, kept off 0 so the annulus has area to sample
BASE_DEPTHS = st.floats(2.0**-6, 1.0)


def test_region_area_closed_form():
    # the two excluded half-lenses leave exactly a^2/(2 pi)
    assert REGION.annulus_area(1.0) == pytest.approx(CUSP_DIAMETER**2 / (2 * math.pi), abs=1e-12)


def test_region_contains_mapped_points():
    g = np.random.default_rng(1)
    z = np.sqrt(g.random(20_000)) * 0.9999 * np.exp(2j * np.pi * g.random(20_000))
    w = CUSP.evaluate(z)
    assert REGION.contains(w).all()


def test_angular_measure_matches_monte_carlo():
    g = np.random.default_rng(2)
    for s in (0.55, 0.7, 0.9):
        th = 2 * np.pi * g.random(1_000_000)
        frac = REGION.contains(s * np.exp(1j * th)).mean()
        exact = float(REGION.angular_measure(1.0 - s)) / (2 * np.pi)
        assert frac == pytest.approx(exact, abs=4.0 * math.sqrt(exact / 1_000_000) + 1e-6)


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
    for t in (0.25, 2.0**-6):
        polar = annulus_area(CUSP, t, method="polar")
        assert polar.value == pytest.approx(annulus_area(CUSP, t).value, rel=5e-2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(r=st.floats(0.5, 1.0), theta=ANGLES, u=BASE_DEPTHS)
def test_exact_arcs_rotation_invariant(r, theta, u):
    t = 1.0 - r * (1.0 - u)
    rotated = annulus_area(ComposedMap(AffineMap(r, theta), CUSP), t, method="exact-arcs")
    plain = annulus_area(ComposedMap(AffineMap(r), CUSP), t, method="exact-arcs")
    # |r e^{i theta}| may differ from r in the last place
    assert rotated.value == pytest.approx(plain.value, rel=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["affine", "moebius", "cusp", "rotated-cusp"]),
    r=st.floats(0.5, 1.0),
    theta=ANGLES,
    u=BASE_DEPTHS,
)
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
    assert abs(mc.value - exact) <= 5.0 * mc.std_error + 1e-15


def test_annulus_area_affine_disjoint():
    assert annulus_area(AffineMap(0.5), 0.25).value == 0.0
    assert annulus_area(MoebiusMap(0.3), 0.25).value == pytest.approx(1 - 0.75**2)


def test_annulus_area_monotone_in_t():
    ts = np.linspace(0.05, 1.0, 12)
    vals = [annulus_area(CUSP, float(t)).value for t in ts]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_m_functional_near_linear_for_cusp():
    vals = {t: m_functional(CUSP, t).value for t in [2.0**-l for l in range(3, 9)]}
    ratios = [v / t for t, v in vals.items()]
    med = np.median(ratios)
    assert max(ratios) <= 2 * med and min(ratios) >= med / 2


def test_m_functional_affine_zero():
    assert m_functional(AffineMap(0.5), 0.25).value == 0.0
    assert M_functional(AffineMap(0.5), 0.25).value == 0.0


def test_M_functional_dyadic_sum_bounded():
    for t in (0.125, 0.03125):
        m = m_functional(CUSP, t).value
        M = M_functional(CUSP, t, k_max=40).value
        assert m < M <= 2.5 * m


def test_zinc_upper_bound_affine_closed_form():
    for n in (5, 20):
        val, t_star = zinc_upper_bound(AffineMap(0.5), n)
        assert val <= n * 0.5**n + 1e-12
        assert t_star >= 0.5 - 1e-9


def test_zinc_finite_at_n1():
    val, _ = zinc_upper_bound(CUSP, 1)
    assert math.isfinite(val)


def test_zinc_eventually_nonincreasing_for_cusp():
    vals = [zinc_upper_bound(CUSP, n)[0] for n in range(10, 60, 5)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


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


def test_carleson_window_validation():
    with pytest.raises(ValueError):
        CarlesonWindow(0.5, 0.1)
    with pytest.raises(ValueError):
        CarlesonWindow(1.0, 1.5)


def test_cusp_imaginary_law_quadratic():
    ratios = [cusp_imaginary_law(2.0**-l) / 4.0**-l for l in range(3, 9)]
    med = np.median(ratios)
    assert max(ratios) <= 2 * med and min(ratios) >= med / 2
    # exact constant 1/a at the tip
    assert ratios[-1] == pytest.approx(1 / CUSP_DIAMETER, rel=1e-3)


def test_cusp_imaginary_law_endpoint():
    a = CUSP_DIAMETER
    h = a - 1.0
    val = cusp_imaginary_law(h)
    # half-height of the region at real part 2-a comes from the outer circles
    expect = a / 2 - math.sqrt((a / 2) ** 2 - h**2)
    assert val == pytest.approx(expect, abs=1e-12)
    assert val == pytest.approx(float(REGION.slice_halfwidth(2.0 - a)), abs=1e-12)


def test_inscribed_disks_inside_region():
    # D(x, h^2/(4a)) subset of the region for 0 <= x <= 1-h
    g = np.random.default_rng(6)
    a = CUSP_DIAMETER
    for h in (0.1, 0.3, a - 1.0):
        r = cusp_inscribed_disk_radius(h)
        for x in np.linspace(0.0, 1.0 - h, 5):
            pts = x + r * 0.999 * np.exp(2j * np.pi * g.random(10_000))
            assert REGION.contains(pts).all()


def test_blaschke_single_factor():
    b = BlaschkeProduct((0.5,), power=1)
    assert math.sqrt(b.abs2(0.0)) == pytest.approx(0.5)


def test_blaschke_certificate_trivial_power():
    val = blaschke_certificate(0)
    assert math.isfinite(val) and val > 0


def test_blaschke_certificate_decreasing_in_power():
    vals = [blaschke_certificate(r, n_zeros=10) for r in (4, 6, 8, 10)]
    logs = np.log(vals)
    assert np.all(np.diff(logs) < 0)


def test_dyadic_zeros():
    assert unit_interval_dyadic_zeros(3) == (0.5, 0.75, 0.875)


def test_region_power_norms_paper_scale():
    # ||chi^n|| * sqrt(n) / (log n)^{3/2} stays bounded over two decades
    ns = np.arange(10, 1001)
    norms = region_power_norms(ns)
    scaled = norms * np.sqrt(ns) / np.log(ns) ** 1.5
    running_max = np.maximum.accumulate(scaled)
    assert running_max[-1] / running_max[0] < 3.0
    # and the norm sequence is eventually decreasing
    assert np.all(np.diff(norms[50:]) < 0)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(theta=ANGLES, n=st.integers(1, 200))
def test_scaled_cusp_power_norms(theta, n):
    # ||(f chi)^k|| = |f|^k ||chi^k||: the scaled cusp takes the region route
    scaled, _ = dirichlet_power_norms(ComposedMap(AffineMap(0.9, theta), CUSP), n)
    plain, _ = dirichlet_power_norms(CUSP, n)
    assert scaled == pytest.approx(0.9 ** np.arange(1, n + 1) * plain, rel=1e-12)


def test_region_gram_monotone_and_dominates_matrix(cusp_spectra):
    # the Gram compression of C*C dominates the squared SVD compression and
    # increases with the truncation size
    g256 = region_gram_singular_values(256)
    g512 = region_gram_singular_values(512)
    assert np.all(g512[:256] >= g256 - 1e-10)
    _, spec = cusp_spectra[512]
    top = slice(0, 12)
    assert np.all(g512[top] >= spec.values[top] - 1e-9)
