import numpy as np
import pytest

from compopnum.series import (
    SeriesParams,
    coefficients_of_power,
    dirichlet_power_norms,
    power_coefficient_table,
    power_mass,
)
from compopnum.symbols import (
    AffineMap,
    ComposedMap,
    CoefficientMap,
    CuspMap,
    MoebiusMap,
    parse_symbol,
)


def test_affine_cube_is_exact():
    ps = coefficients_of_power(AffineMap(0.5), 3, 8)
    expected = np.zeros(9, dtype=complex)
    expected[3] = 0.125
    assert np.abs(ps.coeffs - expected).max() <= 1e-14
    # exact zeros, not merely small: flushed against the roundoff floor
    assert np.count_nonzero(ps.coeffs) == 1


def test_cusp_constant_term_vanishes():
    ps = coefficients_of_power(CuspMap(), 1, 64)
    assert abs(ps.coeffs[0]) <= max(ps.error_bound, 1e-12)
    assert not ps.aliasing_suspect


def test_moebius_coefficients_geometric_series():
    u = 0.3
    ps = coefficients_of_power(MoebiusMap(u), 1, 12)
    exact = np.array([u] + [-(1 - u * u) * u ** (j - 1) for j in range(1, 13)])
    assert np.abs(ps.coeffs - exact).max() <= 1e-12


@pytest.mark.parametrize(
    "s",
    [
        AffineMap(0.5),
        ComposedMap(AffineMap(0.7), MoebiusMap(0.3)),
        CoefficientMap((0.0, 0.5, 0.25), univalent=True, sup_norm=0.75),
    ],
    ids=lambda s: s.spec_string(),
)
def test_power_equals_selfconvolution(s):
    k, M = 4, 48
    base = coefficients_of_power(s, 1, M).coeffs
    conv = base.copy()
    for _ in range(k - 1):
        conv = np.convolve(conv, base)[: M + 1]
    direct = coefficients_of_power(s, k, M).coeffs
    assert np.abs(direct - conv).max() <= 1e-8


def test_dirichlet_power_norms_affine_closed_form():
    norms, bounds = dirichlet_power_norms(AffineMap(0.5), 8, M=32)
    ks = np.arange(1, 9)
    exact = np.sqrt(ks) * 0.5**ks
    assert np.abs(norms - exact).max() <= 1e-12
    assert norms[3] == pytest.approx(0.125)
    assert np.all(bounds >= 0)


def test_dirichlet_power_norms_identity():
    norms, _ = dirichlet_power_norms(AffineMap(1.0), 9, M=32)
    assert norms[8] == pytest.approx(3.0, abs=1e-10)


# the Moebius involution applied twice is the cusp, but the image normal form
# does not see through it: its power norms take the coefficient route
TWICE_CUSP = parse_symbol("compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))")


def test_power_norm_bound_infinite_without_visible_decay():
    # the cusp's 13th to 16th powers still carry undecayed mass at degree 64
    norms, bounds = dirichlet_power_norms(TWICE_CUSP, 16)
    assert np.all(np.isfinite(norms))
    assert np.all(np.isfinite(bounds[:12]))
    assert np.all(np.isinf(bounds[12:]))


def test_cusp_region_vs_coefficients_at_low_powers():
    # the coefficient route can only lose mass (degrees above the cutoff),
    # and the loss grows with the power: the norm mass of cusp powers
    # spreads to exponentially high degrees
    reg, _ = dirichlet_power_norms(CuspMap(), 3)
    coef, _ = dirichlet_power_norms(TWICE_CUSP, 3, M=4096)
    assert np.all(coef <= reg + 1e-9)
    gaps = (reg - coef) / reg
    assert gaps[0] <= 2e-2
    assert np.all(np.diff(gaps) > 0)


def test_power_mass_beyond_the_table():
    # a known base: the exact norm minus the retained mass, which for z/2
    # (one coefficient per row) is roundoff
    table, _, _, _ = power_coefficient_table(AffineMap(0.5), 4, SeriesParams(8))
    mass, beyond = power_mass(AffineMap(0.5), table)
    assert mass.shape == (4, 9)
    ks = np.arange(1, 5)
    assert mass.sum(axis=1) == pytest.approx(ks * 0.25**ks, rel=1e-14, abs=0.0)
    assert np.all(beyond >= 0.0) and np.all(beyond <= 1e-15)
    # without a known base a row too short for a tail fit has unknown mass
    # beyond it; a polynomial's dead rows have none
    poly = parse_symbol("coeffs:[0,0.5,0.25]")
    short, _, _, _ = power_coefficient_table(poly, 2, SeriesParams(4))
    assert np.all(np.isinf(power_mass(poly, short)[1]))
    table, _, _, _ = power_coefficient_table(poly, 2, SeriesParams(16))
    assert np.all(power_mass(poly, table)[1] == 0.0)


def test_series_params_validation():
    with pytest.raises(ValueError):
        SeriesParams(8, Q=8).resolved()  # fewer than 4(M+1) samples
    with pytest.raises(ValueError):
        SeriesParams(8, rho=1.5).resolved()
    with pytest.raises(ValueError):
        coefficients_of_power(AffineMap(0.5), 0, 8)
