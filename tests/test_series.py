import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from compopnum.geometry import image_of
from compopnum.opmatrix import assemble, singular_spectrum
from compopnum.series import (
    _FLUSH_SAFETY,
    SeriesParams,
    Space,
    dirichlet_power_norms,
    power_coefficient_table,
    power_mass,
)
from compopnum.symbols import (
    EVAL_ULPS,
    AffineMap,
    ComposedMap,
    CoefficientMap,
    CuspMap,
    MoebiusMap,
    builtin_contractions,
    parse_symbol,
)


def test_affine_cube_is_exact():
    table, _ = power_coefficient_table(AffineMap(0.5), 3, SeriesParams(8))
    expected = np.zeros(9, dtype=complex)
    expected[3] = 0.125
    assert np.abs(table[2] - expected).max() <= 1e-14
    # exact zeros, not merely small: flushed against the roundoff floor
    assert np.count_nonzero(table[2]) == 1


def test_cusp_constant_term_vanishes():
    params = SeriesParams(64)
    table, peaks = power_coefficient_table(CuspMap(), 1, params)
    assert abs(table[0, 0]) <= max(params.error_bounds(peaks)[0], 1e-12)
    assert not params.aliasing_suspect


def test_moebius_coefficients_geometric_series():
    u = 0.3
    table, _ = power_coefficient_table(MoebiusMap(u), 1, SeriesParams(12))
    exact = np.array([u] + [-(1 - u * u) * u ** (j - 1) for j in range(1, 13)])
    assert np.abs(table[0] - exact).max() <= 1e-12


@pytest.mark.parametrize(
    "s",
    [
        AffineMap(0.5),
        ComposedMap(AffineMap(0.7), MoebiusMap(0.3)),
        CoefficientMap((0.0, 0.5, 0.25)),
    ],
    ids=lambda s: s.spec_string(),
)
def test_power_equals_selfconvolution(s):
    k, M = 4, 48
    table, _ = power_coefficient_table(s, k, SeriesParams(M))
    conv = table[0].copy()
    for _ in range(k - 1):
        conv = np.convolve(conv, table[0])[: M + 1]
    assert np.abs(table[k - 1] - conv).max() <= 1e-8


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
    # without an image no mass beyond degree M is proved, on any row: the
    # cusp's powers are not polynomials
    table, _ = power_coefficient_table(TWICE_CUSP, 16, SeriesParams(64))
    mass, beyond = power_mass(TWICE_CUSP, table)
    assert np.all(np.isfinite(mass)) and np.all(np.isinf(beyond))
    norms, bounds = dirichlet_power_norms(TWICE_CUSP, 16)
    assert np.all(np.isfinite(norms)) and np.all(np.isinf(bounds))


def test_cusp_region_vs_coefficients_at_low_powers():
    # the coefficient route can only lose mass (degrees above the cutoff),
    # and the loss grows with the power: the norm mass of cusp powers
    # spreads to exponentially high degrees
    reg = image_of(CuspMap()).power_norms(3)
    coef, _ = dirichlet_power_norms(TWICE_CUSP, 3, M=4096)
    assert np.all(coef <= reg + 1e-9)
    gaps = (reg - coef) / reg
    assert gaps[0] <= 2e-2
    assert np.all(np.diff(gaps) > 0)


def test_power_mass_beyond_the_table():
    # a known base: the exact norm minus the retained mass, which for z/2
    # (one coefficient per row) is roundoff
    table, _ = power_coefficient_table(AffineMap(0.5), 4, SeriesParams(8))
    mass, beyond = power_mass(AffineMap(0.5), table)
    assert mass.shape == (4, 9)
    ks = np.arange(1, 5)
    assert mass.sum(axis=1) == pytest.approx(ks * 0.25**ks, rel=1e-14, abs=0.0)
    assert np.all(beyond >= 0.0) and np.all(beyond <= 1e-15)
    # without a known base a row has unknown mass beyond it, unless it holds
    # the whole power of a polynomial (degree 2k)
    poly = parse_symbol("coeffs:[0,0.5,0.25]")
    short, _ = power_coefficient_table(poly, 3, SeriesParams(4))
    assert power_mass(poly, short)[1].tolist() == [0.0, 0.0, math.inf]
    table, _ = power_coefficient_table(poly, 2, SeriesParams(16))
    assert np.all(power_mass(poly, table)[1] == 0.0)


def test_whole_polynomial_powers_have_no_mass_beyond():
    # phi^15 ends at degree 30 of a 33-term row: its two trailing zeros once
    # sent a least-squares tail fit to its crude branch, charging 5.4e-3
    # beyond M = 32
    poly = parse_symbol("coeffs:[0,0.5,0.25]")
    table, _ = power_coefficient_table(poly, 16, SeriesParams(32))
    assert np.all(power_mass(poly, table)[1] == 0.0)


# every catalog symbol with real coefficients, the shifted contraction last
REAL_SYMBOLS = [
    parse_symbol(spec)
    for spec in ("cusp", "affine:r=0.5", "moebius:u=0.3+0i", "coeffs:[0,0.5,0.25]",
                 "compose(affine:r=0.9,cusp)")
] + [builtin_contractions()[3]]


@pytest.mark.parametrize("s", REAL_SYMBOLS, ids=lambda s: s.spec_string())
def test_real_path_matches_the_complex_path(monkeypatch, s):
    # the two paths share the upper half-circle samples; they differ by FFT
    # roundoff and by the complex path's own lower-half products, each of
    # order k eps max|g| rho^-j, a small fraction of the a-priori bound
    params = SeriesParams(128)
    M, rho, _ = params.resolved()
    space = Space.DIRICHLET_STAR if s.fixes_origin else Space.DIRICHLET
    table, peaks = power_coefficient_table(s, 64, params)
    m = assemble(s, 64, space)
    spec = singular_spectrum(m)
    # the reference: the same symbol through the full-circle complex path
    monkeypatch.setattr(type(s), "real_coefficients", property(lambda self: False))
    ref, ref_peaks = power_coefficient_table(s, 64, params)
    ref_m = assemble(s, 64, space)
    ref_spec = singular_spectrum(ref_m)
    assert table.dtype == m.entries.dtype == float
    assert ref.dtype == ref_m.entries.dtype == complex
    assert peaks == pytest.approx(ref_peaks, rel=1e-15, abs=0.0)
    scale = np.arange(1, 65)[:, None] * ref_peaks[:, None] * rho ** -np.arange(M + 1)
    assert np.all(np.abs(table - ref) <= 1e-15 * scale)
    # a_n and their stability radii from the real SVD
    assert np.abs(spec.values - ref_spec.values).max() <= 1e-14
    finite = np.isfinite(ref_spec.stability_radii)
    assert np.array_equal(np.isfinite(spec.stability_radii), finite)
    gap = spec.stability_radii[finite] - ref_spec.stability_radii[finite]
    assert np.abs(gap).max() <= 1e-14


def _per_power_table(s, k_max, params):
    # reference: one FFT per power
    M, rho, Q = params.resolved()
    real = s.real_coefficients
    base = s.evaluate(rho * np.exp(1j * (2.0 * np.pi * np.arange(Q // 2 + 1 if real else Q) / Q)))
    amp = rho ** -np.arange(M + 1)
    rows, peaks, g = [], [], np.ones_like(base)
    for _ in range(k_max):
        g = g * base
        peaks.append(float(np.abs(g).max()))
        c = (np.fft.irfft(np.conj(g), Q) if real else np.fft.fft(g) / Q)[: M + 1] * amp
        c[np.abs(c) < _FLUSH_SAFETY * np.finfo(float).eps * np.log2(Q) * peaks[-1] * amp] = 0.0
        rows.append(c)
    return np.array(rows), np.array(peaks)


@pytest.mark.parametrize("spec", ["cusp", "affine:r=0.7,theta=1"])
def test_partial_last_block_matches_per_power_transforms(spec):
    # a one-row work buffer, exactly one block, and a full block then a partial one
    s, params = parse_symbol(spec), SeriesParams(64)
    for k_max in (1, 8, 13):
        table, peaks = power_coefficient_table(s, k_max, params)
        ref, ref_peaks = _per_power_table(s, k_max, params)
        assert np.array_equal(table, ref) and np.array_equal(peaks, ref_peaks), k_max


_TABLE_MEMORY_RUN = """
import resource
from compopnum.opmatrix import assemble
from compopnum.series import SeriesParams, power_coefficient_table
from compopnum.symbols import parse_symbol

cusp = parse_symbol("cusp")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
power_coefficient_table(cusp, 1024, SeriesParams(2048))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
assemble(cusp, 1024)
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))  # kB
"""


def test_cusp_table_reuses_its_block_buffers():
    # A fresh 2 MB block per FFT call (and its conjugate, modulus and scaled
    # copies) was handed back to the kernel and faulted in again: ~170k minor
    # faults for the N = 1024 table, where one work buffer reused by every
    # block takes ~5k, most of them the 17 MB table itself.  The churn depends
    # on the block shape (blocks of 4 in the same buffers churned again), so
    # a new _POWER_BLOCK needs this re-measured.  `assemble` then peaked
    # near 156 MB with the region power norms' [k, node] array built at once,
    # ~83 MB with both in blocks, ~30 MB of it imports.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _TABLE_MEMORY_RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults, peak_kb = map(int, proc.stdout.split())
    assert faults < 20_000
    assert peak_kb / 1024 < 110.0


def test_series_params_validation():
    with pytest.raises(ValueError):
        SeriesParams(8, Q=8).resolved()  # fewer than 4(M+1) samples
    with pytest.raises(ValueError, match=r"need at least 4\(M\+1\) samples"):
        SeriesParams(8, Q=0).resolved()  # not the default plan
    with pytest.raises(ValueError):
        SeriesParams(8, rho=1.5).resolved()


@pytest.fixture(scope="module")
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def _mp_map(mp, s, z):
    """Each catalog kind's closed form in mpmath arithmetic."""
    if isinstance(s, CuspMap):
        w = mp.sqrt((z - 1j) / (1j * z - 1))  # q lies in the upper half-plane
        h2 = 1 - 2 / mp.pi * mp.log((w - 1j) / (1 - 1j * w))
        return 1 - (1 - 2 / mp.pi * mp.log(mp.sqrt(2) - 1)) / h2
    if isinstance(s, AffineMap):
        return s.r * mp.expj(s.theta) * z
    if isinstance(s, MoebiusMap):
        u = mp.mpc(s.u)
        return (u - z) / (1 - mp.conj(u) * z)
    if isinstance(s, CoefficientMap):
        return mp.polyval([mp.mpc(c) for c in reversed(s.coeffs)], z)
    return _mp_map(mp, s.outer, _mp_map(mp, s.inner, z))


def _exact_point(mp, rho, q, Q):
    return mp.mpf(rho) * mp.expj(2 * mp.pi * q / Q)


@pytest.mark.parametrize("M", [64, 2048])
@pytest.mark.parametrize(
    "spec",
    ["cusp", "affine:r=0.7,theta=1.3", "moebius:u=0.3+0.2i", "coeffs:[0,0.5,0.25]",
     "compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))"],
)
def test_samples_meet_the_evaluation_constant(mp, spec, M):
    # the samples of the plan, at rounded points, against the map at the
    # exact angles: every 128th point plus the 64 nearest z = 1, where the
    # cusp's tip makes the rounding of the angle count most
    s = parse_symbol(spec)
    _, rho, Q = SeriesParams(M).resolved()
    samples = s.evaluate(rho * np.exp(1j * (2.0 * np.pi * np.arange(Q) / Q)))
    qs = np.unique(np.r_[0:Q:Q // 128, 0:32, Q - 32:Q])
    for q in qs:
        ref = _mp_map(mp, s, _exact_point(mp, rho, int(q), Q))
        rel = abs(mp.mpc(samples[q]) - ref) / abs(ref)
        assert rel <= EVAL_ULPS * np.finfo(float).eps


def test_cusp_power_coefficients_within_the_a_priori_bound(mp):
    # a 40-digit DFT of the cusp's powers at the plan's exact angles carries
    # the same aliasing as the double one, so the two differ by roundoff,
    # flushing and evaluation alone
    params = SeriesParams(64)
    M, rho, Q = params.resolved()
    table, peaks = power_coefficient_table(CuspMap(), 8, params)
    err = params.error_bounds(peaks)
    phi = [_mp_map(mp, CuspMap(), _exact_point(mp, rho, q, Q)) for q in range(Q)]
    roots = [mp.expj(-2 * mp.pi * q / Q) for q in range(Q)]
    rows = [[roots[j * q % Q] for q in range(Q)] for j in range(M + 1)]
    g = [mp.mpc(1)] * Q
    for k in range(1, 9):
        g = [a * b for a, b in zip(g, phi)]
        for j in range(M + 1):
            ref = mp.fdot(g, rows[j]) / (Q * mp.mpf(rho) ** j)
            assert abs(mp.mpc(table[k - 1, j]) - ref) <= err[k - 1] - params.aliasing_bound
