import math
import tracemalloc

import numpy as np
import pytest

from compopnum import geometry, opmatrix
from compopnum.opmatrix import assemble, hs_tail_bound, retained_degree, singular_spectrum
from compopnum.series import SeriesParams, Space, power_coefficient_table, power_mass
from compopnum.symbols import AffineMap, CuspMap, MoebiusMap, builtin_contractions, parse_symbol


def test_affine_assembles_diagonal():
    m = assemble(AffineMap(0.5), 8)
    diag = np.diag(m.entries)
    assert np.abs(diag - 0.5 ** np.arange(1, 9)).max() <= 1e-14
    off = m.entries - np.diag(diag)
    assert not np.any(off)  # exact zeros after flushing


def test_identity_assembles_identity():
    m = assemble(AffineMap(1.0), 4)
    assert np.abs(m.entries - np.eye(4)).max() <= 1e-14
    spec = singular_spectrum(m)
    assert np.abs(spec.values - 1.0).max() <= 1e-14


def test_affine_hs_tail_closed_form():
    m = assemble(AffineMap(0.5), 8)
    exact = 0.25**4.5 / math.sqrt(0.75)
    assert m.hs_tail == pytest.approx(exact, rel=1e-14)
    # phi^k = (z/2)^k has no mass beyond its retained degree, so the row
    # tail is 0, not the roundoff of exact^2 - sum j |c_j|^2
    assert m.row_tail == 0.0


def test_rotated_affine_diagonal_modulus():
    m = assemble(AffineMap(0.5, theta=1.1), 8)
    spec = singular_spectrum(m)
    assert np.abs(spec.values - 0.5 ** np.arange(1, 9)).max() <= 1e-14


def test_spectrum_diagonal_values():
    spec = singular_spectrum(assemble(AffineMap(0.5), 8))
    assert spec.values[2] == pytest.approx(0.125, rel=1e-12)


def test_diagonal_relative_accuracy_deep():
    for r in (0.3, 0.5, 0.7):
        spec = singular_spectrum(assemble(AffineMap(r), 64))
        exact = r ** np.arange(1, 31)
        rel = np.abs(spec.values[:30] - exact) / exact
        assert rel.max() <= 1e-10


def test_hs_tail_bound_closed_form_and_ordering():
    assert hs_tail_bound(AffineMap(0.5), 3) == pytest.approx(
        0.5**3 / math.sqrt(1 - 0.25), rel=1e-6
    )
    # upper-bound chain: computed a_n below the tail bound plus the radius
    spec = singular_spectrum(assemble(AffineMap(0.5), 32))
    for n in (1, 4, 8, 16):
        bound = hs_tail_bound(AffineMap(0.5), n)
        assert spec.values[n - 1] <= bound + spec.radius


def test_hs_tail_bound_identity_divergent():
    assert hs_tail_bound(AffineMap(1.0), 3) == math.inf


def test_automorphism_column_tails_infinite():
    # the disk automorphisms fill the disk: ||phi^k||^2 / k = 1 for every k
    assert hs_tail_bound(MoebiusMap(0.3), 3) == math.inf
    assert hs_tail_bound(parse_symbol("compose(moebius:u=0+0i,moebius:u=0.5+0.5i)"), 7) == math.inf
    # rotations: |e^{i theta}|^2 comes out 2 ulps below 1 at theta = 0.77
    assert hs_tail_bound(AffineMap(1.0, theta=1.0), 3) == math.inf
    assert hs_tail_bound(AffineMap(1.0, theta=0.77), 3) == math.inf
    rotated = "compose(affine:r=1.0,theta=0.77,moebius:u=0.3+0i)"
    assert hs_tail_bound(parse_symbol(rotated), 3) == math.inf
    m = assemble(MoebiusMap(0.3), 16, Space.DIRICHLET)
    assert m.hs_tail == math.inf
    assert m.column_tail_route == "closed-form:disk"


@pytest.mark.parametrize("r", [0.3, 0.5, 0.9])
def test_disk_column_tail_closed_form(r):
    # tau_n^2 = sum_{k >= n} r^(2k) = r^(2n) / (1 - r^2)
    for n in (1, 2, 5, 17, 30):
        assert hs_tail_bound(AffineMap(r), n) ** 2 == pytest.approx(
            r ** (2 * n) / (1 - r * r), rel=1e-14, abs=0.0
        )


# hs_tail_bound(cusp, N + 1) by the fitted route: norms summed to 4(N + 1)
# plus the tails.py remainder, which over-estimates by 2.3e-4, 6.0e-5, 1.5e-5
_FITTED_CUSP_TAILS = {64: 0.03976818371423576, 256: 0.01993785710775405, 1024: 0.009975747046290357}


@pytest.mark.parametrize(
    ("N", "closed"), [(64, 0.0397591), (256, 0.0199367), (1024, 0.0099756)]
)
def test_cusp_column_tail_below_fitted_tail(N, closed):
    tau = hs_tail_bound(CuspMap(), N + 1)
    assert tau == pytest.approx(closed, abs=5e-8)  # to the quoted digits
    fitted = _FITTED_CUSP_TAILS[N]
    assert tau <= fitted <= tau * (1.0 + 2.5e-4)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 4.0, -1.2])
@pytest.mark.parametrize("inner", ["", ",cusp"])
def test_column_tail_rotation_invariant_and_decreasing(theta, inner):
    def spec(t):
        affine = f"affine:r=0.9,theta={t!r}"
        return f"compose({affine}{inner})" if inner else affine

    taus = [hs_tail_bound(parse_symbol(spec(theta)), n) for n in range(1, 41)]
    plain = [hs_tail_bound(parse_symbol(spec(0.0)), n) for n in range(1, 41)]
    assert taus == plain
    assert np.all(np.diff(taus) < 0.0)


def test_the_contraction_certificate_does_not_depend_on_theta():
    # phi^k = r^k e^{ik theta} z^k holds all its mass below the retained
    # degree, so no roundoff of a row's norm sets the certificate; nor does
    # the spelling, as every one states degree 1
    counts = set()
    spellings = [AffineMap(0.7, theta) for theta in (0.0, 0.7, 1.234567, 1.495176, 2.3, 4.1, math.pi)]
    spellings += [parse_symbol(spec) for spec in (
        "compose(moebius:u=0+0i,affine:r=0.7)", "compose(affine:r=0.7,moebius:u=0+0i)",
        "compose(affine:r=0.7,affine:r=1,theta=1)")]
    for s in spellings:
        m = assemble(s, 512)
        assert m.row_tail == 0.0, s.spec_string()
        spec = singular_spectrum(m)
        counts.add(int(spec.certified.sum()))
        n = np.arange(1, spec.certified.sum() + 1)
        assert spec.values[: n.size] == pytest.approx(0.7**n, rel=1e-14, abs=0.0)
    assert counts == {54}


@pytest.mark.parametrize(
    "s",
    [builtin_contractions()[3], CuspMap(), AffineMap(0.7)] + [parse_symbol(spec) for spec in (
        "coeffs:[0,0.5,0.25]",
        "compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,affine:r=0.9,theta=1))",
        # the cusp behind the involution pair: infinite on both sides
        "compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))")],
    ids=lambda s: s.spec_string(),
)
def test_assemble_and_hs_tail_bound_share_one_column_tail(s):
    # tau_{N+1} has one plan, `hs_tail_bound`'s, whatever N is
    for N in (4, 8, 16, 64):
        assert assemble(s, N).hs_tail == hs_tail_bound(s, N + 1), N


def test_an_inner_rotation_keeps_the_cusp_spectrum():
    # C_{phi o R} = C_R C_phi with C_R unitary: the same values and the same radius
    cusp = singular_spectrum(assemble(CuspMap(), 256))
    rotated = singular_spectrum(assemble(parse_symbol("compose(cusp,affine:r=1,theta=1)"), 256))
    assert rotated.values[:20] == pytest.approx(cusp.values[:20], rel=1e-12, abs=0.0)
    assert rotated.radius == pytest.approx(cusp.radius, rel=1e-12, abs=0.0)
    assert rotated.certified.sum() == cusp.certified.sum() == 2


def test_known_bases_fit_nothing(monkeypatch):
    # a known image base gives both tails from the image integral
    def no_majorant(s, n):
        raise AssertionError("sup-norm majorant on a known image base")

    monkeypatch.setattr("compopnum.tails.column_tail_majorant", no_majorant)
    for s in (AffineMap(0.7, theta=1.0), CuspMap(), parse_symbol("compose(affine:r=0.9,cusp)")):
        m = assemble(s, 32)
        assert math.isfinite(m.hs_tail) and math.isfinite(m.row_tail)
        assert m.column_tail_route.startswith("closed-form:")


def test_hs_tail_nonincreasing_in_truncation():
    tails = [assemble(AffineMap(0.6), N).hs_tail for N in (8, 12, 16)]
    assert tails[0] > tails[1] > tails[2]


def test_cusp_hs_tail_vs_svd_estimate():
    m = assemble(CuspMap(), 64)
    spec = singular_spectrum(m)
    bound = hs_tail_bound(CuspMap(), 16)
    assert math.isfinite(bound)
    assert bound >= spec.values[15]


def test_divergent_row_tails_count_as_infinite():
    # the Moebius involution applied twice is the cusp, with the cusp's
    # singular values, but the image normal form does not see through it:
    # without an image no mass beyond degree M is proved, so nothing may be
    # certified
    twice = "compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))"
    m = assemble(parse_symbol(twice), 64)
    assert m.row_tail == math.inf
    spec = singular_spectrum(m)
    assert not spec.certified.any()
    cusp = singular_spectrum(assemble(CuspMap(), 64))
    assert spec.values[:4] == pytest.approx(cusp.values[:4], rel=1e-9)


def test_unknown_base_column_tail_keeps_the_mass_beyond_M():
    # the same symbol's column tail: its sup norm is unknown, so no majorant
    # is proved, where the retained mass alone gave 7.6e-8 against the
    # cusp's closed form 0.0398
    twice = "compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))"
    m = assemble(parse_symbol(twice), 64)
    assert m.hs_tail == math.inf
    assert m.column_tail_route == "divergent"


@pytest.mark.parametrize("theta", [0.0, 1.0])
@pytest.mark.parametrize("r", [0.7, 0.9])
def test_affine_behind_the_involution_pair_matches_closed_form(r, theta):
    # a symbol whose image base is hidden: its powers are monomials, so its
    # stable values are the disk's r^n, but its sup norm is unknown, so
    # neither tail is proved and nothing is certified
    hidden = f"compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,affine:r={r},theta={theta}))"
    m = assemble(parse_symbol(hidden), 64)
    assert m.column_tail_route == "divergent" and m.row_tail == math.inf
    spec = singular_spectrum(m)
    assert not spec.certified.any()
    n = np.nonzero(spec.stable)[0] + 1
    assert n.size == 32
    assert spec.values[n - 1] == pytest.approx(r**n, rel=1e-14, abs=0.0)


def test_full_dirichlet_assembly_error_counts_the_constant_row():
    # entry (j, k) carries sqrt(j/k) err_k and the constant row err_k/sqrt(k):
    # Frobenius sum_k err_k^2 (1 + N(N+1)/2) / k
    s = parse_symbol("compose(affine:r=0.7,moebius:u=0.3+0i)")
    N = 32
    m = assemble(s, N, Space.DIRICHLET)
    params = SeriesParams(M=retained_degree(s, N))
    _, peaks = power_coefficient_table(s, N, params)
    errs = params.error_bounds(peaks)
    k = np.arange(1, N + 1)
    expected = math.sqrt(float((errs**2 * (1 + N * (N + 1) / 2) / k).sum()))
    assert m.assembly_error == pytest.approx(expected, rel=1e-14, abs=0.0)
    star = assemble(AffineMap(0.5), N)
    params = SeriesParams(M=retained_degree(AffineMap(0.5), N))
    _, peaks = power_coefficient_table(AffineMap(0.5), N, params)
    errs = params.error_bounds(peaks)
    expected = math.sqrt(float((errs**2 * (N * (N + 1) / 2) / k).sum()))
    assert star.assembly_error == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_the_default_degree_is_n_but_for_a_polynomial():
    # the cusp behind an inner contraction has no Image, and no mass beyond
    # N is proved for it: it keeps N, as the cusp does
    for s in (CuspMap(), parse_symbol("compose(cusp,affine:r=0.5)"), builtin_contractions()[3]):
        assert retained_degree(s, 64) == 64
        assert assemble(s, 64).params.resolved()[0] == 64
    # a polynomial of degree d keeps its first N powers whole at N d
    poly = parse_symbol("coeffs:[0,0.5,0.25]")
    assert retained_degree(poly, 64) == 128
    assert retained_degree(parse_symbol("compose(coeffs:[0,0.5,0.25],coeffs:[0,0,1])"), 64) == 256
    m = assemble(poly, 64)
    assert m.params.resolved()[0] == 128 and math.isfinite(m.row_tail)


@pytest.mark.parametrize("spec", [
    "cusp", "compose(affine:r=0.9,theta=1,cusp)", "compose(cusp,moebius:u=0.3+0.1i)",
    "affine:r=0.7,theta=1.3", "moebius:u=0.3+0i"])
def test_a_known_base_retained_to_n_keeps_the_2n_results(spec):
    # rows N+1..2N of a known base feed only the row tail, where they cancel
    # against the exact norm; the values move by the SVD's roundoff, which is
    # absolute (Weyl: |delta sigma_n| <= ||delta A||), so it is taken of a_1
    s = parse_symbol(spec)
    space = Space.DIRICHLET_STAR if s.fixes_origin else Space.DIRICHLET
    for N in (16, 64, 256):
        new = assemble(s, N, space)
        old = assemble(s, N, space, SeriesParams(M=2 * N))
        assert new.params.resolved()[0] == N
        assert new.hs_tail == old.hs_tail
        assert new.row_tail == pytest.approx(old.row_tail, rel=1e-12, abs=0.0)
        a, b = singular_spectrum(new), singular_spectrum(old)
        assert np.abs(a.values - b.values).max() <= 1e-12 * b.values[0]
        np.testing.assert_array_equal(a.certified, b.certified)


def test_cusp_assembly_holds_the_table_and_the_matrix_only():
    # the table (K_a x (N+1) doubles at the default degree) and the N x K_a
    # matrix, K_a = 295 of 1024 powers; the mass array is dropped before the
    # matrix is built
    N = 1024
    tracemalloc.start()
    try:
        assemble(CuspMap(), N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * N * N * 8


def test_full_space_assembly_builds_the_matrix_in_place():
    # the constant direction's (N+1) x (N+1) matrix gets its power block
    # written in place: the complex table and the matrix, 2 N^2 complex
    # numbers, with no N x N block beside them
    N = 1024
    s = parse_symbol("compose(cusp,moebius:u=0.3+0.2i)")
    assert retained_degree(s, N) == N
    tracemalloc.start()
    try:
        m = assemble(s, N, Space.DIRICHLET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.entries.dtype == complex
    assert peak < 4.5 * N * N * 8


def _full_width(s, m):
    """(m's square matrix with every power extracted, the powers' peaks),
    from a full-width table on m's plan: sqrt(j/k) c_j(phi^k), and
    c_0(phi^k)/sqrt(k) in the constant row when m has one."""
    N = m.N
    c = m.entries.shape[0] - N
    table, peaks = power_coefficient_table(s, N, m.params)
    k = np.arange(1, N + 1, dtype=float)
    A = np.zeros((N + c, N + c), dtype=table.dtype)
    A[c:, c:] = np.sqrt(k[:, None] / k[None, :]) * table[:, 1 : N + 1].T
    if c:
        A[0, 0] = 1.0
        A[0, 1:] = table[:, 0] / np.sqrt(k)
    return A, peaks


def _uncut(s, m):
    """The spectrum from full SVDs of the full-width matrix and its half."""
    A, _ = _full_width(s, m)
    values = np.linalg.svd(A, compute_uv=False)
    h = m.N // 2
    half = np.linalg.svd(A[:-h, :-h], compute_uv=False)
    stab = np.full(len(values), np.inf)
    stab[: len(half)] = np.abs(values[: len(half)] - half)
    return opmatrix.SingularSpectrum(values, m.truncation_norm_bound, stab)


@pytest.mark.parametrize("N", [512, 1024])
def test_the_svd_skips_the_cusps_negligible_columns(cusp_spectra, N):
    m, spec = cusp_spectra[N]
    ref = _uncut(CuspMap(), m)
    # the columns never extracted carry at most VALUE_FLOOR * eps, in the radius
    K = m.entries.shape[1]
    assert K < N // 2
    assert 0.0 < m.unextracted <= opmatrix._COLUMN_CUT
    assert spec.radius == m.truncation_norm_bound
    assert not spec.values[K:].any()
    # Weyl: values above the floor move by eps relative, plus SVD roundoff
    ok = ref.values >= opmatrix.VALUE_FLOOR
    assert spec.values[ok] == pytest.approx(ref.values[ok], rel=1e-9, abs=0.0)
    np.testing.assert_array_equal(spec.stable, ref.stable)
    np.testing.assert_array_equal(spec.certified, ref.certified)
    np.testing.assert_array_equal(spec.reliable_range(), ref.reliable_range())


def test_a_matrix_without_a_negligible_tail_keeps_every_column():
    # the Moebius automorphism's powers keep their norms: nothing is cut,
    # and the values are the full SVD's
    m = assemble(MoebiusMap(0.3), 64, Space.DIRICHLET)
    spec = singular_spectrum(m)
    assert m.entries.shape[1] == 65
    assert m.unextracted == 0.0
    assert spec.radius == m.truncation_norm_bound
    np.testing.assert_array_equal(spec.values, np.linalg.svd(m.entries, compute_uv=False))


def test_a_complex_table_takes_the_same_cut():
    # the inner rotation multiplies row j by e^{ij}: column norms, hence the
    # cut, are the cusp's
    N = 256
    cusp = assemble(CuspMap(), N)
    s = parse_symbol("compose(cusp,affine:r=1,theta=1)")
    m = assemble(s, N)
    assert m.entries.dtype == complex
    spec = singular_spectrum(m)
    assert m.entries.shape[1] == cusp.entries.shape[1] < N
    assert m.unextracted == pytest.approx(cusp.unextracted, rel=1e-12)
    assert spec.radius == m.truncation_norm_bound
    ref = _uncut(s, m)
    ok = ref.values >= opmatrix.VALUE_FLOOR
    assert spec.values[ok] == pytest.approx(ref.values[ok], rel=1e-9, abs=0.0)
    np.testing.assert_array_equal(spec.stable, ref.stable)


CUT_SYMBOLS = ("cusp", "affine:r=0.7", "compose(cusp,moebius:u=0.3+0.2i)",
               "compose(cusp,affine:r=0.5)", "coeffs:[0,0.5,0.25]",
               builtin_contractions()[3].spec_string())


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("spec", CUT_SYMBOLS)
def test_column_bounds_hold_every_computed_column(spec, N):
    # b_k bounds the true column; the computed one is off by at most the
    # column's share of the assembly error, sqrt(j/k) err_k over its rows
    s = parse_symbol(spec)
    space = Space.DIRICHLET_STAR if s.fixes_origin else Space.DIRICHLET
    m = assemble(s, N, space)
    c = m.entries.shape[0] - N
    A, peaks = _full_width(s, m)
    sq = np.sum(np.abs(A) ** 2, axis=0)
    norms = np.sqrt(sq[c:])
    k = np.arange(1, N + 1)
    allowance = m.params.error_bounds(peaks) * np.sqrt((N * (N + 1) / 2 + c) / k)
    b = np.sqrt(opmatrix._column_bounds(s, N, c, m.params.resolved()[2]))
    assert np.all(norms <= b + allowance)
    # the extracted columns are the full-width matrix's, bit for bit, and
    # the same cut on the computed columns never reaches past them
    K_a = m.extracted
    assert K_a < N
    np.testing.assert_array_equal(m.entries, A[:, : K_a + c])
    spectrum = singular_spectrum(m)
    assert opmatrix._negligible(sq)[0] <= K_a + c
    assert 0.0 < m.unextracted <= opmatrix._COLUMN_CUT
    # one value per row, those past the extracted columns 0.0
    assert spectrum.values.shape == spectrum.stability_radii.shape == (N + c,)
    assert not spectrum.values[K_a + c :].any()


def test_an_unextracted_polynomial_power_has_no_row_mass():
    # z -> 0.7 e^{i theta} z: the powers past K_a are held whole by the
    # degree, so the row tail stays 0 rather than their whole norm (3e-36 at
    # N = 512)
    for spec in ("affine:r=0.7", "affine:r=0.7,theta=1.3"):
        m = assemble(parse_symbol(spec), 512)
        assert m.extracted < 512
        assert m.row_tail == 0.0


@pytest.mark.parametrize(
    "spec, N, space",
    [("cusp", N, Space.DIRICHLET_STAR) for N in (64, 256, 1024)]
    + [("compose(affine:r=0.9,theta=1,cusp)", 512, Space.DIRICHLET_STAR),
       ("compose(cusp,moebius:u=0.3+0.1i)", 512, Space.DIRICHLET)],
)
def test_unextracted_powers_charge_their_whole_norm(spec, N, space):
    # the closed form tau_{K_a+1}^2 - tau_{N+1}^2 is the sum of the powers'
    # exact norms^2 / k past K_a, the extracted ones charging their mass
    # beyond the retained rows
    s = parse_symbol(spec)
    m = assemble(s, N, space)
    K = m.extracted
    table, _ = power_coefficient_table(s, K, m.params)
    mass, beyond = power_mass(s, table)
    k = np.arange(1, N + 1)
    norms = geometry.image_of(s).power_norms(N)
    rows = np.append(mass[:, N + 1 :].sum(axis=1) + beyond, norms[K:] ** 2)
    assert m.row_tail == pytest.approx(math.sqrt(np.sum(rows / k)), rel=1e-14, abs=0.0)
    # the cusp at N = 64 extracts every power, the other cases charge some
    assert (K < N) == (N > 64)


@pytest.mark.parametrize("spec", [
    "cusp", "affine:r=0.7,theta=1.3", "compose(cusp,moebius:u=0.3+0.2i)",
    "compose(cusp,affine:r=0.5)", "coeffs:[0,0.5,0.25]",
    builtin_contractions()[3].spec_string(), "compose(moebius:u=0.3+0i,cusp)",
])
def test_the_row_tail_covers_every_power_of_the_truncation(spec):
    # the exact row tail of all N powers, from a full-width table on m's
    # plan; the unextracted powers' charge is their whole norm, so it is at
    # least theirs (to roundoff where the closed form is the exact sum).
    # The default M = 2N holds the powers of coeffs:[0,0.5,0.25] whole, but
    # those past N/2 reach rows beyond N: the charge is needed at degree 2
    s = parse_symbol(spec)
    N = 512
    m = assemble(s, N, Space.DIRICHLET_STAR if s.fixes_origin else Space.DIRICHLET)
    table, _ = power_coefficient_table(s, N, m.params)
    mass, beyond = power_mass(s, table)
    k = np.arange(1, N + 1)
    exact = math.sqrt(float(np.sum((mass[:, N + 1 :].sum(axis=1) + beyond) / k)))
    assert m.row_tail >= exact * (1.0 - 1e-12)


def test_a_disk_automorphism_extracts_every_power():
    # S(r) >= r puts every column bound at (N+1)/k >= 1, so nothing is cut
    # and the row tail never asks for the infinite tau of a modulus-1 disk
    m = assemble(MoebiusMap(0.3), 128, Space.DIRICHLET)
    assert m.extracted == 128 and m.unextracted == 0.0
    assert math.isfinite(m.row_tail) and m.hs_tail == math.inf


def test_bad_sizes_are_refused():
    with pytest.raises(ValueError, match="index"):
        hs_tail_bound(CuspMap(), 0)
    with pytest.raises(ValueError, match="N >= 1"):
        assemble(CuspMap(), 0)
    with pytest.raises(ValueError, match="retained degree must reach the truncation size"):
        assemble(CuspMap(), 32, series_params=SeriesParams(16))


def test_negated_cusp_tails_equal_cusp_tails():
    # moebius:u=0 is z -> -z: -cusp's image is the cusp region turned by pi,
    # with the cusp's power norms, so its exact tails are the cusp's
    neg = assemble(parse_symbol("compose(moebius:u=0+0i,cusp)"), 64)
    cusp = assemble(CuspMap(), 64)
    assert neg.hs_tail == cusp.hs_tail
    assert neg.row_tail == cusp.row_tail


def test_full_dirichlet_column_tail_counts_the_constant_row():
    # discarded column k carries |phi(0)|^(2k)/k in the constant row on top
    # of the seminorm part |f|^(2k)/k summed by the disk's closed form
    m = assemble(parse_symbol("compose(affine:r=0.95,moebius:u=0.9+0i)"), 16, Space.DIRICHLET)
    seminorm = 0.9025**17 / (1.0 - 0.9025)
    x = 0.855**2
    const = sum(x**k / k for k in range(17, 2000))
    assert m.hs_tail**2 >= seminorm + const
    assert m.hs_tail**2 <= seminorm + x**17 / (17 * (1.0 - x)) + 1e-12


def test_star_basis_requires_fixed_origin():
    with pytest.raises(ValueError):
        assemble(MoebiusMap(0.3), 8, Space.DIRICHLET_STAR)


def test_moebius_full_dirichlet_space():
    m = assemble(MoebiusMap(0.3), 16, Space.DIRICHLET)
    assert m.entries.shape == (17, 17)
    assert m.entries[0, 0] == 1.0
    spec = singular_spectrum(m)
    # composition with an automorphism preserves Dirichlet energy: top
    # singular values cluster at/above 1
    assert spec.values[0] >= 1.0 - 1e-9


def test_monotone_certification_under_refinement():
    # growing the truncation never lowers certified values beyond the radius
    params = SeriesParams(M=128)
    s = builtin_contractions()[3]  # origin-fixed Moebius-composed contraction
    spec32 = singular_spectrum(assemble(s, 32, series_params=params))
    spec64 = singular_spectrum(assemble(s, 64, series_params=params))
    assert np.all(spec64.values[:32] >= spec32.values - spec32.radius - 1e-12)
    # and compressions only grow with N
    assert np.all(spec64.values[:32] + 1e-12 >= spec32.values)


def test_stability_radii_detect_cusp_truncation_bias(cusp_spectra):
    _, spec = cusp_spectra[1024]
    assert spec.stability_radii is not None
    stable_count = int(spec.stable.sum())
    assert 5 <= stable_count <= 60
    # deep entries must not be marked stable: their truncation bias is large
    assert not spec.stable[100:].any()


def test_cusp_values_decrease_and_certified_lower_bounds(cusp_spectra):
    m512, spec512 = cusp_spectra[512]
    m1024, spec1024 = cusp_spectra[1024]
    assert np.all(np.diff(spec1024.values) <= 1e-16)
    # compressions increase with N entrywise
    assert np.all(spec1024.values[:512] >= spec512.values - 1e-12)
    # a_n drops below 1e-6 well before the truncation size
    assert (spec512.values < 1e-6).argmax() + 1 < 512


def test_aliasing_flag_refuses_certification(monkeypatch):
    # the aliasing bound is rho^Q/(1 - rho^Q), about 78 here
    params = SeriesParams(M=16, rho=0.9999, Q=128)
    assert params.aliasing_bound == pytest.approx(0.9999**128 / (1 - 0.9999**128))
    assert params.aliasing_suspect

    def no_extraction(*a, **kw):
        raise AssertionError("extracted powers on a plan that cannot be certified")

    # the plan alone decides: assemble refuses before extracting any power
    monkeypatch.setattr(opmatrix, "power_coefficient_table", no_extraction)
    with pytest.raises(ArithmeticError):
        assemble(CuspMap(), 16, series_params=params)


def test_default_plans_are_not_flagged():
    for M in range(4097):
        assert not SeriesParams(M).aliasing_suspect, M
