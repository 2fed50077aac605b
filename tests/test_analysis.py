import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from compopnum import analysis
from compopnum.analysis import (
    beta_estimate,
    fit_decay,
    improvement_bound,
    lower_law_probe,
    s_of_r,
    sandwich_check,
    upper_law_constant,
)
from compopnum.opmatrix import VALUE_FLOOR, SingularSpectrum, assemble, singular_spectrum
from compopnum.symbols import AffineMap, builtin_contractions, parse_symbol


def spectrum_of(s, N=64):
    return singular_spectrum(assemble(s, N))


# ---------------------------------------------------------------------------
# s(r)


def test_s_of_r_examples():
    assert s_of_r(math.tanh(math.pi)) == pytest.approx(math.exp(-math.pi / 2), abs=1e-9)
    assert s_of_r(0.5) == pytest.approx(1.2543773e-4, rel=1e-6)


def test_s_of_r_monotone_to_one():
    # s increases toward 1, but only at rate exp(-pi^2 / log(1/(1-r))):
    # even 1-r = 1e-12 gives s ~ 0.7
    rs = 1.0 - np.geomspace(1e-12, 0.999, 1000)[::-1]
    vals = np.array([s_of_r(float(r)) for r in rs])
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] > 0.7


def test_s_of_r_domain():
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            s_of_r(bad)


# ---------------------------------------------------------------------------
# beta and the sandwich


@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_beta_matches_affine_rate(r):
    spec = spectrum_of(AffineMap(r), N=64)
    assert beta_estimate(spec).value == pytest.approx(r, abs=1e-6)


def test_beta_identity_is_one():
    # non-compact: no rigorous certificates, but the compressions are
    # exactly stable, so the stability tier carries the estimate
    est = beta_estimate(spectrum_of(AffineMap(1.0), N=32))
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_beta_cusp_grows_toward_one(cusp_spectra):
    _, s512 = cusp_spectra[512]
    _, s1024 = cusp_spectra[1024]
    b512 = beta_estimate(s512).value
    b1024 = beta_estimate(s1024).value
    assert 0.0 < b512 <= b1024 < 1.0


def test_sandwich_affine():
    rep = sandwich_check(AffineMap(0.5), spectrum_of(AffineMap(0.5)))
    assert rep.passed
    d = rep.details
    assert d["lower"] == pytest.approx(0.25, abs=1e-6)
    assert d["beta"] == pytest.approx(0.5, abs=1e-6)


def test_sandwich_identity():
    rep = sandwich_check(AffineMap(1.0), spectrum_of(AffineMap(1.0), N=32))
    assert rep.passed


def test_sandwich_upper_side_reads_the_bound():
    # beta <= sup |phi| needs only an upper bound: sum |c_j| = 0.75, not 1
    s = parse_symbol("coeffs:[0,0.5,-0.25]")
    rep = sandwich_check(s, spectrum_of(s, N=96))
    assert s.sup_bound == rep.details["upper"] == 0.75
    assert rep.passed and rep.details["beta"] == pytest.approx(0.6418, abs=1e-4)


def test_sandwich_all_builtin_contractions():
    for s in builtin_contractions():
        rep = sandwich_check(s, spectrum_of(s, N=96))
        assert rep.passed, rep.details


# ---------------------------------------------------------------------------
# lower-law probe


def test_probe_affine_above_threshold():
    spec = spectrum_of(AffineMap(0.95), N=128)
    rep = lower_law_probe(spec, 0.9, 0.95)
    assert rep.passed
    assert rep.details["log10_q_min_last_decade"] >= rep.details["log10_q_min_first_decade"]


def test_probe_and_beta_share_the_last_decade():
    # n_hi = 47: the last decade is [ceil(47/10), 47] = [5, 47] for both
    spec = spectrum_of(AffineMap(0.95), N=128)
    ns = spec.reliable_range()
    assert (int(ns[0]), int(ns[-1])) == (1, 47)
    rep = lower_law_probe(spec, 0.9, 0.95)
    s = s_of_r(0.9)
    last = ns[ns >= 5]
    log_q = np.log(spec.values[last - 1]) - 2.0 * last * math.log(s) + 0.5 * np.log(last)
    assert rep.details["log10_q_min_last_decade"] == pytest.approx(log_q.min() / math.log(10.0))
    assert beta_estimate(spec).decade == (5, 47)


def test_probe_cusp_trivially_passes(cusp_spectra):
    _, spec = cusp_spectra[512]
    rep = lower_law_probe(spec, 0.9, 1.0)
    assert rep.passed


def test_probe_guards_sup_norm():
    spec = spectrum_of(AffineMap(0.5))
    with pytest.raises(ValueError):
        lower_law_probe(spec, 0.6, 0.5)


# ---------------------------------------------------------------------------
# the value floor


def _straddling(radius, stability_radii):
    # 29 entries above the floor and one below it
    values = np.append(0.5 ** np.arange(1.0, 30.0), 0.5 * VALUE_FLOOR)
    return SingularSpectrum(values, radius, stability_radii)


def test_certification_floor_from_the_radius():
    assert _straddling(1e-14, None).certification_floor == VALUE_FLOOR
    assert _straddling(0.1, None).certification_floor == 0.2
    assert _straddling(math.inf, None).certification_floor == math.inf


def test_every_consumer_drops_entries_below_the_floor():
    above = np.arange(1, 30)
    for radius in (1e-14, math.inf):
        spec = _straddling(radius, np.zeros(30))
        assert np.array_equal(spec.stable, np.arange(30) < 29)
        assert np.array_equal(spec.reliable_range(), above)
    assert not _straddling(1e-14, None).certified[-1]
    spec = _straddling(math.inf, np.zeros(30))
    assert fit_decay(spec)[0].fit_range == (2, 29)
    assert fit_decay(spec.values)[0].fit_range == (2, 29)
    # nothing certified and no stability tier: the rate estimate falls back
    est = beta_estimate(_straddling(math.inf, None))
    assert est.from_uncertified
    assert est.decade == (3, 29)
    assert len(est.roots) == 29


# ---------------------------------------------------------------------------
# decay fits


def test_fit_recovers_synthetic_rootn():
    vals = np.exp(-2.0 * np.sqrt(np.arange(1.0, 101.0)))
    fits = fit_decay(vals)
    best = fits[0]
    assert best.model == "rootn"
    assert best.c == pytest.approx(2.0, abs=0.01)
    assert best.rmse < 1e-10


def test_fit_affine_geometric_wins():
    spec = spectrum_of(AffineMap(0.5), N=64)
    fits = fit_decay(spec)
    assert fits[0].model == "geometric"
    assert fits[0].c == pytest.approx(math.log(2.0), abs=1e-6)
    assert fits[0].fit_range[0] == 2


def test_fit_residuals_zero_mean():
    vals = np.exp(-1.5 * np.sqrt(np.arange(1.0, 81.0))) * (1 + 0.01 * np.sin(np.arange(80)))
    fits = fit_decay(vals)
    for f in fits:
        ns = np.arange(f.fit_range[0], f.fit_range[1] + 1)
        resid = np.log(vals[ns - 1]) - np.log(f.predict(ns))
        assert abs(resid.mean()) <= 1e-10


def test_fit_requires_enough_entries():
    with pytest.raises(ValueError):
        fit_decay(np.exp(-np.arange(1.0, 11.0)))


def test_upper_law_constant_stability():
    for r in (0.3, 0.5, 0.7):
        spec = spectrum_of(AffineMap(r), N=160)
        c1 = upper_law_constant(spec, r, 40)
        c2 = upper_law_constant(spec, r, 80)
        assert c2 <= 1.5 * c1
        # a_n <= C sqrt(n) r^n holds by construction of C; check at n=10
        assert spec.values[9] <= c2 * math.sqrt(10) * r**10 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# bound calculus


def test_improvement_bound_log_eps():
    calc, rep = improvement_bound(lambda n: 1.0 / math.log(n + 2), 10_000)
    assert rep.passed
    d = rep.details
    assert d["chain_holds_everywhere"]
    assert d["majorant_domination_slack"] <= 1e-12
    assert d["concavity_second_difference"] <= 1e-12
    assert d["generic_bound_constant"] <= 10.0
    assert d["rho_increasing"]


def test_improvement_bound_sqrt_eps():
    calc, rep = improvement_bound(lambda n: n**-0.5, 5_000)
    assert rep.passed
    # delta_n = eps_n + log n / n reproduced to 1e-12
    ns = calc.ns
    assert np.abs(calc.delta_seq - (ns**-0.5 + np.log(ns) / ns)).max() <= 1e-12
    # psi inverts phi on the hull range
    h = np.linspace(calc.hull_y[1], calc.hull_y[-1], 50)
    assert np.abs(calc.phi(calc.psi(h)) - h).max() <= 1e-10


def test_improvement_bound_blocks_give_the_one_array_report(monkeypatch):
    # row-wise minima over h do not depend on how the rows n are grouped;
    # a block past the range is the whole [n, h] array at once
    def eps(n):
        return 1.0 / math.log(n + 2)

    blocked = improvement_bound(eps, 2_000)[1]
    for rows in (7, 10**6):
        monkeypatch.setattr(analysis, "_H_BLOCK", rows)
        assert improvement_bound(eps, 2_000)[1] == blocked


def test_improvement_bound_holds_no_full_n_by_h_array():
    # the whole [n, h] array at n_max = 10000 would take 42 MB of temporaries
    tracemalloc.start()
    try:
        improvement_bound(lambda n: 1.0 / math.log(n + 2), 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_improvement_bound_rejects_nondecreasing():
    with pytest.raises(ValueError):
        improvement_bound(lambda n: 0.5, 1_000)
    with pytest.raises(ValueError):
        improvement_bound(lambda n: -1.0 / n, 100)
    with pytest.raises(ValueError, match="nonincreasing"):
        improvement_bound(lambda n: 1.0 - 1.0 / n, 100)


def test_improvement_bound_leaves_numpy_ma_unloaded():
    # np.unique would import numpy.ma (8.9 ms, 0.35 MB) in every verify 4.1 job
    src = Path(__file__).resolve().parents[1] / "src"
    run = ("import math, sys\nfrom compopnum.analysis import improvement_bound\n"
           "improvement_bound(lambda n: 1.0 / math.log(n + 2), 1_000)\n"
           "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", run], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_improvement_bound_rejects_an_empty_range():
    with pytest.raises(ValueError, match="nonempty"):
        improvement_bound(lambda n: 1.0 / math.log(n + 2), 1)


def test_upper_concave_hull_drops_a_point_below_the_chord():
    # (1, 0) lies below the chord from (0, 0) to (2, 1)
    hull = analysis._upper_concave_hull(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1.0]))
    assert hull.tolist() == [0, 2]


def test_improvement_bound_rho_increasing_on_grid():
    calc, _ = improvement_bound(lambda n: 1.0 / math.log(n + 2), 1_000)
    h = np.linspace(calc.hull_y[1], calc.hull_y[-1], 200)
    assert np.all(np.diff(calc.rho(h)) >= -1e-15)
