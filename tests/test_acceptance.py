"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 8 (the root-n decay law read off the truncated-matrix spectrum at
N = 1024) is implemented faithfully and is expected to fail at desk scale:
the monomial compression's deep singular values are truncation-limited and
decay near-geometrically regardless of the operator (see the project notes
for the full analysis and the region-Gram cross-evidence).  The test fails
honestly with the diagnostics rather than being weakened.
"""

import math
import time

import numpy as np

from compopnum import analysis, geometry
from compopnum.cli import main as cli_main
from compopnum.opmatrix import assemble, hs_tail_bound, singular_spectrum
from compopnum.symbols import (
    CUSP_DIAMETER,
    AffineMap,
    CuspMap,
    builtin_contractions,
    cusp_halfdisk_map,
)


def _line(number, ok, detail=""):
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_diagonal_exactness():
    t0 = time.time()
    worst = 0.0
    for r in (0.3, 0.5, 0.7):
        spec = singular_spectrum(assemble(AffineMap(r), 64))
        exact = r ** np.arange(1, 31)
        rel = np.abs(spec.values[:30] - exact) / exact
        worst = max(worst, float(rel.max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _line(1, ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_hs_upper_bound():
    ok = True
    details = []
    for r in (0.3, 0.5, 0.7):
        spec = singular_spectrum(assemble(AffineMap(r), 64))
        ns = np.arange(1, 31)
        closed = r**ns / math.sqrt(1 - r * r)
        ok &= bool(np.all(spec.values[:30] <= closed + spec.radius))
        for n in (1, 5, 15, 30):
            got = hs_tail_bound(AffineMap(r), int(n))
            want = r**n / math.sqrt(1 - r * r)
            ok &= abs(got - want) <= 0.05 * want
        details.append(f"r={r} ok")
    _line(2, ok, "; ".join(details))
    assert ok


def test_criterion_03_upper_law_constant_stability():
    ok = True
    details = []
    for r in (0.3, 0.5, 0.7):
        spec = singular_spectrum(assemble(AffineMap(r), 160))
        c_short = analysis.upper_law_constant(spec, r, 40)
        c_long = analysis.upper_law_constant(spec, r, 80)
        ns = np.arange(5, 41)
        holds = np.all(
            spec.values[ns - 1] <= c_short * np.sqrt(ns) * np.exp(ns * math.log(r)) * (1 + 1e-12)
        )
        stable = c_long <= 1.5 * c_short
        ok &= bool(holds and stable)
        details.append(f"r={r}: C={c_short:.4f}->{c_long:.4f}")
    _line(3, ok, "; ".join(details))
    assert ok


def test_criterion_04_sandwich_five_symbols():
    symbols = builtin_contractions()
    assert len(symbols) >= 5
    results = []
    for s in symbols:
        spec = singular_spectrum(assemble(s, 96))
        rep = analysis.sandwich_check(s, spec)
        results.append((s.spec_string(), rep.passed))
    ok = all(p for _, p in results)
    _line(4, ok, "; ".join(f"{name.split(':')[0]}:{'ok' if p else 'X'}" for name, p in results))
    assert ok, results


def test_criterion_05_cusp_constants():
    chi0 = abs(complex(cusp_halfdisk_map(0.0)) - (math.sqrt(2.0) - 1.0))
    chi_origin = abs(complex(CuspMap().evaluate(0.0)))
    a = CUSP_DIAMETER
    ok = chi0 <= 1e-12 and chi_origin <= 1e-12 and 1.0 < a < 2.0 and abs(a - 1.56109985) < 1e-8
    _line(5, ok, f"|chi(0)|={chi_origin:.1e}, |chi0(0)-(sqrt2-1)|={chi0:.1e}, a={a:.8f}")
    assert ok


def test_criterion_06_cusp_area_law_monte_carlo():
    t0 = time.time()
    ratios, stds = [], []
    for l in range(3, 9):
        h = 2.0**-l
        meas = geometry.annulus_area(
            CuspMap(), h, method="monte-carlo", samples=10**7, seed=100 + l
        )
        ratios.append(meas.value / h**3)
        stds.append(meas.std_error / meas.value)
    elapsed = time.time() - t0
    med = float(np.median(ratios))
    ok = (
        max(ratios) <= 2 * med
        and min(ratios) >= med / 2
        and max(stds) < 0.05
        and elapsed < 60.0
    )
    _line(6, ok, f"ratios within [{min(ratios)/med:.2f},{max(ratios)/med:.2f}] of median, "
                 f"max rel std {max(stds):.1%}, {elapsed:.0f}s")
    assert ok


def test_criterion_07_cusp_power_norm_decay():
    ns = np.arange(10, 1001)
    norms = geometry.image_of(CuspMap()).power_norms(1000)
    norms = norms[9:]
    scaled = norms * np.sqrt(ns) / np.log(ns) ** 1.5
    running = np.maximum.accumulate(scaled)
    ratio = float(running[-1] / running[0])
    ok = ratio < 3.0
    _line(7, ok, f"running-max ratio {ratio:.3f} over n in [10, 1000]")
    assert ok


def test_criterion_08_headline_rootn_law(cusp_spectra):
    """Faithful implementation of the stated experiment; expected to fail.

    The truncated-matrix spectrum of the cusp operator is compression-
    limited: its reliable range decays near-geometrically at every feasible
    truncation (the true n-th value needs truncation ~ e^(c sqrt n)), so the
    Geometric model wins the rmse comparison.  The failure is asserted with
    full diagnostics; the project notes carry the analysis, and the
    region-Gram cross-check below documents the root-n preference on the
    only independently-converged range.
    """
    results = {}
    for N in (512, 1024):
        _, spec = cusp_spectra[N]
        try:
            # the cusp's reliable range is structurally short (~13 stable
            # entries); the fit-length guard is lowered so the experiment
            # produces its diagnostic instead of refusing to run
            fits = analysis.fit_decay(spec, min_entries=8)
            results[N] = {f.model: f for f in fits}
            results[N]["best"] = fits[0].model
            results[N]["range"] = fits[0].fit_range
        except ValueError as exc:
            results[N] = {"error": str(exc)}
    ok = False
    detail = ""
    if all("error" not in results[N] for N in (512, 1024)):
        best_is_rootn = results[1024]["best"] == "rootn"
        c512 = results[512]["rootn"].c
        c1024 = results[1024]["rootn"].c
        stable = abs(c1024 - c512) <= 0.2 * abs(c512)
        ok = best_is_rootn and stable
        detail = (
            f"best@1024={results[1024]['best']} on n={results[1024]['range']}, "
            f"rmse rootn={results[1024]['rootn'].rmse:.3f} vs "
            f"geometric={results[1024]['geometric'].rmse:.3f}, "
            f"c: {c512:.2f}->{c1024:.2f}"
        )
    else:
        detail = f"fit unavailable: {results}"
    _line(8, ok, detail)
    assert ok, (
        "Root-n law not exhibited by the truncated-matrix spectrum at desk scale: "
        + detail
        + " — expected; see notes (compression envelope) and the region-Gram cross-check."
    )


def test_region_gram_rootn_preference_cross_check():
    """Positive counterpart to criterion 8 on the independently-converged
    range: the region-Gram values (no Taylor step) prefer the root-n model
    on n = 2..10, with the rate stable across truncation sizes."""
    cs, wins = {}, {}
    for N in (512, 1024):
        vals = geometry.region_gram_singular_values(N)
        ns = np.arange(2, 11)
        fits = sorted(
            (analysis._fit_one(m, ns.astype(float), vals[ns - 1]) for m in analysis.MODEL_PREDICTORS),
            key=lambda f: f.rmse,
        )
        wins[N] = fits[0].model
        cs[N] = next(f.c for f in fits if f.model == "rootn")
    ok = wins[1024] == "rootn" and abs(cs[1024] - cs[512]) <= 0.2 * abs(cs[512])
    print(f"CROSS-CHECK gram: best@1024={wins[1024]}, c {cs[512]:.3f}->{cs[1024]:.3f}")
    assert ok, (wins, cs)


def test_criterion_09_window_bound_ordering(cusp_spectra):
    _, spec = cusp_spectra[1024]
    all_ns = np.arange(1, 1025)
    ns = all_ns[(all_ns >= 20) & (all_ns <= 200) & (spec.values >= 1e-12)]
    bounds, _ = geometry.zinc_upper_bound(CuspMap(), ns)
    ratios = {int(n): spec.values[n - 1] / bound for n, bound in zip(ns, bounds)}
    split = ns[len(ns) // 2]
    c_first = max(v for k, v in ratios.items() if k <= split)
    c_full = max(ratios.values())
    ok = c_full <= 1.5 * c_first and len(ns) >= 5
    _line(9, ok, f"C over n<= {split}: {c_first:.2e}; doubled range: {c_full:.2e}")
    assert ok


def test_criterion_10_blaschke_certificate_decreasing(blaschke_certificates):
    logs = np.log(blaschke_certificates)
    slopes = np.diff(logs) / 2.0
    ok = bool(np.all(np.diff(logs) < 0))
    _line(10, ok, "log cert: " + ", ".join(f"{v:.2f}" for v in logs) + f"; slopes {slopes.round(2)}")
    assert ok


def test_criterion_11_bound_calculus():
    t0 = time.time()
    _, rep = analysis.improvement_bound(lambda n: 1.0 / math.log(n + 2), 10_000)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 1.0
    d = rep.details
    _line(11, ok, f"chain slack {d['chain_max_log_slack']:.1e}, "
                  f"concavity {d['concavity_second_difference']:.1e}, "
                  f"C={d['generic_bound_constant']:.2f}, {elapsed:.2f}s")
    assert ok


def test_criterion_12_determinism(tmp_path):
    blobs = []
    for _ in range(2):
        out = tmp_path / "spec.csv"
        code = cli_main(
            ["an", "--symbol", "cusp", "--N", "64", "--seed", "7",
             "--out", str(out), "--report", str(tmp_path / "rep.json")]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1]
    _line(12, ok, f"{len(blobs[0])} bytes, bit-identical={ok}")
    assert ok
