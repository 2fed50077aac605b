import csv
import json
import math

import numpy as np
import pytest

from compopnum.cli import main
from compopnum.geometry import image_of
from compopnum.series import SeriesParams, power_coefficient_table, power_mass
from compopnum.symbols import builtin_contractions, parse_symbol
from compopnum.tails import column_tail_majorant


@pytest.mark.parametrize("spec", [
    "affine:r=0.3,theta=1", "affine:r=0.7,theta=1", "affine:r=0.95,theta=1",
    "compose(affine:r=0.9,cusp)", "compose(affine:r=0.9,theta=1,cusp)"])
def test_majorant_bounds_the_exact_column_tail(spec):
    s = parse_symbol(spec)
    image = image_of(s)
    for n in range(1, 601):
        assert column_tail_majorant(s, n) >= image.column_tail(n), n


@pytest.mark.parametrize("s", [builtin_contractions()[3], parse_symbol("coeffs:[0,0.5,0.25]")],
                         ids=lambda s: s.spec_string())
def test_majorant_bounds_the_retained_column_mass(s):
    # sum_{k=n}^{K} of each power's mass up to degree M, a lower bound of tau_n^2
    K = 200
    table, _ = power_coefficient_table(s, K, SeriesParams(2048))
    per_power = power_mass(s, table)[0].sum(axis=1) / np.arange(1, K + 1)
    partial = np.cumsum(per_power[::-1])[::-1]
    for n in range(1, K + 1):
        assert column_tail_majorant(s, n) ** 2 >= partial[n - 1], n


def test_majorant_without_a_proof_is_infinite_and_a_constant_is_zero():
    assert column_tail_majorant(parse_symbol("coeffs:[0.5]"), 3) == 0.0
    for spec in ("compose(cusp,affine:r=0.5)", "cusp", "moebius:u=0.3+0i"):
        assert column_tail_majorant(parse_symbol(spec), 3) == math.inf, spec
    # a Moebius map over an inner bound s stays below 1: (s + |u|)/(1 + s|u|)
    s = parse_symbol("compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,affine:r=0.9))")
    assert s.sup_bound == pytest.approx(0.98837, abs=1e-5)
    assert column_tail_majorant(s, 3) == pytest.approx(math.sqrt(s.sup_bound**6 / (1 - s.sup_bound**2)))
    # a complex coefficient leaves sup |phi| unknown, and sum |c_j| = 0.75 bounds it
    assert column_tail_majorant(parse_symbol("coeffs:[0,0.5,0+0.25i]"), 3) == math.sqrt(
        0.75**6 / (1 - 0.75**2))
    # a polynomial that is not univalent counts each value d times
    s = parse_symbol("coeffs:[0,0.1,0.4]")
    assert not s.is_univalent
    assert column_tail_majorant(s, 5) == math.sqrt(2) * math.sqrt(0.5**10 / (1 - 0.25))


def _an(tmp_path, s, N=512):
    out, rep = tmp_path / "spec.csv", tmp_path / "an.json"
    assert main(["an", "--symbol", s.spec_string(), "--N", str(N),
                 "--out", str(out), "--report", str(rep)]) == 0
    rows = list(csv.DictReader(open(out)))
    return json.loads(rep.read_text()), sum(row["certified"] == "true" for row in rows)


def test_an_certifies_only_under_proved_tails(tmp_path):
    # no mass beyond M is proved for a symbol without an image that is no
    # polynomial: its spectrum keeps the stability tier alone
    payload, certified = _an(tmp_path, builtin_contractions()[3])
    assert payload["row_tail"] == "inf" and certified == 0
    assert payload["stable_entries"] == 77
    # a polynomial holds its powers whole at the default degree, and its
    # sup-norm majorant bounds the column tail
    poly = parse_symbol("coeffs:[0,0.5,0.25]")
    payload, certified = _an(tmp_path, poly)
    assert certified == 43
    assert payload["hs_tail"] == column_tail_majorant(poly, 513)
    assert payload["column_tail"] == {"model": "sup-norm", "rmse": 0.0}


@pytest.mark.parametrize(("spec", "bound", "certified", "stable"), [
    # the inner map sends D into D, so the outer polynomial's bound holds
    ("compose(coeffs:[0,0.5,0.25],affine:r=0.9)", 0.75, 34, 46),
    # an outer c w: 0.9 times the inner sum |c_j|
    ("compose(affine:r=0.9,coeffs:[0,0.5,-0.25])", 0.675, 36, 49),
    # an outer c w that is not an affine map, read off its degree: its bound 1 times 0.9
    ("compose(coeffs:[0,1],affine:r=0.9)", 0.9, 182, 128),
])
def test_an_certifies_a_composition_through_its_bound(tmp_path, spec, bound, certified, stable):
    s = parse_symbol(spec)
    assert s.sup_bound == bound
    payload, n = _an(tmp_path, s, N=256)
    assert (n, payload["stable_entries"]) == (certified, stable)
    assert payload["hs_tail"] == column_tail_majorant(s, 257) < math.inf


@pytest.mark.parametrize("spec", ["coeffs:[0,0.5,-0.25]", "coeffs:[0,0.5,0+0.25i]"])
def test_an_certifies_a_polynomial_through_its_coefficient_bound(tmp_path, spec):
    # sum |c_j| bounds sup |phi| whatever the coefficients' signs: the column
    # tail is finite and the polynomial certifies as coeffs:[0,0.5,0.25] does
    s = parse_symbol(spec)
    assert s.sup_bound == 0.75
    payload, certified = _an(tmp_path, s, N=256)
    assert certified == 45
    assert payload["hs_tail"] == column_tail_majorant(s, 257) < math.inf
