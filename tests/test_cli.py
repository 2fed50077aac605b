import csv
import json
import math
from pathlib import Path

import pytest

from compopnum import analysis, cli, geometry
from compopnum.analysis import fit_decay
from compopnum.cli import main
from compopnum.opmatrix import assemble, singular_spectrum
from compopnum.series import SeriesParams, power_coefficient_table
from compopnum.symbols import AffineMap, CuspMap, builtin_contractions
from compopnum.tails import column_tail_majorant


def run(args):
    return main(args)


def test_an_diagonal_csv(tmp_path):
    out = tmp_path / "spec.csv"
    rep = tmp_path / "rep.json"
    assert run(["an", "--symbol", "affine:r=0.5", "--N", "32",
                "--out", str(out), "--report", str(rep)]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 32
    assert list(rows[0]) == ["n", "a_n", "error_radius", "certified", "stability_radius"]
    for row in rows[:10]:
        n = int(row["n"])
        assert float(row["a_n"]) == pytest.approx(0.5**n, rel=1e-10)
    payload = json.loads(rep.read_text())
    assert payload["version"]
    assert payload["config_hash"]
    # the disk's column tail is a closed form: no fit, no residual
    assert payload["column_tail"] == {"model": "closed-form:disk", "rmse": 0.0}
    spec = singular_spectrum(assemble(AffineMap(0.5), 32))
    assert payload["reliable_entries"] == len(spec.reliable_range()) > 0


@pytest.mark.parametrize("N", [1, 2, 3])
def test_an_small_truncation_without_known_base(tmp_path, N):
    # without an image no mass beyond the table is proved, so nothing is
    # certified (the cusp written as a twice-applied involution, whose
    # powers are no polynomials)
    out, rep = tmp_path / "spec.csv", tmp_path / "rep.json"
    twice = "compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))"
    assert run(["an", "--symbol", twice, "--N", str(N),
                "--out", str(out), "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["row_tail"] == "inf"
    assert payload["certification_floor"] == "inf"
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == N
    assert all(row["certified"] == "false" for row in rows)


@pytest.mark.parametrize("symbol, args, M", [
    ("cusp", [], 64),
    # the cusp behind an inner contraction has no Image, and no mass beyond N
    ("compose(cusp,affine:r=0.5)", [], 64),
    ("cusp", ["--M", "100"], 100),
    # a polynomial of degree 2 keeps its first N powers whole
    ("coeffs:[0,0.5,0.25]", [], 128),
])
def test_an_reports_the_resolved_plan(tmp_path, symbol, args, M):
    rep = tmp_path / "rep.json"
    assert run(["an", "--symbol", symbol, "--N", "64", "--out", str(tmp_path / "s.csv"),
                "--report", str(rep)] + args) == 0
    plan = json.loads(rep.read_text())["plan"]
    _, rho, Q = SeriesParams(M).resolved()
    assert plan == {"M": M, "rho": rho, "Q": Q}


def test_an_column_tail_does_not_depend_on_M(tmp_path):
    # --M sizes the matrix only: the column tail of a symbol without a known
    # image base is its sup-norm majorant, finite here (sup = 0.7934)
    symbol = builtin_contractions()[3].spec_string()
    tails = []
    for extra in ([], ["--M", "1024"]):
        rep = tmp_path / "rep.json"
        assert run(["an", "--symbol", symbol, "--N", "64", *extra,
                    "--out", str(tmp_path / "spec.csv"), "--report", str(rep)]) == 0
        payload = json.loads(rep.read_text())
        assert payload["column_tail"] == {"model": "sup-norm", "rmse": 0.0}
        tails.append(payload["hs_tail"])
    assert tails[0] == tails[1] == column_tail_majorant(builtin_contractions()[3], 65)


def _an_report(tmp_path, tag):
    rep = tmp_path / f"{tag}.json"
    assert run(["an", "--symbol", "affine:r=0.5", "--N", "16",
                "--out", str(tmp_path / f"{tag}.csv"), "--report", str(rep)]) == 0
    return json.loads(rep.read_text())


def test_report_without_checks_has_no_verdict(tmp_path):
    payload = _an_report(tmp_path, "a")
    assert payload["checks"] == []
    assert payload["passed"] is None


def test_config_hash_ignores_output_paths(tmp_path):
    assert _an_report(tmp_path, "a")["config_hash"] == _an_report(tmp_path, "b")["config_hash"]


def test_determinism_bit_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        rep = tmp_path / f"{tag}.json"
        assert run(["an", "--symbol", "cusp", "--N", "48",
                    "--out", str(out), "--report", str(rep)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_mc_determinism_same_seed(tmp_path):
    rep = tmp_path / "mc.json"
    blobs = []
    for _ in range(2):
        assert run(["area", "--symbol", "cusp", "--t", "0.125",
                    "--method", "monte-carlo", "--samples", "100000",
                    "--seed", "7", "--report", str(rep)]) == 0
        blobs.append(rep.read_bytes())
    assert blobs[0] == blobs[1]


def test_area_requires_seed_for_mc(tmp_path):
    assert run(["area", "--symbol", "cusp", "--t", "0.125",
                "--method", "monte-carlo"]) == 2


def test_area_auto_exact_needs_no_seed(tmp_path):
    rep = tmp_path / "rep.json"
    assert run(["area", "--symbol", "cusp", "--t", "0.1", "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["method"] == "exact-arcs"
    assert payload["value"] == geometry.annulus_area(CuspMap(), 0.1, "exact-arcs").value
    assert payload["flagged"] is False
    # without an exact route, auto samples and the seed is mandatory again
    twice = "compose(moebius:u=0.5+0i,compose(moebius:u=0.5+0i,cusp))"
    assert run(["area", "--symbol", twice, "--t", "0.1"]) == 2


def test_area_exact(tmp_path):
    rep = tmp_path / "rep.json"
    assert run(["area", "--symbol", "cusp", "--t", "0.015625",
                "--method", "exact-arcs", "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["value"] == pytest.approx(0.1359 * 0.015625**3, rel=0.01)


def test_malformed_symbol_exits_2_without_artifacts(tmp_path):
    out = tmp_path / "never.csv"
    code = run(["an", "--symbol", "garbage:spec", "--N", "8", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_config_space_outside_the_dirichlet_family_exits_2(tmp_path):
    # a config file gets the same answer as the flag's choices
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"space": "hardy"}))
    out, rep = tmp_path / "never.csv", tmp_path / "never.json"
    assert run(["--config", str(cfg), "an", "--symbol", "affine:r=0.5", "--N", "8",
                "--out", str(out), "--report", str(rep)]) == 2
    assert not out.exists() and not rep.exists()
    with pytest.raises(SystemExit) as exc:
        run(["an", "--space", "hardy"])
    assert exc.value.code == 2


def test_series_subcommand(tmp_path):
    out = tmp_path / "series.csv"
    assert run(["series", "--symbol", "cusp", "--k", "32", "--deg", "128",
                "--out", str(out), "--report", str(tmp_path / "r.json")]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 129
    assert {"index", "re", "im"} <= set(rows[0])


def test_series_of_a_real_symbol_keeps_its_imaginary_column(tmp_path):
    # the cusp's table is real; the CSV schema keeps its `im` column, all zero
    out = tmp_path / "series.csv"
    assert run(["series", "--symbol", "cusp", "--k", "3", "--M", "64",
                "--out", str(out), "--report", str(tmp_path / "r.json")]) == 0
    with open(out) as fh:
        assert next(csv.reader(fh)) == ["index", "re", "im"]
        rows = list(csv.reader(fh))
    assert len(rows) == 65
    assert all(float(im) == 0.0 for _, _, im in rows)
    assert any(float(re) != 0.0 for _, re, _ in rows)


def test_series_report_carries_the_a_priori_bound(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["series", "--symbol", "cusp", "--M", "64",
                "--out", str(tmp_path / "s.csv"), "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    params = SeriesParams(64)
    peaks = power_coefficient_table(CuspMap(), 1, params)[1]
    assert payload["error_bound"] == params.error_bounds(peaks)[0]
    assert payload["aliasing_suspect"] is False
    # the affine cube 0.125 z^3 has exactly one nonzero coefficient of nine:
    # the other eight are flushed to exact zeros
    assert run(["series", "--symbol", "affine:r=0.5", "--k", "3", "--M", "8",
                "--out", str(tmp_path / "s.csv"), "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["flushed"] == 8
    # a user-chosen radius this close to 1 lets aliasing dominate
    assert run(["series", "--symbol", "cusp", "--M", "16", "--rho", "0.9999", "--Q", "128",
                "--out", str(tmp_path / "s.csv"), "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["aliasing_suspect"] is True


def _rootn_csv(tmp_path):
    """A spectrum CSV of a_n = exp(-2 sqrt(n)), n = 1..80."""
    src = tmp_path / "synthetic.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "a_n", "error_radius", "certified"])
        for n in range(1, 81):
            w.writerow([n, repr(math.exp(-2.0 * math.sqrt(n))), "0.0", "true"])
    return src


def test_fit_subcommand_roundtrip(tmp_path):
    src = _rootn_csv(tmp_path)
    rep = tmp_path / "fit.json"
    assert run(["fit", "--in", str(src), "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["best"] == "rootn"
    rootn = next(f for f in payload["fits"] if f["model"] == "rootn")
    assert rootn["c"] == pytest.approx(2.0, abs=0.01)


def test_fit_runs_the_models_flag_asks_for(tmp_path):
    src, rep = _rootn_csv(tmp_path), tmp_path / "fit.json"
    assert run(["fit", "--in", str(src), "--models", "rootn,geometric", "--report", str(rep)]) == 0
    assert sorted(f["model"] for f in json.loads(rep.read_text())["fits"]) == ["geometric", "rootn"]


def test_fit_with_an_unknown_model_exits_2(tmp_path):
    rep = tmp_path / "never.json"
    assert run(["fit", "--in", str(_rootn_csv(tmp_path)), "--models", "foo",
                "--report", str(rep)]) == 2
    assert not rep.exists()


@pytest.mark.parametrize("ns", [(1, 3), (1, 2, 20_000_000), (2, 1)],
                         ids=["gap", "huge-n", "out-of-order"])
def test_fit_reads_only_the_rows_an_writes(tmp_path, ns):
    # n comes from outside the program: only rows n = 1..R in order are read,
    # so no n sizes an array (20M would ask for 160 MB)
    src = tmp_path / "spec.csv"
    src.write_text("n,a_n\n" + "".join(f"{n},0.5\n" for n in ns))
    _exits_2_without_artifacts(tmp_path, ["fit", "--in", str(src),
                                          "--report", str(tmp_path / "never.json")])


# values the benchmark's oracle pins: a change of the value floor or of the
# tiers must not move them unseen
ORACLE = json.loads((Path(__file__).parents[1] / "perfbench" / "oracle.json").read_text())


def test_fit_on_an_csv_fits_every_entry_above_the_floor(tmp_path):
    out, an, rep = tmp_path / "spec.csv", tmp_path / "an.json", tmp_path / "fit.json"
    assert run(["an", "--symbol", "cusp", "--N", "64", "--out", str(out), "--report", str(an)]) == 0
    assert json.loads(an.read_text())["stable_entries"] == ORACLE["an cusp N=64"]["stable_entries"] == 4
    assert run(["fit", "--in", str(out), "--report", str(rep)]) == 0
    got = {f["model"]: f for f in json.loads(rep.read_text())["fits"]}
    spec = singular_spectrum(assemble(CuspMap(), 64))
    for f in fit_decay(spec.values):
        assert (got[f.model]["alpha"], got[f.model]["c"], got[f.model]["rmse"]) == (f.alpha, f.c, f.rmse)
        assert tuple(got[f.model]["range"]) == f.fit_range
        assert got[f.model]["range"] == ORACLE["fit an cusp N=64"][f"{f.model}.range"] == [2, 49]


def test_verify_bound_calculus(tmp_path):
    rep = tmp_path / "v.json"
    assert run(["verify", "--theorem", "4.1", "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["passed"]


def test_verify_upper_law(tmp_path):
    rep = tmp_path / "v21.json"
    assert run(["verify", "--theorem", "2.1", "--N", "160", "--report", str(rep)]) == 0


def test_verify_unknown_theorem():
    assert run(["verify", "--theorem", "9.9"]) == 2


def test_verify_slow_decay_probe(tmp_path):
    rep = tmp_path / "v22.json"
    # default r = 0.9 against the cusp (sup norm 1) passes
    assert run(["verify", "--theorem", "2.2", "--symbol", "cusp", "--N", "512",
                "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["passed"]


def test_verify_slow_decay_at_its_defaults_reports_the_short_range(tmp_path):
    # cusp, N = 256, r = 0.9: too few reliable entries for the probe, which
    # must fail in the report rather than stop the command
    rep = tmp_path / "v22.json"
    assert run(["verify", "--theorem", "2.2", "--report", str(rep)]) == 1
    (check,) = json.loads(rep.read_text())["checks"]
    assert check["name"] == "lower-law-probe" and not check["passed"]
    assert check["details"]["reliable_entries"] < check["details"]["needed"] == 10


def test_verify_headline_reports_failure(tmp_path):
    # the truncated-matrix spectrum cannot exhibit the root-n law at desk
    # scale (see project notes); the pipeline must say so and exit 1
    rep = tmp_path / "v31.json"
    assert run(["verify", "--theorem", "3.1", "--symbol", "cusp", "--N", "256",
                "--report", str(rep)]) == 1
    payload = json.loads(rep.read_text())
    assert not payload["passed"]
    names = [c["name"] for c in payload["checks"]]
    assert any(name.startswith("rootn-fit") for name in names)
    # the lowered fit-length guard is stated in every fit report
    fit_checks = [c for c in payload["checks"] if c["name"].startswith("rootn-fit")]
    assert all(c["details"]["min_entries"] == 8 for c in fit_checks)


def test_verify_headline_compares_the_rates_when_both_fits_run(tmp_path):
    # z/2 decays geometrically: both truncations fit, the geometric model
    # wins each, and the rootn rates of the two are compared
    rep = tmp_path / "v31.json"
    assert run(["verify", "--theorem", "3.1", "--symbol", "affine:r=0.5", "--N", "64",
                "--report", str(rep)]) == 1
    checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
    assert list(checks) == ["rootn-fit[N=32]", "rootn-fit[N=64]", "rootn-rate-stability"]
    rates = []
    for N in (32, 64):
        fit = checks[f"rootn-fit[N={N}]"]
        assert not fit["passed"] and fit["details"]["best_model"] == "geometric"
        assert set(fit["details"]["fits"]) == {"geometric", "rootn", "nlogn"}
        rates.append(fit["details"]["fits"]["rootn"]["c"])
    stability = checks["rootn-rate-stability"]
    assert stability["passed"]
    assert [stability["details"]["c_half"], stability["details"]["c_full"]] == rates


def test_verify_headline_needs_the_rootn_model(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"models": ["geometric", "nlogn"]}))
    rep = tmp_path / "never.json"
    # a symbol whose fits succeed, so the missing model is what stops the run
    assert run(["--config", str(cfg), "verify", "--theorem", "3.1", "--symbol", "affine:r=0.5",
                "--N", "32", "--report", str(rep)]) == 2
    assert not rep.exists()


def test_window_bound_ordering_is_computed(tmp_path, monkeypatch):
    rep = tmp_path / "v24.json"
    args = ["verify", "--theorem", "2.4", "--symbol", "cusp", "--N", "128", "--report", str(rep)]
    assert run(args) == 0
    details = json.loads(rep.read_text())["checks"][0]["details"]
    assert details["C_full"] <= 1.0
    assert details["ordering_holds"] is True
    assert details["range"] == ORACLE["verify 2.4 cusp N=128"]["window-upper-bound.range"] == [20, 56]
    # bounds a million times too small break the ordering but not the
    # stability of the constant, which alone decides "passed"
    zinc = geometry.zinc_upper_bound
    monkeypatch.setattr(geometry, "zinc_upper_bound", lambda s, n: (1e-6 * zinc(s, n)[0], None))
    assert run(args) == 0
    details = json.loads(rep.read_text())["checks"][0]["details"]
    assert details["C_full"] > 1.0
    assert details["ordering_holds"] is False


def test_window_bound_on_a_short_range_reports_a_failed_check(tmp_path):
    rep = tmp_path / "v24.json"
    assert run(["verify", "--theorem", "2.4", "--symbol", "cusp", "--N", "16",
                "--report", str(rep)]) == 1
    (check,) = json.loads(rep.read_text())["checks"]
    assert check == {"name": "window-upper-bound", "passed": False,
                     "details": {"usable_entries": 0, "needed": 5}}


def test_zinc_subcommand(tmp_path):
    rep = tmp_path / "z.json"
    assert run(["zinc", "--symbol", "affine:r=0.5", "--n", "10", "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["value"] <= 10 * 0.5**10 + 1e-12


@pytest.mark.parametrize("args", [["zinc", "--n", "60"], ["area", "--t", "0.1", "--method", "exact-arcs"]])
def test_an_inner_rotation_reports_the_cusp_numbers(tmp_path, args):
    reports = []
    for symbol in ("cusp", "compose(cusp,affine:r=1,theta=1)"):
        rep = tmp_path / "rep.json"
        assert run([args[0], "--symbol", symbol, *args[1:], "--report", str(rep)]) == 0
        reports.append(json.loads(rep.read_text()))
    assert reports[1]["value"] == reports[0]["value"]
    assert reports[1].get("argmin_t") == reports[0].get("argmin_t")


def test_zinc_without_known_image_exits_1_fast(tmp_path, capsys, monkeypatch):
    # M(t) would need 41 Monte Carlo areas per grid point: it refuses instead
    def no_sampling(*args, **kwargs):
        raise AssertionError("zinc must not sample")

    monkeypatch.setattr(geometry, "_mc_annulus_area", no_sampling)
    rep = tmp_path / "z.json"
    code = run(["zinc", "--symbol", "compose(cusp,affine:r=0.5)", "--n", "10",
                "--report", str(rep)])
    assert code == 1
    assert "known image base" in capsys.readouterr().err
    assert not rep.exists()


def test_blaschke_subcommand(tmp_path):
    rep = tmp_path / "b.json"
    assert run(["blaschke-cert", "--r", "4", "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["value"] > 0


def test_blaschke_auto_runs_the_quadrature(tmp_path):
    rep = tmp_path / "b.json"
    assert run(["blaschke-cert", "--r", "1", "--method", "auto", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["value"] == geometry.blaschke_certificate(1, method="quadrature")


@pytest.mark.parametrize("r", [2, 8])
def test_blaschke_certificate_keeps_the_benchmark_oracle(tmp_path, r):
    rep = tmp_path / "b.json"
    assert run(["blaschke-cert", "--r", str(r), "--report", str(rep)]) == 0
    want = ORACLE[f"blaschke-cert r={r}"]["value"]
    assert json.loads(rep.read_text())["value"] == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("args", [
    ["area", "--symbol", "cusp", "--t", "0.1", "--method", "polar"],
    ["area", "--symbol", "cusp", "--t", "0.1", "--method", "quadrature"],
    # a window method on the certificate: no longer a silent seed-0 Monte Carlo run
    ["blaschke-cert", "--r", "1", "--method", "exact-arcs", "--samples", "1000"],
    ["blaschke-cert", "--r", "1", "--method", "monte-carlo"],  # no --seed
    # Monte Carlo's standard error needs two samples, and numpy a seed >= 0
    ["area", "--symbol", "cusp", "--t", "0.1", "--method", "monte-carlo", "--samples", "1",
     "--seed", "3"],
    ["blaschke-cert", "--r", "1", "--method", "monte-carlo", "--samples", "1", "--seed", "3"],
    ["area", "--symbol", "cusp", "--t", "0.1", "--method", "monte-carlo", "--seed", "-1"],
])
def test_region_methods_checked_before_running(tmp_path, args):
    rep = tmp_path / "never.json"
    assert run(args + ["--report", str(rep)]) == 2
    assert not rep.exists()


def test_exact_request_without_exact_route_exits_1(tmp_path):
    rep = tmp_path / "never.json"
    assert run(["area", "--symbol", "compose(cusp,affine:r=0.5)", "--t", "0.1",
                "--method", "exact-arcs", "--report", str(rep)]) == 1
    assert not rep.exists()


def test_area_on_a_non_univalent_symbol_exits_1(tmp_path, capsys):
    # geometry reports that no route exists before it asks for a seed
    rep = tmp_path / "never.json"
    assert run(["area", "--symbol", "coeffs:[0,0,1]", "--t", "0.1",
                "--report", str(rep)]) == 1
    assert "univalent" in capsys.readouterr().err
    assert not rep.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symbol": "affine:r=0.5", "N": 8}))
    out = tmp_path / "s.csv"
    assert run(["--config", str(cfg), "an", "--N", "16", "--out", str(out),
                "--report", str(tmp_path / "r.json")]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 16  # flag wins over config


@pytest.mark.parametrize("config, args", [
    ({"N": "64"}, ["an", "--symbol", "affine:r=0.5"]),
    ({"seed": 1.5}, ["area", "--symbol", "cusp", "--t", "0.1", "--method", "monte-carlo"]),
])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, config, args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out, rep = tmp_path / "never.csv", tmp_path / "never.json"
    assert run(["--config", str(cfg)] + args + ["--out", str(out), "--report", str(rep)]) == 2
    assert not out.exists() and not rep.exists()


def test_bad_config_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense_key": 1}))
    assert run(["--config", str(cfg), "an"]) == 2
    cfg.write_text("not json at all")
    assert run(["--config", str(cfg), "an"]) == 2
    # fit reports fits[0]: an empty model list is a configuration error
    src = _rootn_csv(tmp_path)
    _exits_2_without_artifacts(tmp_path, ["fit", "--in", str(src), "--report",
                                          str(tmp_path / "never.json")], {"models": []})
    with pytest.raises(cli.ConfigError, match="at least one model"):
        cli.run_pipeline(cli.RunConfig("fit", infile=str(src), models=()))


# top-level report keys of each command; the envelope is shared, the rest
# is each command's own
ENVELOPE = {"version", "config_hash", "config", "checks", "passed"}
REPORT_KEYS = {
    "an": {"spectrum_csv", "plan", "hs_tail", "row_tail", "assembly_error", "column_tail",
           "certification_floor", "stable_entries", "reliable_entries", "svd"},
    "series": {"out", "error_bound", "aliasing_suspect", "flushed", "sampling_radius"},
    "area": {"value", "std_error", "method", "t", "flagged"},
    "zinc": {"n", "value", "argmin_t"},
    "blaschke-cert": {"r", "value"},
    "fit": {"best", "fits"},
    "verify": set(),
    "bound-calculus": set(),
}


def test_report_keys_of_every_command(tmp_path):
    csv_path = tmp_path / "s.csv"
    runs = {
        "an": ["--symbol", "affine:r=0.5", "--N", "32", "--out", str(csv_path)],
        "series": ["--symbol", "cusp", "--M", "16", "--out", str(tmp_path / "c.csv")],
        "area": ["--symbol", "cusp", "--t", "0.1"],
        "zinc": ["--symbol", "affine:r=0.5", "--n", "10"],
        "blaschke-cert": ["--r", "1"],
        "fit": ["--in", str(csv_path)],
        "verify": ["--theorem", "4.1", "--n-max", "200"],
        "bound-calculus": ["--n-max", "200"],
    }
    assert set(runs) == set(REPORT_KEYS)
    for command, args in runs.items():
        rep = tmp_path / f"{command}.json"
        assert run([command] + args + ["--report", str(rep)]) == 0, command
        assert set(json.loads(rep.read_text())) == ENVELOPE | REPORT_KEYS[command], command


def test_bound_calculus_is_theorem_4_1(tmp_path):
    reports = []
    for args in (["bound-calculus"], ["verify", "--theorem", "4.1"]):
        rep = tmp_path / "r.json"
        assert run(args + ["--eps", "n^-0.5", "--n-max", "500", "--report", str(rep)]) == 0
        reports.append(json.loads(rep.read_text()))
    assert reports[0]["checks"] == reports[1]["checks"] != []
    assert reports[0]["passed"] is reports[1]["passed"] is True


def test_failing_bound_calculus_exits_1(tmp_path, monkeypatch, capsys):
    failing = analysis.Report("bound-calculus", False, {"why": "patched"})
    monkeypatch.setattr(analysis, "improvement_bound", lambda eps, n_max: (None, failing))
    for args in (["bound-calculus"], ["verify", "--theorem", "4.1"]):
        rep = tmp_path / "r.json"
        assert run(args + ["--report", str(rep)]) == 1
        payload = json.loads(rep.read_text())
        assert payload["passed"] is False
        assert payload["checks"] == [failing.as_dict()]
    assert "FAIL theorem 4.1" in capsys.readouterr().err


def _exits_2_without_artifacts(tmp_path, args, config=None):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = ["--config", str(cfg)] + args
    before = set(tmp_path.iterdir())
    assert run(args) == 2
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("config, args", [
    # the certificate is for an integral r: 1.5 would report 1.5 and compute r = 1
    ({"r": 1.5}, ["blaschke-cert"]),
    (None, ["series", "--symbol", "cusp", "--k", "0"]),
    (None, ["series", "--symbol", "cusp", "--deg", "0"]),
    (None, ["an", "--symbol", "affine:r=0.5", "--N", "8", "--M", "0"]),
    # the window bound of an index below 1 is meaningless (-3e9 at n = -3)
    (None, ["zinc", "--symbol", "cusp", "--n", "0"]),
    (None, ["zinc", "--symbol", "cusp", "--n", "-3"]),
    # values out of the range the library accepts, checked before any work
    (None, ["bound-calculus", "--n-max", "1"]),
    (None, ["verify", "--theorem", "4.1", "--n-max", "1"]),
    (None, ["area", "--symbol", "cusp", "--t", "0"]),
    (None, ["area", "--symbol", "cusp", "--t", "1.5"]),
    (None, ["blaschke-cert", "--r", "-1"]),
    (None, ["verify", "--theorem", "2.2", "--r", "1.5"]),
    # 1 - 2^-54 rounds to 1.0: the last Blaschke zero would leave the disk
    (None, ["blaschke-cert", "--r", "54"]),
    # Q = 0 would report 0 and run the default plan
    (None, ["an", "--symbol", "affine:r=0.5", "--N", "8", "--Q", "0"]),
    (None, ["an", "--symbol", "affine:r=0.5", "--N", "8", "--Q", "-8"]),
    # no flag sets h and no command reads it
    ({"h": 0.1}, ["an", "--symbol", "affine:r=0.5", "--N", "8"]),
    # non-finite symbol parameters (nan once ran to "SVD did not converge")
    (None, ["an", "--symbol", "affine:r=0.5,theta=nan", "--N", "8"]),
    (None, ["an", "--symbol", "affine:r=0.5,theta=inf", "--N", "8"]),
    (None, ["an", "--symbol", "moebius:u=nan+0i", "--N", "8"]),
    (None, ["an", "--symbol", "coeffs:[0,nan]", "--N", "8"]),
    # no known sup: (s + |u|)/(1 + s|u|) = 0.945 would overstate its 60/73
    # and put the default r = 0.9 below it
    (None, ["verify", "--theorem", "2.2", "--N", "64", "--symbol",
            "compose(moebius:u=0.3+0i,compose(affine:r=0.9,cusp))"]),
    # sampling plans that do not resolve, or retain too few degrees
    (None, ["an", "--symbol", "cusp", "--N", "16", "--rho", "1.5"]),
    (None, ["an", "--symbol", "cusp", "--N", "16", "--Q", "8"]),
    (None, ["an", "--symbol", "affine:r=0.5", "--N", "16", "--M", "8"]),
    (None, ["series", "--symbol", "cusp", "--k", "2", "--rho", "0"]),
])
def test_config_that_would_not_be_what_ran_exits_2(tmp_path, config, args):
    rep, out = tmp_path / "never.json", tmp_path / "never.csv"
    _exits_2_without_artifacts(tmp_path, args + ["--out", str(out), "--report", str(rep)], config)


def test_blaschke_range_is_where_the_zeros_lie_in_the_disk():
    _, in_range, _ = cli._RANGES["blaschke-cert"]
    assert [r for r in range(64) if in_range(r)] == [r for r in range(64) if 1.0 - 2.0**-r < 1.0]


@pytest.mark.parametrize("args", [
    ["--symbol", "affine:r=0.5", "--r", "0.7"],
    ["--symbol", "affine:r=0.5", "--r", "0.5"],
    ["--symbol", "affine:r=0.5"],  # the default r = 0.9
])
def test_slow_decay_r_not_below_sup_norm_exits_2_before_work(tmp_path, monkeypatch, args):
    def no_assembly(*a, **kw):
        raise AssertionError("assembled a spectrum the probe cannot use")

    monkeypatch.setattr(cli, "assemble", no_assembly)
    _exits_2_without_artifacts(tmp_path, ["verify", "--theorem", "2.2", "--N", "32", *args,
                                          "--report", str(tmp_path / "never.json")])


def test_the_builtin_polynomial_runs_the_slow_decay_probe(tmp_path):
    # univalence and sup|phi| = 0.75 are read off the coefficients
    rep = tmp_path / "v22.json"
    assert run(["verify", "--theorem", "2.2", "--symbol", "coeffs:[0,0.5,0.25]", "--r", "0.5",
                "--N", "256", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["passed"]


def test_the_builtin_polynomial_has_a_monte_carlo_area(tmp_path):
    rep = tmp_path / "area.json"
    assert run(["area", "--symbol", "coeffs:[0,0.5,0.25]", "--t", "0.5", "--method",
                "monte-carlo", "--samples", "20000", "--seed", "1", "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["value"] > 0.0 and payload["std_error"] > 0.0


def test_an_on_an_aliasing_suspect_plan_exits_1(tmp_path):
    rep = tmp_path / "never.json"
    assert run(["an", "--symbol", "cusp", "--N", "16", "--M", "16", "--rho", "0.9999",
                "--Q", "128", "--out", str(tmp_path / "s.csv"), "--report", str(rep)]) == 1
    assert not rep.exists()


def test_blaschke_power_zero_is_in_range(tmp_path):
    # B^0 = 1: the unweighted window ratio
    rep = tmp_path / "rep.json"
    assert run(["blaschke-cert", "--r", "0", "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["value"] == geometry.blaschke_certificate(0)


def _geometric_csv(n_bad, bad):
    # a_n = 0.9^n, n = 1..40, with one entry no singular value can have
    rows = [f"{n},{bad if n == n_bad else repr(0.9**n)}" for n in range(1, 41)]
    return "n,a_n\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("content", [
    None,  # no such file
    "n,value\n1,0.5\n",  # no a_n column
    "n,a_n,error_radius,certified\n",  # header only
    "n,a_n\n0,0.5\n1,0.25\n",  # n = 0 has no slot
    "n,a_n\n1,half\n",
    # an infinite entry once ended in "degenerate fit"; nan and negative
    # entries were dropped and the range still read [2, 40]
    pytest.param(_geometric_csv(5, "inf"), id="inf-at-5"),
    pytest.param(_geometric_csv(3, "nan"), id="nan-at-3"),
    pytest.param(_geometric_csv(3, "-0.5"), id="negative-at-3"),
])
def test_fit_input_errors_exit_2_naming_the_file(tmp_path, capsys, content):
    src = tmp_path / "in.csv"
    if content is not None:
        src.write_text(content)
    _exits_2_without_artifacts(tmp_path, ["fit", "--in", str(src), "--report",
                                          str(tmp_path / "never.json")])
    assert str(src) in capsys.readouterr().err


@pytest.mark.parametrize("out, report", [
    ("missing/s.csv", "rep.json"),
    # a bad report directory must not leave the CSV behind
    ("s.csv", "missing/rep.json"),
])
def test_missing_output_directory_exits_2_before_running(tmp_path, monkeypatch, out, report):
    def no_assembly(*args, **kwargs):
        raise AssertionError("nothing may run")

    monkeypatch.setattr("compopnum.cli.assemble", no_assembly)
    _exits_2_without_artifacts(tmp_path, ["an", "--symbol", "cusp", "--N", "8",
                                          "--out", str(tmp_path / out),
                                          "--report", str(tmp_path / report)])
