import csv
import json
import math

import numpy as np
import pytest

from compopnum import geometry
from compopnum.cli import main


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


def test_series_subcommand(tmp_path):
    out = tmp_path / "series.csv"
    assert run(["series", "--symbol", "cusp", "--k", "32", "--deg", "128",
                "--out", str(out), "--report", str(tmp_path / "r.json")]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 129
    assert {"index", "re", "im"} <= set(rows[0])


def test_fit_subcommand_roundtrip(tmp_path):
    src = tmp_path / "synthetic.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "a_n", "error_radius", "certified"])
        for n in range(1, 81):
            w.writerow([n, repr(math.exp(-2.0 * math.sqrt(n))), "0.0", "true"])
    rep = tmp_path / "fit.json"
    assert run(["fit", "--in", str(src), "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["best"] == "rootn"
    rootn = next(f for f in payload["fits"] if f["model"] == "rootn")
    assert rootn["c"] == pytest.approx(2.0, abs=0.01)


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


def test_window_bound_ordering_is_computed(tmp_path, monkeypatch):
    rep = tmp_path / "v24.json"
    args = ["verify", "--theorem", "2.4", "--symbol", "cusp", "--N", "128", "--report", str(rep)]
    assert run(args) == 0
    details = json.loads(rep.read_text())["checks"][0]["details"]
    assert details["C_full"] <= 1.0
    assert details["ordering_holds"] is True
    # bounds a million times too small break the ordering but not the
    # stability of the constant, which alone decides "passed"
    zinc = geometry.zinc_upper_bound
    monkeypatch.setattr(geometry, "zinc_upper_bound", lambda s, n: (1e-6 * zinc(s, n)[0], None))
    assert run(args) == 0
    details = json.loads(rep.read_text())["checks"][0]["details"]
    assert details["C_full"] > 1.0
    assert details["ordering_holds"] is False


def test_zinc_subcommand(tmp_path):
    rep = tmp_path / "z.json"
    assert run(["zinc", "--symbol", "affine:r=0.5", "--n", "10", "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["value"] <= 10 * 0.5**10 + 1e-12


def test_blaschke_subcommand(tmp_path):
    rep = tmp_path / "b.json"
    assert run(["blaschke-cert", "--r", "4", "--report", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    assert payload["value"] > 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symbol": "affine:r=0.5", "N": 8}))
    out = tmp_path / "s.csv"
    assert run(["--config", str(cfg), "an", "--N", "16", "--out", str(out),
                "--report", str(tmp_path / "r.json")]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 16  # flag wins over config


def test_bad_config_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense_key": 1}))
    assert run(["--config", str(cfg), "an"]) == 2
    cfg.write_text("not json at all")
    assert run(["--config", str(cfg), "an"]) == 2
