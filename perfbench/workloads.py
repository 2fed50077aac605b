"""The benchmark's workloads: seeded job lists and the oracle for each job.

Each workload is a fixed list of CLI jobs (plus one library call) run in
order, each in a fresh process.  The seed draws only parameters that leave
the cost unchanged, and the Monte Carlo seeds.  README.md says why each
workload exists and which metrics it should move.

An oracle is a closed form where one exists, an invariance where the seed
moves a parameter the answer does not depend on, and otherwise a value
recorded from the seed commit in oracle.json (see record_oracle.py).  Three
report fields are never trusted: `an`'s "passed" (it is all([])), the
hard-coded "ordering_holds" of theorem 2.4, and "config_hash" (it hashes
the output paths).
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("cusp-spectrum", "contraction-spectrum", "cusp-geometry", "cusp-montecarlo")

# per-command medians of job wall time; sub-second jobs (fit, verify 4.1)
# feed none of them and count toward pass_s only
COMMAND_METRICS = ("an_s", "verify_s", "zinc_s", "blaschke_cert_s", "region_gram_s", "area_s")

# problem sizes of the benchmark, and of the tiny instance the self-test runs
SIZES = {
    False: {"an_cusp": 1024, "an_affine": 512, "v21": 256, "v24": 256, "blaschke": 8, "gram": 1024, "samples": 10_000_000},
    True: {"an_cusp": 64, "an_affine": 32, "v21": 160, "v24": 128, "blaschke": 2, "gram": 64, "samples": 100_000},
}

RTOL_RECORDED = 1e-9  # deterministic values recorded from the seed commit
RTOL_FIT = 1e-6  # decay fits also read the deep, truncation-limited entries
RTOL_CLOSED = 1e-12  # closed forms; the contraction spectrum meets them to 7e-15
MC_SIGMAS = 5.0
ZINC_N = (50, 200)
# Not seeded: `an` on affine:r=R at N=512 took 38.5 s at R=0.61, 23.5 s at
# 0.7 and 8.5 s at 0.79, so R would change the cost.  Only theta is seeded.
CONTRACTION_R = 0.7
# annulus depth t of the three Monte Carlo jobs, and the scales of the
# rotated cusp and of the affine disk
T_CUSP, T_ROTATED, T_AFFINE = 2.0**-6, 0.1, 0.2
ROTATED_CUSP_R = 0.95
AFFINE_MC_R = 0.9

ORACLE_PATH = Path(__file__).with_name("oracle.json")


class OracleError(Exception):
    """A job's output falls outside its oracle."""


@dataclass(frozen=True)
class Job:
    label: str  # display name, and the oracle.json key of recorded jobs
    metric: str | None  # the per-command median this job feeds
    argv: tuple  # job.py KIND and arguments; paths are relative to the work dir
    outputs: tuple  # files the job writes into the work dir
    observe: Callable[[Path], dict]  # reads the values the oracle checks
    verify: Callable[[dict], None]  # raises OracleError when they are wrong
    recorded: bool = False  # verify compares with oracle.json[label]
    known_defect: str | None = None  # a documented program defect fails this job


def load_oracle() -> dict:
    return json.loads(ORACLE_PATH.read_text())


def cusp_annulus_key(t: float) -> str:
    return f"cusp-annulus t={t!r}"


def rotated_cusp_inner_t() -> float:
    """Depth in the cusp image whose annulus the rotated cusp's scales onto."""
    return 1.0 - (1.0 - T_ROTATED) / ROTATED_CUSP_R


# ---------------------------------------------------------------------------
# observers


def _json(work: Path, name: str):
    return json.loads((work / name).read_text())


def _spectrum(work: Path, name: str) -> list:
    with open(work / name, newline="") as fh:
        rows = [(int(r["n"]), float(r["a_n"])) for r in csv.DictReader(fh)]
    if [n for n, _ in rows] != list(range(1, len(rows) + 1)):
        raise OracleError(f"{name}: rows are not n = 1..{len(rows)}")
    return [v for _, v in rows]


def _checks(report: dict) -> dict:
    return {c["name"]: c["details"] for c in report["checks"]}


def _observe_an_cusp(work: Path) -> dict:
    stable = int(_json(work, "an.json")["stable_entries"])
    return {"stable_entries": stable, "stable_values": _spectrum(work, "spectrum.csv")[:stable]}


def _observe_fit(work: Path) -> dict:
    rep = _json(work, "fit.json")
    out = {"best": rep["best"]}
    for f in rep["fits"]:
        out[f"{f['model']}.c"] = f["c"]
        out[f"{f['model']}.alpha"] = f["alpha"]
        out[f"{f['model']}.range"] = f["range"]
    return out


def _observe_verify(keys: tuple) -> Callable[[Path], dict]:
    def observe(work: Path) -> dict:
        checks = _checks(_json(work, "verify.json"))
        return {f"{check}.{k}": d[k] for check, d in checks.items() for k in keys if k in d}

    return observe


def _observe_values(work: Path) -> dict:
    rep = _json(work, "report.json")
    return {k: rep[k] for k in ("value", "argmin_t", "std_error") if k in rep}


def _observe_gram(work: Path) -> dict:
    values = _json(work, "gram.json")
    return {"top": values[:20]}


# ---------------------------------------------------------------------------
# verifiers


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(name: str, got, want, rtol: float) -> None:
    if not (_is_number(want) and _is_number(got)):
        if got != want:
            raise OracleError(f"{name}: got {got!r}, expected {want!r}")
    elif not abs(got - want) <= rtol * abs(want):
        raise OracleError(f"{name}: got {got!r}, expected {want!r} (rtol {rtol:g})")


def compare(label: str, got: dict, want: dict, rtol: float) -> None:
    """Raises OracleError unless `got` matches `want` key by key."""
    if set(got) != set(want):
        raise OracleError(f"{label}: fields {sorted(got)} != expected {sorted(want)}")
    for key, w in want.items():
        g = got[key]
        if isinstance(w, list):
            if not isinstance(g, list) or len(g) != len(w):
                raise OracleError(f"{label}.{key}: got {g!r}, expected {w!r}")
            for i, (gi, wi) in enumerate(zip(g, w)):
                _close(f"{label}.{key}[{i}]", gi, wi, rtol)
        else:
            _close(f"{label}.{key}", g, w, rtol)


def _recorded(oracle: dict, label: str, rtol: float) -> Callable[[dict], None]:
    def verify(got: dict) -> None:
        if label not in oracle:
            raise OracleError(f"no recorded value for {label!r} in oracle.json")
        compare(label, got, oracle[label], rtol)

    return verify


def _verify_geometric_spectrum(r: float) -> Callable[[dict], None]:
    """a_n = r^n for the scaled rotation r e^{i theta} z, on every entry above
    the certification floor; at least the first 20 must be above it."""

    def verify(got: dict) -> None:
        floor = got["floor"]
        checked = 0
        for n, a in enumerate(got["values"], start=1):
            exact = r**n
            if a >= floor or exact >= 2.0 * floor:
                _close(f"a_{n}", a, exact, RTOL_CLOSED)
                checked += 1
        if checked < 20:
            raise OracleError(f"only {checked} entries above the floor {floor!r}")

    return verify


def _verify_upper_law(got: dict) -> None:
    # with a_n = r^n exactly, C = max_{n >= 5} a_n / (sqrt(n) r^n) = 1/sqrt(5)
    if len(got) != 6:
        raise OracleError(f"expected C_5_40 and C_5_80 for r = 0.3, 0.5, 0.7; got {sorted(got)}")
    for key, value in got.items():
        _close(key, value, 1.0 / math.sqrt(5.0), RTOL_CLOSED)


def _verify_within_sigmas(label: str, expected: float) -> Callable[[dict], None]:
    def verify(got: dict) -> None:
        value, sigma = got["value"], got["std_error"]
        if not 0.0 < sigma <= 0.05 * expected:
            raise OracleError(f"{label}: std_error {sigma!r} not in (0, 5% of {expected!r}]")
        if abs(value - expected) > MC_SIGMAS * sigma:
            raise OracleError(
                f"{label}: {value!r} +/- {sigma!r} is {abs(value - expected) / sigma:.1f} sigma "
                f"from {expected!r}"
            )

    return verify


# ---------------------------------------------------------------------------
# job lists


def _cli(command: str, *args) -> tuple:
    return ("cli", command, *map(str, args))


def jobs(workload: str, seed: int, oracle: dict, tiny: bool = False) -> tuple[list[Job], dict]:
    """(job list, seeded inputs) of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    size = SIZES[tiny]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cusp-spectrum":
        n = size["an_cusp"]
        label_an, label_fit = f"an cusp N={n}", f"fit an cusp N={n}"
        return [
            Job(label_an, "an_s", _cli("an", "--symbol", "cusp", "--N", n, "--out", "spectrum.csv", "--report", "an.json"),
                ("spectrum.csv", "an.json"), _observe_an_cusp, _recorded(oracle, label_an, RTOL_RECORDED), True),
            Job(label_fit, None, _cli("fit", "--in", "spectrum.csv", "--report", "fit.json"),
                ("fit.json",), _observe_fit, _recorded(oracle, label_fit, RTOL_FIT), True),
            Job("verify 4.1", None, _cli("verify", "--theorem", "4.1", "--report", "verify.json"),
                ("verify.json",),
                _observe_verify(("generic_bound_constant", "concavity_second_difference",
                                 "chain_holds_everywhere", "rho_increasing")),
                _recorded(oracle, "verify 4.1", RTOL_RECORDED), True),
        ], {}
    if workload == "contraction-spectrum":
        r = CONTRACTION_R
        theta = round(rng.uniform(0.0, 2.0 * math.pi), 6)
        symbol = f"affine:r={r!r},theta={theta!r}"
        n = size["an_affine"]

        def observe_an(work: Path) -> dict:
            floor = float(_json(work, "an.json")["certification_floor"])
            return {"floor": floor, "values": _spectrum(work, "spectrum.csv")}

        return [
            Job(f"an {symbol} N={n}", "an_s",
                _cli("an", "--symbol", symbol, "--N", n, "--out", "spectrum.csv", "--report", "an.json"),
                ("spectrum.csv", "an.json"), observe_an, _verify_geometric_spectrum(r)),
            Job(f"verify 2.1 N={size['v21']}", "verify_s",
                _cli("verify", "--theorem", "2.1", "--N", size["v21"], "--report", "verify.json"),
                ("verify.json",), _observe_verify(("C_5_40", "C_5_80")), _verify_upper_law),
        ], {"r": r, "theta": theta}
    if workload == "cusp-geometry":
        zn = rng.randint(*ZINC_N)
        labels = (f"zinc cusp n={zn}", f"verify 2.4 cusp N={size['v24']}",
                  f"blaschke-cert r={size['blaschke']}", f"region-gram N={size['gram']}")
        return [
            Job(labels[0], "zinc_s", _cli("zinc", "--symbol", "cusp", "--n", zn, "--report", "report.json"),
                ("report.json",), _observe_values, _recorded(oracle, labels[0], RTOL_RECORDED), True),
            Job(labels[1], "verify_s",
                _cli("verify", "--theorem", "2.4", "--symbol", "cusp", "--N", size["v24"], "--report", "verify.json"),
                ("verify.json",), _observe_verify(("C_first_half", "C_full", "range")),
                _recorded(oracle, labels[1], RTOL_RECORDED), True),
            Job(labels[2], "blaschke_cert_s",
                _cli("blaschke-cert", "--r", size["blaschke"], "--report", "report.json"),
                ("report.json",), _observe_values, _recorded(oracle, labels[2], RTOL_RECORDED), True),
            Job(labels[3], "region_gram_s", ("region-gram", str(size["gram"]), "gram.json"),
                ("gram.json",), _observe_gram, _recorded(oracle, labels[3], RTOL_RECORDED), True),
        ], {"n": zn}
    # cusp-montecarlo
    seeds = [rng.randrange(2**31) for _ in range(3)]
    theta_rot = round(rng.uniform(0.5, 2.0 * math.pi - 0.5), 6)  # away from 0, where the defect hides
    theta_aff = round(rng.uniform(0.0, 2.0 * math.pi), 6)
    # rotation preserves area, and scaling by r maps depth inner_t onto T_ROTATED
    cusp_area = oracle.get(cusp_annulus_key(T_CUSP), math.nan)
    rot_area = ROTATED_CUSP_R**2 * oracle.get(cusp_annulus_key(rotated_cusp_inner_t()), math.nan)
    aff_area = AFFINE_MC_R**2 - (1.0 - T_AFFINE) ** 2
    specs = (
        ("cusp", T_CUSP, cusp_area, None),
        (f"compose(affine:r={ROTATED_CUSP_R!r},theta={theta_rot!r},cusp)", T_ROTATED, rot_area,
         "Monte Carlo returns 0 +/- 0 for the rotated cusp: its importance box ignores the rotation"),
        (f"affine:r={AFFINE_MC_R!r},theta={theta_aff!r}", T_AFFINE, aff_area, None),
    )
    out = []
    for (symbol, t, expected, defect), mc_seed in zip(specs, seeds):
        label = f"area {symbol} t={t!r}"
        out.append(Job(label, "area_s",
                       _cli("area", "--symbol", symbol, "--t", repr(t), "--method", "monte-carlo",
                            "--samples", size["samples"], "--seed", mc_seed, "--report", "report.json"),
                       ("report.json",), _observe_values, _verify_within_sigmas(label, expected),
                       known_defect=defect))
    return out, {"mc_seeds": seeds, "theta_rotated_cusp": theta_rot, "theta_affine": theta_aff}
