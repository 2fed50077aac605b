"""Command-line front end and the end-to-end verification pipeline.

Configuration comes from an optional JSON file plus flags (flags win).
Every report embeds the hash of the resolved configuration and the library
version; numeric output uses shortest round-trip decimals, so identical
configurations and seeds reproduce bit-identical artifacts.

run_pipeline owns each command's lifecycle: it parses the symbol, validates
the configuration, runs the command, writes the one report and sets the exit
code. Exit codes: 0 when every check that ran passed or none ran; 1 when a
check ran and failed, or the computation raised a numerical error; 2 on a
configuration error, which includes a missing or malformed input file, a
missing output directory, a sampling plan that does not resolve and a
region-measure method that geometry rejects with MethodError (nothing is
written then).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, analysis, geometry
from .opmatrix import VALUE_FLOOR, assemble, retained_degree, singular_spectrum
from .series import SeriesParams, Space, power_coefficient_table
from .symbols import SymbolMap, parse_symbol

__all__ = ["ConfigError", "RunConfig", "run_pipeline", "main"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Resolved parameters of one pipeline run."""

    command: str
    symbol: str = "cusp"
    space: str = "auto"
    N: int = 256
    M: int | None = None
    rho: float | None = None
    Q: int | None = None
    samples: int = 1_000_000
    seed: int | None = None
    theorem: str | None = None
    models: tuple = tuple(analysis.MODEL_PREDICTORS)
    n: int | None = None
    k: int | None = None
    t: float | None = None
    r: float | int | None = None
    eps: str = "1/log(n+2)"
    n_max: int = 10_000
    out: str | None = None
    infile: str | None = None
    report: str | None = None
    method: str = "auto"

    def resolved_space(self, s: SymbolMap) -> Space:
        if self.space == "auto":
            return Space.DIRICHLET_STAR if s.fixes_origin else Space.DIRICHLET
        try:
            return Space(self.space)
        except ValueError as exc:
            raise ConfigError(f"unknown space {self.space!r}") from exc

    def config_hash(self) -> str:
        """Hash of the computation's inputs; output paths are left out."""
        config = asdict(self)
        del config["out"], config["report"]
        blob = json.dumps(config, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_spectrum_csv(path: str, spec) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "a_n", "error_radius", "certified", "stability_radius"])
        stab = spec.stability_radii
        if stab is None:  # truncation too small to halve: no stability tier
            stab = np.full(len(spec.values), math.inf)
        radius = _fmt(spec.radius)
        for i, (v, certified, s) in enumerate(zip(spec.values, spec.certified, stab)):
            w.writerow([i + 1, _fmt(v), radius, _fmt(bool(certified)), _fmt(s)])


def _sanitize(obj):
    """Make report payloads JSON-safe (inf/nan become strings)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _write_report(path: str | None, payload: dict) -> None:
    text = json.dumps(_sanitize(payload), sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# theorem verifications and subcommands: (cfg, parsed symbol) -> (report fields,
# checks); run_pipeline owns validation, the report and the exit code

_Outcome = tuple[dict, list[analysis.Report]]


def _plan(cfg: RunConfig, M: int, N: int = 0) -> SeriesParams:
    """The sampling plan of the flags, with degree M unless --M sets it; a
    plan that does not resolve, or retains fewer than N degrees, is a
    configuration error."""
    params = SeriesParams(M if cfg.M is None else cfg.M, cfg.rho, cfg.Q)
    try:
        retained = params.resolved()[0]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if retained < N:
        raise ConfigError(f"retained degree M = {retained} must reach the truncation size N = {N}")
    return params


def _spectrum_for(cfg: RunConfig, s: SymbolMap, N: int):
    params = _plan(cfg, retained_degree(s, N), N)
    m = assemble(s, N, cfg.resolved_space(s), params)
    return singular_spectrum(m), m


def _verify_geometric_upper(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    """Upper decay law a_n <= C sqrt(n) sigma^n for the contraction family."""
    checks = []
    for r in (0.3, 0.5, 0.7):
        spec, _ = _spectrum_for(cfg, parse_symbol(f"affine:r={r}"), max(cfg.N, 160))
        c_short = analysis.upper_law_constant(spec, r, 40)
        c_long = analysis.upper_law_constant(spec, r, 80)
        checks.append(
            analysis.Report(
                name=f"upper-law[r={r}]",
                passed=bool(c_long <= 1.5 * c_short),
                details={"C_5_40": c_short, "C_5_80": c_long, "stability_factor": c_long / c_short},
            )
        )
    return {}, checks


def _verify_slow_decay(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    if s.sup_norm_hint is None:
        raise ConfigError("slow-decay probe needs a symbol with a known sup norm")
    r = cfg.r if cfg.r is not None else 0.9
    if r >= s.sup_norm_hint:
        raise ConfigError(f"slow-decay probe needs r below sup|phi| = {s.sup_norm_hint!r}, "
                          f"not {r!r}")
    spec, _ = _spectrum_for(cfg, s, cfg.N)
    return {}, [analysis.lower_law_probe(spec, float(r), s.sup_norm_hint)]


def _verify_window_bound(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    """Computed a_n <= C * window upper bound, C stable under range doubling.

    Computed singular values are certified lower bounds of the true
    approximation numbers, so this checks a consequence of the inequality;
    the content is the stability of the fitted constant.  With fewer than
    5 usable entries in [20, 200] the check fails saying so.
    """
    spec, _ = _spectrum_for(cfg, s, cfg.N)
    all_ns = np.arange(1, len(spec.values) + 1)
    ns = all_ns[(all_ns >= 20) & (all_ns <= 200) & (spec.values >= VALUE_FLOOR)]
    if len(ns) < 5:
        return {}, [analysis.Report("window-upper-bound", False,
                                    {"usable_entries": len(ns), "needed": 5})]
    ratios = spec.values[ns - 1] / geometry.zinc_upper_bound(s, ns)[0]
    split = ns[len(ns) // 2]
    c_short = ratios[ns <= split].max()
    c_full = ratios.max()
    return {}, [
        analysis.Report(
            name="window-upper-bound",
            passed=bool(c_full <= 1.5 * c_short),
            details={
                "C_first_half": c_short,
                "C_full": c_full,
                "range": (int(ns[0]), int(ns[-1])),
                # every a_n in range lies below its window bound
                "ordering_holds": bool(c_full <= 1.0),
            },
        )
    ]


def _verify_headline(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    """Root-n law: RootN must beat Geometric and NOverLogN on the reliable
    range, with the fitted rate stable between half and full truncation."""
    if "rootn" not in cfg.models:
        raise ConfigError("theorem 3.1 fits the rootn model: models must include it")
    checks, cs = [], {}
    # lowered for the cusp's structurally short reliable range; reported
    min_entries = 8
    for N in (cfg.N // 2, cfg.N):
        spec, m = _spectrum_for(cfg, s, N)
        details = {"min_entries": min_entries}
        try:
            fits = analysis.fit_decay(spec, models=cfg.models, min_entries=min_entries)
        except ValueError as exc:
            details.update(error=str(exc), truncation_norm_bound=m.truncation_norm_bound)
            checks.append(analysis.Report(f"rootn-fit[N={N}]", False, details))
            continue
        cs[N] = next(f.c for f in fits if f.model == "rootn")
        details["best_model"] = fits[0].model
        details["fits"] = {f.model: {"c": f.c, "rmse": f.rmse, "range": f.fit_range} for f in fits}
        checks.append(analysis.Report(f"rootn-fit[N={N}]", fits[0].model == "rootn", details))
    if len(cs) == 2:
        c_half, c_full = cs[cfg.N // 2], cs[cfg.N]
        stable = abs(c_full - c_half) <= 0.2 * abs(c_half)
        checks.append(
            analysis.Report(
                name="rootn-rate-stability",
                passed=bool(stable),
                details={"c_half": c_half, "c_full": c_full},
            )
        )
    return {}, checks


def _parse_eps(text: str):
    if text == "1/log(n+2)":
        return lambda n: 1.0 / math.log(n + 2)
    if text == "n^-0.5":
        return lambda n: n**-0.5
    raise ConfigError(f"unknown eps sequence {text!r} (use '1/log(n+2)' or 'n^-0.5')")


def _verify_bound_calculus(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    _, rep = analysis.improvement_bound(_parse_eps(cfg.eps), cfg.n_max)
    return {}, [rep]


_THEOREM_RUNNERS = {
    "2.1": _verify_geometric_upper,
    "2.2": _verify_slow_decay,
    "2.4": _verify_window_bound,
    "3.1": _verify_headline,
    "4.1": _verify_bound_calculus,
}


def _cmd_an(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    spec, m = _spectrum_for(cfg, s, cfg.N)
    out = cfg.out or "spectrum.csv"
    _write_spectrum_csv(out, spec)
    M, rho, Q = m.params.resolved()
    return {
        "spectrum_csv": out,
        "plan": {"M": M, "rho": rho, "Q": Q},
        "hs_tail": m.hs_tail,
        "row_tail": m.row_tail,
        "assembly_error": m.assembly_error,
        # no fitted model is left, so no residual: the schema keeps rmse at 0
        "column_tail": {"model": m.column_tail_route, "rmse": 0.0},
        "certification_floor": spec.certification_floor,
        "stable_entries": int(spec.stable.sum()),
        "reliable_entries": len(spec.reliable_range()),
        "svd": {"columns": spec.columns, "dropped": spec.dropped},
    }, []


def _cmd_series(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    k = 1 if cfg.k is None else cfg.k
    params = _plan(cfg, 64)
    table, peaks = power_coefficient_table(s, k, params)
    out = cfg.out or "series.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "re", "im"])
        for j, c in enumerate(table[k - 1]):
            w.writerow([j, _fmt(c.real), _fmt(c.imag)])
    return {
        "out": out,
        "error_bound": params.error_bounds(peaks)[k - 1],
        "aliasing_suspect": params.aliasing_suspect,
        "flushed": int(np.count_nonzero(table[k - 1] == 0.0)),
        "sampling_radius": params.resolved()[1],
    }, []


def _cmd_area(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    meas = geometry.annulus_area(s, cfg.t, cfg.method, cfg.samples, cfg.seed)
    return {"value": meas.value, "std_error": meas.std_error, "method": meas.method,
            "t": cfg.t, "flagged": meas.flagged}, []


def _cmd_zinc(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    value, t_star = geometry.zinc_upper_bound(s, cfg.n)
    return {"n": cfg.n, "value": value, "argmin_t": t_star}, []


def _cmd_blaschke(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    # a config file may give r as a float (verify's --r is one)
    if not float(cfg.r).is_integer():
        raise ConfigError(f"blaschke-cert needs an integral r, not {cfg.r!r}")
    value = geometry.blaschke_certificate(int(cfg.r), cfg.method, cfg.samples, cfg.seed)
    return {"r": cfg.r, "value": value}, []


def _read_spectrum_csv(path: str) -> np.ndarray:
    """a_1..a_R from a spectrum CSV whose rows are n = 1..R in order, as `an`
    writes them; any other n is a configuration error."""
    try:
        with open(path) as fh:
            rows = [(int(row["n"]), float(row["a_n"])) for row in csv.DictReader(fh)]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read spectrum CSV {path!r}: {exc!r}") from exc
    if not rows or [n for n, _ in rows] != list(range(1, len(rows) + 1)):
        raise ConfigError(f"spectrum CSV {path!r} needs rows n = 1, 2, ... in order")
    values = np.array([v for _, v in rows])
    bad = np.nonzero(~(np.isfinite(values) & (values >= 0.0)))[0]
    if bad.size:
        raise ConfigError(f"spectrum CSV {path!r} has a_n = {values[bad[0]]!r} at n = {bad[0] + 1}: "
                          "singular values are finite and >= 0")
    return values


def _cmd_fit(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    fits = analysis.fit_decay(_read_spectrum_csv(cfg.infile), models=cfg.models)
    return {
        "fits": [
            {"model": f.model, "alpha": f.alpha, "c": f.c, "rmse": f.rmse, "range": f.fit_range}
            for f in fits
        ],
        "best": fits[0].model,
    }, []


def _cmd_verify(cfg: RunConfig, s: SymbolMap) -> _Outcome:
    if cfg.theorem not in _THEOREM_RUNNERS:
        raise ConfigError(f"unknown theorem {cfg.theorem!r}; choose from {sorted(_THEOREM_RUNNERS)}")
    fields, checks = _THEOREM_RUNNERS[cfg.theorem](cfg, s)
    ok = all(c.passed for c in checks)
    print(("PASS" if ok else "FAIL") + f" theorem {cfg.theorem}", file=sys.stderr)
    return fields, checks


_COMMANDS = {
    "an": _cmd_an,
    "series": _cmd_series,
    "area": _cmd_area,
    "zinc": _cmd_zinc,
    "blaschke-cert": _cmd_blaschke,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
    "bound-calculus": _verify_bound_calculus,  # theorem 4.1 on its own
}

# command -> the config key it cannot run without, and how to ask for it
_REQUIRED = {"area": ("t", "--t"), "zinc": ("n", "--n"), "blaschke-cert": ("r", "--r"),
             "fit": ("infile", "--in (spectrum CSV)")}
# command, or the theorem that verify (or bound-calculus, the 4.1 runner)
# runs -> a config key it reads, the test its value must pass and the range
# that test states
_RANGES = {"area": ("t", lambda t: 0.0 < t <= 1.0, "in (0, 1]"),
           # from r = 54 on the last zero 1 - 2^-r rounds to 1.0, out of the disk
           "blaschke-cert": ("r", lambda r: 0 <= r <= 53, "in [0, 53]"),
           "2.2": ("r", lambda r: 0.0 < r < 1.0, "in (0, 1)"),
           "4.1": ("n_max", lambda n: n >= 2, "at least 2")}


def run_pipeline(cfg: RunConfig) -> int:
    """Runs one command: validates the configuration, runs the command,
    writes the report and returns 1 when a check ran and failed, else 0.

    Raises ConfigError before any artifact is written when the configuration
    or an input file is malformed or an output directory is missing.
    """
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    try:
        s = parse_symbol(cfg.symbol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.resolved_space(s)  # a config file is not checked by the parser's choices
    if any(v is not None and v < 1 for v in (cfg.N, cfg.M, cfg.Q, cfg.k, cfg.n, cfg.samples)):
        raise ConfigError("N, M, Q, k, n and samples must be positive")
    unknown = set(cfg.models) - set(analysis.MODEL_PREDICTORS)
    if unknown:
        raise ConfigError(f"unknown models {sorted(unknown)}")
    if not cfg.models:
        raise ConfigError("models must name at least one model")
    if cfg.command in _REQUIRED:
        key, flag = _REQUIRED[cfg.command]
        if getattr(cfg, key) is None:
            raise ConfigError(f"{cfg.command} needs {flag}")
    runner = {"verify": cfg.theorem, "bound-calculus": "4.1"}.get(cfg.command, cfg.command)
    if runner in _RANGES:
        key, ok, text = _RANGES[runner]
        if getattr(cfg, key) is not None and not ok(getattr(cfg, key)):
            raise ConfigError(f"{key} must be {text}, not {getattr(cfg, key)!r}")
    for path in (cfg.out, cfg.report):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"output directory of {path!r} does not exist")
    fields, checks = _COMMANDS[cfg.command](cfg, s)
    # a command that ran no checks has no verdict
    passed = all(c.passed for c in checks) if checks else None
    _write_report(cfg.report, {
        "version": __version__, "config_hash": cfg.config_hash(), "config": asdict(cfg),
        "checks": [c.as_dict() for c in checks], "passed": passed, **fields})
    return 1 if passed is False else 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="compopnum",
        description="Approximation numbers of composition operators on the Dirichlet space",
    )
    p.add_argument("--config", help="JSON config file; flags override its values")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--symbol", default=None)
        sp.add_argument("--space", default=None, choices=["auto", "dirichlet", "dirichlet-star"])
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--M", type=int, default=None)
        sp.add_argument("--rho", type=float, default=None)
        sp.add_argument("--Q", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--method", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--report", default=None)
        return sp

    add("an", help="singular spectrum to CSV")
    sp = add("series", help="coefficients of a symbol power")
    sp.add_argument("what", nargs="?", default="pow", choices=["pow"])
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--deg", type=int, default=None, dest="M")
    sp = add("area", help="annulus area of the image domain")
    sp.add_argument("--t", type=float, default=None)
    sp = add("zinc", help="window-decay upper bound at index n")
    sp.add_argument("--n", type=int, default=None)
    sp = add("blaschke-cert", help="Carleson embedding certificate")
    sp.add_argument("--r", type=int, default=None)
    sp = add("fit", help="decay-law fits of a spectrum CSV")
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--models", default=None)
    sp = add("verify", help="end-to-end theorem verification")
    sp.add_argument("--theorem", default=None)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--eps", default=None)
    sp.add_argument("--n-max", type=int, default=None, dest="n_max")
    sp = add("bound-calculus", help="concave-majorant decay certificate")
    sp.add_argument("--eps", default=None)
    sp.add_argument("--n-max", type=int, default=None, dest="n_max")
    return p


# keys whose flags parse to int, and to int or float; `models` is a list of str, the rest str
_INT_KEYS = ("N", "M", "Q", "samples", "seed", "n", "k", "n_max")
_REAL_KEYS = ("rho", "t", "r")


def _config_type_ok(key: str, value) -> bool:
    """A config-file value has the type its flag parses to; null only where
    the default is None."""
    if value is None or isinstance(value, bool):
        return value is None and getattr(RunConfig, key) is None
    if key == "models":
        return isinstance(value, list) and all(isinstance(m, str) for m in value)
    kind = int if key in _INT_KEYS else (int, float) if key in _REAL_KEYS else str
    return isinstance(value, kind)


def _merge_config(args) -> RunConfig:
    base: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigError("config must be a JSON object")
    cfg = RunConfig(command=args.command)
    for key, value in base.items():
        if not hasattr(cfg, key) or key == "command":
            raise ConfigError(f"unknown config key {key!r}")
        if not _config_type_ok(key, value):
            raise ConfigError(f"config key {key!r} has a value of the wrong type: {value!r}")
        setattr(cfg, key, value)
    for key, value in vars(args).items():
        if key in ("config", "command", "what") or value is None:
            continue
        if key == "models":
            cfg.models = tuple(value.split(","))
        else:
            setattr(cfg, key, value)
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return run_pipeline(cfg)
    except (ConfigError, geometry.MethodError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
