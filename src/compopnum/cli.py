"""Command-line front end and the end-to-end verification pipeline.

Configuration comes from an optional JSON file plus flags (flags win).
Every report embeds the hash of the resolved configuration and the library
version; numeric output uses shortest round-trip decimals, so identical
configurations and seeds reproduce bit-identical artifacts.

Exit codes: 0 all requested checks passed; 1 a numerical check failed;
2 configuration/schema error (no partial artifacts are written).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, analysis, geometry
from .opmatrix import assemble, hs_tail_bound, singular_spectrum
from .series import SeriesParams, Space, coefficients_of_power
from .symbols import SymbolMap, parse_symbol

__all__ = ["RunConfig", "run_pipeline", "main"]


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
    models: tuple = ("geometric", "rootn", "nlogn")
    n: int | None = None
    k: int | None = None
    t: float | None = None
    r: float | int | None = None
    h: float | None = None
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
        for i, v in enumerate(spec.values):
            w.writerow(
                [
                    i + 1,
                    _fmt(v),
                    _fmt(spec.error_radii[i]),
                    _fmt(bool(spec.certified[i])),
                    _fmt(stab[i]),
                ]
            )


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


def _report_envelope(cfg: RunConfig, checks: list[analysis.Report]) -> dict:
    return {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "config": asdict(cfg),
        "checks": [c.as_dict() for c in checks],
        # a command that ran no checks has no verdict
        "passed": all(c.passed for c in checks) if checks else None,
    }


# ---------------------------------------------------------------------------
# theorem verifications


def _spectrum_for(cfg: RunConfig, s: SymbolMap, N: int):
    params = SeriesParams(M=cfg.M or 2 * N, rho=cfg.rho, Q=cfg.Q)
    m = assemble(s, N, cfg.resolved_space(s), params)
    return singular_spectrum(m), m


def _verify_geometric_upper(cfg: RunConfig) -> list[analysis.Report]:
    """Upper decay law a_n <= C sqrt(n) sigma^n for the contraction family."""
    checks = []
    for r in (0.3, 0.5, 0.7):
        s = parse_symbol(f"affine:r={r}")
        spec, _ = _spectrum_for(cfg, s, max(cfg.N, 160))
        c_short = analysis.upper_law_constant(spec, r, 5, 40)
        c_long = analysis.upper_law_constant(spec, r, 5, 80)
        stable = c_long <= 1.5 * c_short
        checks.append(
            analysis.Report(
                name=f"upper-law[r={r}]",
                passed=bool(stable),
                details={"C_5_40": c_short, "C_5_80": c_long, "stability_factor": c_long / c_short},
            )
        )
    return checks


def _verify_slow_decay(cfg: RunConfig) -> list[analysis.Report]:
    s = parse_symbol(cfg.symbol)
    if s.sup_norm_hint is None:
        raise ConfigError("slow-decay probe needs a symbol with a known sup norm")
    r = cfg.r if cfg.r is not None else 0.9
    spec, _ = _spectrum_for(cfg, s, cfg.N)
    return [analysis.lower_law_probe(spec, float(r), s.sup_norm_hint)]


def _verify_window_bound(cfg: RunConfig) -> list[analysis.Report]:
    """Computed a_n <= C * window upper bound, C stable under range doubling.

    Computed singular values are certified lower bounds of the true
    approximation numbers, so this checks a consequence of the inequality;
    the content is the stability of the fitted constant.
    """
    s = parse_symbol(cfg.symbol)
    spec, _ = _spectrum_for(cfg, s, cfg.N)
    all_ns = np.arange(1, len(spec.values) + 1)
    ns = all_ns[(all_ns >= 20) & (all_ns <= 200) & (spec.values >= 1e-12)]
    if len(ns) < 5:
        raise ValueError("not enough usable entries in [20, 200] for the bound check")
    ratios = {}
    for n in ns:
        bound, _t = geometry.zinc_upper_bound(s, int(n))
        ratios[int(n)] = spec.values[n - 1] / bound
    split = ns[len(ns) // 2]
    c_short = max(v for k, v in ratios.items() if k <= split)
    c_full = max(ratios.values())
    return [
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


def _verify_headline(cfg: RunConfig) -> list[analysis.Report]:
    """Root-n law: RootN must beat Geometric and NOverLogN on the reliable
    range, with the fitted rate stable between half and full truncation."""
    s = parse_symbol(cfg.symbol)
    checks = []
    cs = {}
    for N in (cfg.N // 2, cfg.N):
        spec, m = _spectrum_for(cfg, s, N)
        try:
            fits = analysis.fit_decay(spec, models=cfg.models, min_entries=8)
        except ValueError as exc:
            checks.append(
                analysis.Report(
                    name=f"rootn-fit[N={N}]",
                    passed=False,
                    details={"error": str(exc), "truncation_norm_bound": m.truncation_norm_bound},
                )
            )
            continue
        best = fits[0]
        rootn = next(f for f in fits if f.model == "rootn")
        cs[N] = rootn.c
        checks.append(
            analysis.Report(
                name=f"rootn-fit[N={N}]",
                passed=bool(best.model == "rootn"),
                details={
                    "best_model": best.model,
                    "fits": {f.model: {"c": f.c, "rmse": f.rmse, "range": f.fit_range} for f in fits},
                },
            )
        )
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
    return checks


def _parse_eps(text: str):
    if text == "1/log(n+2)":
        return lambda n: 1.0 / math.log(n + 2)
    if text == "n^-0.5":
        return lambda n: n**-0.5
    raise ConfigError(f"unknown eps sequence {text!r} (use '1/log(n+2)' or 'n^-0.5')")


def _verify_bound_calculus(cfg: RunConfig) -> list[analysis.Report]:
    _, rep = analysis.improvement_bound(_parse_eps(cfg.eps), (2, cfg.n_max))
    return [rep]


_THEOREM_RUNNERS = {
    "2.1": _verify_geometric_upper,
    "2.2": _verify_slow_decay,
    "2.4": _verify_window_bound,
    "3.1": _verify_headline,
    "4.1": _verify_bound_calculus,
}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_an(cfg: RunConfig) -> int:
    s = parse_symbol(cfg.symbol)
    spec, m = _spectrum_for(cfg, s, cfg.N)
    out = cfg.out or "spectrum.csv"
    _write_spectrum_csv(out, spec)
    payload = _report_envelope(cfg, [])
    payload["spectrum_csv"] = out
    payload["hs_tail"] = _sanitize(m.hs_tail)
    payload["row_tail"] = m.row_tail
    payload["assembly_error"] = m.assembly_error
    payload["certification_floor"] = _sanitize(spec.certification_floor)
    payload["stable_entries"] = int(spec.stable.sum())
    _write_report(cfg.report, payload)
    return 0


def _cmd_series(cfg: RunConfig) -> int:
    s = parse_symbol(cfg.symbol)
    k = cfg.k or 1
    M = cfg.M or 64
    ps = coefficients_of_power(s, k, M, cfg.rho, cfg.Q)
    out = cfg.out or "series.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "re", "im"])
        for j, c in enumerate(ps.coeffs):
            w.writerow([j, _fmt(c.real), _fmt(c.imag)])
    payload = _report_envelope(cfg, [])
    payload.update(
        {
            "out": out,
            "error_bound": ps.error_bound,
            "aliasing_suspect": ps.aliasing_suspect,
            "flushed": ps.flushed,
            "sampling_radius": ps.sampling_radius,
        }
    )
    _write_report(cfg.report, payload)
    return 0


def _require_seed(cfg: RunConfig):
    if cfg.seed is None:
        raise ConfigError("--seed is mandatory for Monte Carlo paths")


def _cmd_area(cfg: RunConfig) -> int:
    s = parse_symbol(cfg.symbol)
    if cfg.t is None:
        raise ConfigError("area needs --t")
    if cfg.method in ("monte-carlo", "auto"):
        _require_seed(cfg)
    meas = geometry.annulus_area(
        s, cfg.t, method=cfg.method, samples=cfg.samples, seed=cfg.seed or 0
    )
    payload = _report_envelope(cfg, [])
    payload.update(
        {"value": meas.value, "std_error": meas.std_error, "method": meas.method, "t": cfg.t}
    )
    _write_report(cfg.report, payload)
    return 0


def _cmd_zinc(cfg: RunConfig) -> int:
    s = parse_symbol(cfg.symbol)
    if cfg.n is None:
        raise ConfigError("zinc needs --n")
    value, t_star = geometry.zinc_upper_bound(s, cfg.n)
    payload = _report_envelope(cfg, [])
    payload.update({"n": cfg.n, "value": value, "argmin_t": t_star})
    _write_report(cfg.report, payload)
    return 0


def _cmd_blaschke(cfg: RunConfig) -> int:
    if cfg.r is None:
        raise ConfigError("blaschke-cert needs --r")
    if cfg.method == "monte-carlo":
        _require_seed(cfg)
    value = geometry.blaschke_certificate(
        int(cfg.r),
        method="quadrature" if cfg.method in ("auto", "quadrature") else "monte-carlo",
        samples=cfg.samples,
        seed=cfg.seed or 0,
    )
    payload = _report_envelope(cfg, [])
    payload.update({"r": cfg.r, "value": value})
    _write_report(cfg.report, payload)
    return 0


def _cmd_fit(cfg: RunConfig) -> int:
    if not cfg.infile:
        raise ConfigError("fit needs --in (spectrum CSV)")
    rows = []
    with open(cfg.infile) as fh:
        for row in csv.DictReader(fh):
            rows.append((int(row["n"]), float(row["a_n"])))
    rows.sort()
    ns = np.asarray([n for n, _ in rows])
    values = np.asarray([v for _, v in rows])
    keep = (values > 1e-12) & (ns >= 2)
    values_full = np.zeros(int(ns.max()))
    values_full[ns - 1] = values
    fits = analysis.fit_decay(values_full, models=cfg.models, ns=ns[keep])
    payload = _report_envelope(cfg, [])
    payload["fits"] = [
        {"model": f.model, "alpha": f.alpha, "c": f.c, "rmse": f.rmse, "range": f.fit_range}
        for f in fits
    ]
    payload["best"] = fits[0].model
    _write_report(cfg.report, payload)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    if cfg.theorem not in _THEOREM_RUNNERS:
        raise ConfigError(f"unknown theorem {cfg.theorem!r}; choose from {sorted(_THEOREM_RUNNERS)}")
    checks = _THEOREM_RUNNERS[cfg.theorem](cfg)
    payload = _report_envelope(cfg, checks)
    _write_report(cfg.report, payload)
    ok = payload["passed"]
    print(("PASS" if ok else "FAIL") + f" theorem {cfg.theorem}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_bound_calculus(cfg: RunConfig) -> int:
    checks = _verify_bound_calculus(cfg)
    payload = _report_envelope(cfg, checks)
    _write_report(cfg.report, payload)
    return 0 if payload["passed"] else 1


_COMMANDS = {
    "an": _cmd_an,
    "series": _cmd_series,
    "area": _cmd_area,
    "zinc": _cmd_zinc,
    "blaschke-cert": _cmd_blaschke,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
    "bound-calculus": _cmd_bound_calculus,
}


def run_pipeline(cfg: RunConfig) -> int:
    """Validates the configuration, runs the subcommand, writes artifacts.

    Raises ConfigError before any artifact is written when the configuration
    is malformed.
    """
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    try:
        parse_symbol(cfg.symbol)  # validate early, before touching the disk
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.N < 1 or cfg.samples < 1:
        raise ConfigError("N and samples must be positive")
    return _COMMANDS[cfg.command](cfg)


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
    sp.add_argument("--deg", type=int, default=None, dest="deg")
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
        setattr(cfg, key, value)
    for key, value in vars(args).items():
        if key in ("config", "command", "what") or value is None:
            continue
        if key == "deg":
            cfg.M = value
        elif key == "models":
            cfg.models = tuple(value.split(","))
        else:
            setattr(cfg, key, value)
    unknown = set(cfg.models) - set(analysis.MODEL_PREDICTORS)
    if unknown:
        raise ConfigError(f"unknown models {sorted(unknown)}")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return run_pipeline(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
