"""Decay-law fitting, spectral-rate estimation, and inequality verification.

Everything here consumes computed singular spectra (or synthetic sequences)
and produces either fitted models or pass/fail reports with the constants
that make the asymptotic inequalities concrete: a single constant is fitted
as the worst ratio over a range and must stay stable when the range grows,
which is how constant-free statements become testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opmatrix import SingularSpectrum
from .symbols import GridSpec, SymbolMap, pseudo_hyperbolic_sup

__all__ = [
    "DecayFit",
    "BetaEstimate",
    "BoundCalculus",
    "Report",
    "MODEL_PREDICTORS",
    "beta_estimate",
    "sandwich_check",
    "s_of_r",
    "lower_law_probe",
    "fit_decay",
    "upper_law_constant",
    "improvement_bound",
]


@dataclass(frozen=True)
class Report:
    """Pass/fail verdict with the numbers that produced it."""

    name: str
    passed: bool
    details: dict

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


# ---------------------------------------------------------------------------
# decay models


def _predictor_rootn(n):
    return np.sqrt(n)


def _predictor_geometric(n):
    return np.asarray(n, dtype=float)


def _predictor_nlogn(n):
    n = np.asarray(n, dtype=float)
    return n / np.log(n)


MODEL_PREDICTORS = {
    "geometric": _predictor_geometric,
    "rootn": _predictor_rootn,
    "nlogn": _predictor_nlogn,
}


@dataclass(frozen=True)
class DecayFit:
    """log a_n ~ alpha - c * predictor(n), fitted by least squares."""

    model: str
    alpha: float
    c: float
    rmse: float
    fit_range: tuple

    def predict(self, n):
        return np.exp(self.alpha - self.c * MODEL_PREDICTORS[self.model](n))


def _fit_one(model: str, ns: np.ndarray, values: np.ndarray) -> DecayFit:
    x = MODEL_PREDICTORS[model](ns)
    y = np.log(values)
    A = np.vstack([np.ones_like(x), -x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    if not np.all(np.isfinite(coef)):
        raise ArithmeticError(f"degenerate fit for model {model}")
    return DecayFit(
        model=model,
        alpha=float(coef[0]),
        c=float(coef[1]),
        rmse=math.sqrt(float(np.mean(resid**2))),
        fit_range=(int(ns[0]), int(ns[-1])),
    )


def fit_decay(
    spec: SingularSpectrum | np.ndarray,
    models=("geometric", "rootn", "nlogn"),
    ns: np.ndarray | None = None,
    mode: str = "auto",
    min_entries: int = 20,
) -> list[DecayFit]:
    """Least-squares fits of log a_n for each model, sorted by rmse.

    When a SingularSpectrum is passed, the range is its reliable range
    (rigorous certification when rich enough, else the stability tier);
    a raw array uses all positive entries or the explicit ns.  min_entries
    guards against meaningless fits; experiments on symbols whose reliable
    range is structurally short may lower it, which the report should state.
    """
    if isinstance(spec, SingularSpectrum):
        if ns is None:
            ns = spec.reliable_range(mode)
            ns = ns[ns >= 2]
        ns = np.asarray(ns)
        values = spec.values[ns - 1]
    else:
        values = np.asarray(spec, dtype=float)
        ns = np.arange(2, len(values) + 1) if ns is None else np.asarray(ns)
        values = values[ns - 1]
    keep = values > 0.0
    ns, values = ns[keep], values[keep]
    if len(ns) < min_entries:
        raise ValueError(f"need at least {min_entries} usable entries to fit, have {len(ns)}")
    fits = [_fit_one(m, ns.astype(float), values) for m in models]
    return sorted(fits, key=lambda f: f.rmse)


# ---------------------------------------------------------------------------
# spectral rate and sandwich


@dataclass(frozen=True)
class BetaEstimate:
    """Finite-sample stand-in for the liminf of a_n^(1/n)."""

    value: float
    roots: np.ndarray  # the full sequence a_n^(1/n) for inspection
    decade: tuple
    from_uncertified: bool = False


def beta_estimate(spec: SingularSpectrum, min_entries: int = 10) -> BetaEstimate:
    """Minimum of a_n^(1/n) over the last reliable decade.

    Non-compact symbols have no certified entries (infinite tails); the
    estimate then falls back to every computed value above the floor and the
    result is flagged.
    """
    ns = spec.reliable_range("auto")
    fallback = len(ns) < min_entries
    if fallback:
        ns = np.nonzero(spec.values >= 1e-13)[0] + 1
    if len(ns) < min_entries:
        raise ValueError("not enough reliable entries for a rate estimate")
    roots = spec.values[ns - 1] ** (1.0 / ns)
    n_hi = int(ns[-1])
    lo = max(int(ns[0]), int(math.ceil(n_hi / 10)))
    decade = (ns >= lo) & (ns <= n_hi)
    return BetaEstimate(
        value=float(roots[decade].min()),
        roots=roots,
        decade=(lo, n_hi),
        from_uncertified=fallback,
    )


def sandwich_check(
    s: SymbolMap,
    spec: SingularSpectrum,
    tol: float = 0.02,
    grid: GridSpec | None = None,
) -> Report:
    """Checks the rate sandwich: [phi]^2 - tol <= beta <= sup|phi| + tol."""
    bracket = pseudo_hyperbolic_sup(s, grid)
    beta = beta_estimate(spec)
    sup = s.sup_norm_hint if s.sup_norm_hint is not None else 1.0
    lower_ok = bracket**2 - tol <= beta.value
    upper_ok = beta.value <= sup + tol
    return Report(
        name="sandwich",
        passed=bool(lower_ok and upper_ok),
        details={
            "symbol": s.spec_string(),
            "pseudo_hyperbolic_sup": bracket,
            "lower": bracket**2,
            "beta": beta.value,
            "upper": sup,
            "tolerance": tol,
            "beta_from_uncertified": beta.from_uncertified,
        },
    )


def s_of_r(r: float, squared: bool = False) -> float:
    """Rate s(r) = exp(-eps pi / 2), eps = 2 pi / log((1+r)/(1-r)).

    squared=True returns s^2, the variant appearing in the slow-decay lower
    bound for symbols with sup norm exceeding r.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    eps = 2.0 * math.pi / math.log((1.0 + r) / (1.0 - r))
    s = math.exp(-eps * math.pi / 2.0)
    return s * s if squared else s


def lower_law_probe(spec: SingularSpectrum, r: float, sup_norm: float) -> Report:
    """Checks a_n >~ s(r)^(2n)/sqrt(n) for symbols with sup norm > r.

    Works with log q_n = log a_n - 2n log s + (log n)/2 to avoid overflow;
    passes when the minimum over the last reliable decade does not collapse
    below half the minimum over the first decade.
    """
    if sup_norm <= r:
        raise ValueError("probe requires sup|phi| > r")
    ns = spec.reliable_range("auto")
    if len(ns) < 10:
        raise ValueError("not enough reliable entries for the probe")
    s = s_of_r(r)
    vals = spec.values[ns - 1]
    log_q = np.log(vals) - 2.0 * ns * math.log(s) + 0.5 * np.log(ns)
    n_lo, n_hi = int(ns[0]), int(ns[-1])
    first = ns <= min(10 * n_lo, n_hi)
    last = ns >= max(n_hi // 10, n_lo)
    min_first = float(log_q[first].min())
    min_last = float(log_q[last].min())
    passed = min_last >= min_first + math.log(0.5)
    return Report(
        name="lower-law-probe",
        passed=bool(passed),
        details={
            "r": r,
            "s": s,
            "s_squared": s * s,
            "log10_q_min_first_decade": min_first / math.log(10.0),
            "log10_q_min_last_decade": min_last / math.log(10.0),
            "range": (n_lo, n_hi),
        },
    )


def upper_law_constant(
    spec: SingularSpectrum, sigma: float, n_lo: int = 5, n_hi: int = 40
) -> float:
    """Smallest C with a_n <= C sqrt(n) sigma^n on [n_lo, n_hi]."""
    ns = np.arange(n_lo, n_hi + 1)
    vals = spec.values[ns - 1]
    # ratio in logs: sigma^n underflows long before the values do
    log_ratio = np.log(np.maximum(vals, 1e-300)) - 0.5 * np.log(ns) - ns * math.log(sigma)
    return float(np.exp(log_ratio.max()))


# ---------------------------------------------------------------------------
# the bound calculus: eps_n -> concave majorant -> decay certificate


@dataclass(frozen=True)
class BoundCalculus:
    """Concave-majorant machinery built from a vanishing sequence eps_n.

    delta_n = eps_n + log(n)/n; the majorant is the least concave function
    through (0,0) dominating the knots (1/n, delta_n); its inverse feeds the
    window-decay profile rho(h) = exp(-h/psi(h)), which is increasing.
    """

    ns: np.ndarray
    eps_seq: np.ndarray
    delta_seq: np.ndarray
    hull_x: np.ndarray  # increasing, starts at 0
    hull_y: np.ndarray  # concave piecewise-linear values, hull_y[0] = 0

    def phi(self, x):
        return np.interp(x, self.hull_x, self.hull_y)

    def psi(self, h):
        """Inverse of the majorant on its value range (piecewise linear)."""
        return np.interp(h, self.hull_y, self.hull_x)

    def rho(self, h):
        h = np.asarray(h, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.exp(-h / np.maximum(self.psi(h), 1e-300))
        return out


def _upper_concave_hull(x: np.ndarray, y: np.ndarray):
    """Upper hull of points with strictly increasing x (monotone chain)."""
    hull = []  # indices
    for i in range(len(x)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = (x[i2] - x[i1]) * (y[i] - y[i1]) - (y[i2] - y[i1]) * (x[i] - x[i1])
            if cross >= 0.0:  # middle point below the chord: drop it
                hull.pop()
            else:
                break
        hull.append(i)
    return np.array(hull)


def improvement_bound(eps_seq, n_range=(2, 10_000)) -> tuple[BoundCalculus, Report]:
    """Builds the bound calculus for eps_n and verifies the decay chain.

    eps_seq: callable n -> eps_n or an array covering n_range (1-based).
    Verifies, for every n in range: the majorant dominates the knots, is
    concave, and n e^{-n phi(1/n)} <= e^{-n eps_n}; also fits the single
    constant C in inf_h [n e^{-nh} + rho(h)] <= C e^{-n eps_n}.
    """
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    if n_lo < 2:
        raise ValueError("range must start at n >= 2 (log n / n needs n >= 2)")
    ns = np.arange(n_lo, n_hi + 1)
    if callable(eps_seq):
        eps = np.asarray([float(eps_seq(int(n))) for n in ns])
    else:
        eps = np.asarray(eps_seq, dtype=float)
        if len(eps) != len(ns):
            raise ValueError("eps sequence must cover the range")
    if np.any(eps <= 0.0):
        raise ValueError("eps must be positive")
    if np.any(np.diff(eps) > 1e-15):
        raise ValueError("eps must be nonincreasing")
    if eps[-1] > 0.9 * eps[0] and n_hi - n_lo > 100:
        raise ValueError("eps does not decrease toward 0 over the range")
    delta = eps + np.log(ns) / ns

    x = 1.0 / ns[::-1]  # increasing
    y = delta[::-1]
    x = np.concatenate([[0.0], x])
    y = np.concatenate([[0.0], y])
    idx = _upper_concave_hull(x, y)
    hull_x, hull_y = x[idx], y[idx]
    calc = BoundCalculus(ns=ns, eps_seq=eps, delta_seq=delta, hull_x=hull_x, hull_y=hull_y)

    phi_at = calc.phi(1.0 / ns)
    domination = float(np.max(delta - phi_at))
    slopes = np.diff(hull_y) / np.diff(hull_x)
    concave = float(np.max(np.diff(slopes))) if len(slopes) >= 2 else 0.0
    # chain in logs: log n - n phi(1/n) <= -n eps_n
    chain_slack = np.log(ns) - ns * phi_at + ns * eps
    chain_ok = bool(np.all(chain_slack <= 1e-9))
    # generic bound: inf over h of n e^{-nh} + rho(h), compared in logs;
    # a few hundred grid points suffice for the fitted constant
    knots = hull_y[1:]
    if len(knots) > 64:
        knots = knots[:: len(knots) // 64]
    h_grid = np.unique(
        np.concatenate([knots, np.geomspace(max(hull_y[1], 1e-12), hull_y[-1], 200)])
    )
    log_rho = -h_grid / np.maximum(calc.psi(h_grid), 1e-300)
    log_terms = np.logaddexp(
        np.log(ns)[:, None] - np.outer(ns, h_grid), log_rho[None, :]
    )
    log_inf = log_terms.min(axis=1)
    log_C = float(np.max(log_inf + ns * eps))
    passed = chain_ok and domination <= 1e-12 and concave <= 1e-12
    report = Report(
        name="bound-calculus",
        passed=bool(passed),
        details={
            "n_range": (n_lo, n_hi),
            "majorant_domination_slack": domination,
            "concavity_second_difference": concave,
            "chain_max_log_slack": float(chain_slack.max()),
            "chain_holds_everywhere": chain_ok,
            "generic_bound_constant": math.exp(min(log_C, 700.0)),
            "rho_increasing": bool(
                np.all(np.diff(calc.rho(np.linspace(hull_y[1], hull_y[-1], 256))) >= -1e-15)
            ),
        },
    )
    return calc, report
