"""Tail extrapolation for positive decaying sequences.

For symbols without a known image base, the Hilbert-Schmidt truncation
certificates and the degree-tail error bounds need sums of the form
sum_{j > J} t_j where only t_1..t_J are computed.  The last octave is fit
to a geometric and to a power-law model in log space; the better model
supplies a closed-form remainder.  A fit that does not show summable
decay gives an infinite remainder, never silent optimism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TailFit", "tail_remainder"]

_MIN_TERMS = 8  # shortest sequence whose last octave can be fitted


@dataclass(frozen=True)
class TailFit:
    model: str  # "geometric" | "power" | "zero" | "divergent"
    remainder: float
    rmse: float


def tail_remainder(t: np.ndarray) -> TailFit:
    """Estimate sum_{j > J} t_j from t = (t_1 ... t_J), t_j >= 0.

    Fits the last octave.  Returns TailFit with remainder = math.inf and
    model = "divergent" when the sequence does not decay summably, has an
    infinite term or is too short to fit (under `_MIN_TERMS` terms): mass
    that cannot be bounded counts as infinite.
    """
    t = np.asarray(t, dtype=float)
    J = len(t)
    if J < _MIN_TERMS or np.isinf(t).any():
        return TailFit("divergent", math.inf, 0.0)
    octave = t[J // 2 :]
    js = np.arange(J // 2 + 1, J + 1, dtype=float)
    if np.all(t[-max(2, J // 8) :] == 0.0):
        # the sequence has died (e.g. polynomial symbols): nothing beyond
        return TailFit("zero", 0.0, 0.0)
    if np.any(octave <= 0.0):
        # scattered zeros prevent a log fit; bound crudely by the octave max
        pos = octave[octave > 0.0]
        return TailFit("mixed", float(pos.max()) * J, 0.0)
    y = np.log(octave)
    # geometric: y ~ a + b j     power law: y ~ a + g log j
    bg, ag = np.polyfit(js, y, 1)
    rg = math.sqrt(float(np.mean((ag + bg * js - y) ** 2)))
    gp, ap = np.polyfit(np.log(js), y, 1)
    rp = math.sqrt(float(np.mean((ap + gp * np.log(js) - y) ** 2)))
    tJ = float(octave[-1])
    if rg <= rp:
        if bg < -1e-12:
            q = math.exp(bg)
            return TailFit("geometric", tJ * q / (1.0 - q), rg)
    else:
        if gp < -1.0 - 1e-9:
            return TailFit("power", tJ * J / (-gp - 1.0), rp)
    # fall through: chosen model does not decay summably
    return TailFit("divergent", math.inf, min(rg, rp))
