import math

import numpy as np
import pytest

from compopnum.tails import tail_remainder


def test_geometric_tail_exact():
    q = 0.25
    t = q ** np.arange(1, 33)
    fit = tail_remainder(t)
    assert fit.model == "geometric"
    exact = q**33 / (1 - q)
    assert fit.remainder == pytest.approx(exact, rel=1e-6)


def test_power_tail_reasonable():
    t = np.arange(1.0, 65.0) ** -2.5
    fit = tail_remainder(t)
    assert fit.model == "power"
    exact = sum(k**-2.5 for k in range(65, 100_000))
    assert fit.remainder == pytest.approx(exact, rel=0.2)


def test_dead_sequence():
    t = np.concatenate([np.ones(4), np.zeros(12)])
    assert tail_remainder(t).remainder == 0.0


def test_divergent_flagged():
    t = np.ones(32)
    assert math.isinf(tail_remainder(t).remainder)


def test_infinite_term_is_divergent_without_a_fit():
    # log(inf) would leave the fit's rmse nan; an infinite term is unbounded mass
    t = np.concatenate([0.5 ** np.arange(1, 16), [math.inf]])
    fit = tail_remainder(t)
    assert fit.model == "divergent"
    assert math.isinf(fit.remainder)
    assert fit.rmse == 0.0


def test_too_short():
    # a row too short to fit is mass that cannot be bounded: infinite
    fit = tail_remainder(np.ones(4))
    assert fit.model == "divergent"
    assert math.isinf(fit.remainder)
