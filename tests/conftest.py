import numpy as np
import pytest

from compopnum.geometry import BlaschkeProduct, _window_sup, unit_interval_dyadic_zeros
from compopnum.opmatrix import assemble, singular_spectrum
from compopnum.symbols import CuspMap


@pytest.fixture(scope="session")
def cusp_spectra():
    """Cusp spectra at the two headline truncation sizes (shared: ~8s)."""
    out = {}
    for N in (512, 1024):
        m = assemble(CuspMap(), N)
        out[N] = (m, singular_spectrum(m))
    return out


@pytest.fixture(scope="session")
def blaschke_certificates():
    """Blaschke certificates with ten dyadic zeros held fixed at powers
    r = 4, 6, 8, 10, so only the power varies (shared).  Same sup over the
    default window grid as `blaschke_certificate`, whose zero count is r."""
    zeros = unit_interval_dyadic_zeros(10)
    return [_window_sup(BlaschkeProduct(zeros, power=r)) for r in (4, 6, 8, 10)]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
