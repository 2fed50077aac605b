import numpy as np
import pytest

from compopnum.geometry import blaschke_certificate
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
    """Blaschke certificates with ten zeros at powers r = 4, 6, 8, 10 (shared)."""
    return [blaschke_certificate(r, n_zeros=10) for r in (4, 6, 8, 10)]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
