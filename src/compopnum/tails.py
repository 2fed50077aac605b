"""A proved column tail for symbols whose image is not a known base.

With n_phi(w) the number of preimages of w, the change of variables
||phi^k||_D^2 = (k^2/pi) int_{phi(D)} |w|^(2k-2) n_phi(w) dA(w) and
phi(D) in s D, s >= sup |phi|, give ||phi^k||_D^2 <= m k s^(2k) for any
m >= n_phi, and summed over k >= n the column tail
tau_n^2 = sum_{k >= n} ||phi^k||_D^2 / k <= m s^(2n) / (1 - s^2).
"""

from __future__ import annotations

import math

from . import geometry
from .symbols import AffineMap, SymbolMap

__all__ = ["column_tail_majorant"]


def column_tail_majorant(s: SymbolMap, n: int) -> float:
    """Upper bound on tau_n = sqrt(sum_{k >= n} ||phi^k||_D^2 / k) from the
    sup norm: sqrt(m) times the disk closed form of s z, with s = `sup_bound`,
    m = 1 for a univalent phi and m = d for a polynomial of degree d (valence
    at most m).

    0 when m = 0 (a constant); infinite when m is unknown or the bound is
    >= 1, where no decay is proved.
    """
    m = 1 if s.is_univalent else s.degree
    if m == 0:
        return 0.0
    sup = s.sup_bound
    if m is None or sup >= 1.0:
        return math.inf
    return math.sqrt(m) * geometry.image_of(AffineMap(sup)).column_tail(n)
