"""Singular values from a Gram matrix, by a diagonally pivoted Cholesky factor.

For a semidefinite G = A^T A, `gram_singular_values(G)` factors G ~ L L^T
with diagonal pivoting (Higham, "Analysis of the Cholesky decomposition of
a semi-definite matrix", 1990) until the residual diagonal sums to at most
eps trace G, and returns the singular values of L.  S = G - L L^T is
semidefinite, so by Weyl lam_n(L L^T) <= lam_n(G) <= lam_n(L L^T) + trace S:
each squared value is a lower end of lam_n(G), within eps trace G of it.

The factor lives apart from `geometry`, the largest module: importing the
package from source compiles each module in turn, and the largest one sets
the memory that compile leaves resident in every command.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gram_singular_values"]

_COLUMNS = 128  # columns of L allocated at a time


def gram_singular_values(G: np.ndarray) -> np.ndarray:
    """sqrt(lam_n(G)), n = 1..N, decreasing, for a semidefinite N x N G
    given by its upper triangle (column p of G is G[:p, p], G[p, p:]).

    The residual diagonal is clamped at 0, and past the factor's rank the
    values are exact zeros.
    """
    N = G.shape[0]
    d = G.diagonal().copy()  # diag(G - L L^T)
    stop = np.finfo(float).eps * d.sum()
    L = np.empty((N, _COLUMNS))
    k = 0
    while k < N and d.sum() > stop:
        if k == L.shape[1]:
            L = np.hstack((L, np.empty((N, _COLUMNS))))
        p = int(np.argmax(d))
        col = L[:, k]
        col[:p], col[p:] = G[:p, p], G[p, p:]
        col -= L[:, :k] @ L[p, :k]
        col /= math.sqrt(d[p])
        d -= col * col
        np.maximum(d, 0.0, out=d)
        d[p] = 0.0  # 0 in exact arithmetic: p is never a pivot again
        k += 1
    values = np.zeros(N)
    values[:k] = np.linalg.svd(L[:, :k], compute_uv=False)
    return values
