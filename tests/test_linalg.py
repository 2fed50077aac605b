import numpy as np
import pytest

from compopnum.linalg import gram_singular_values


def _gram(n, rank, seed):
    """A^T A for a seeded Gaussian rank x n matrix A."""
    A = np.random.default_rng(seed).standard_normal((rank, n))
    return A.T @ A


@pytest.mark.parametrize("rank", [1, 127, 128, 129, 200])
def test_gram_values_match_the_dense_eigensolver(rank):
    # ranks past 128 grow the factor's columns; only the upper triangle is read
    G = _gram(300, rank, seed=rank)
    lam = np.linalg.eigvalsh(G)[::-1]
    values = gram_singular_values(np.triu(G))
    assert values[:rank] == pytest.approx(np.sqrt(lam[:rank]), rel=1e-12, abs=0.0)
    assert np.all(values[rank:] ** 2 <= G.shape[0] * np.finfo(float).eps * lam[0])
