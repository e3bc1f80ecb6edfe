"""The LLL-reduced basis: pinned on the fixtures, and checked against the
classical Gram-Schmidt LLL of `lll_oracle` on random integer bases."""

from __future__ import annotations

import numpy as np
import pytest

from bareiss_oracle import bareiss
from lll_oracle import gso, lll_transform as oracle_lll
from nfbounds.numberfield import _lll_transform

# (U, U^-1) of each fixture's `reduced_basis` U, as the classical LLL found
# them; U^-1 is kept as data to check U·U^-1 = I exactly
PINNED = {
    "q5": ([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
    "quartic": ([[1, 1, 0, -2], [0, -2, 1, -1], [0, -1, 0, 1], [0, 1, 0, 0]],
                [[1, 0, 2, 1], [0, 0, 0, 1], [0, 1, 1, 3], [0, 0, 1, 1]]),
    "octic": ([[1, 0, -2, 0, 2, 0, -2, 0], [0, 1, 0, -3, 0, 5, 0, -7],
               [0, 0, 1, 0, -4, 0, 9, 0], [0, 0, 0, 1, 0, -5, 0, 14],
               [0, 0, 0, 0, 1, 0, -6, 0], [0, 0, 0, 0, 0, 1, 0, -7],
               [0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]],
              [[1, 0, 2, 0, 6, 0, 20, 0], [0, 1, 0, 3, 0, 10, 0, 35],
               [0, 0, 1, 0, 4, 0, 15, 0], [0, 0, 0, 1, 0, 5, 0, 21],
               [0, 0, 0, 0, 1, 0, 6, 0], [0, 0, 0, 0, 0, 1, 0, 7],
               [0, 0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1]]),
}


def assert_lll_reduced(B, U, delta=0.99):
    """U is unimodular and B·U is size-reduced and meets Lovász at delta."""
    assert abs(bareiss(U.tolist())[0]) == 1
    Q, mu = gso((B @ U).astype(float))
    norms = (Q * Q).sum(axis=0)
    n = len(norms)
    below = np.tril_indices(n, -1)
    assert np.all(np.abs(mu[below]) <= 0.5 + 1e-9)
    for k in range(1, n):
        assert norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1] * (1 - 1e-9)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reduced_basis_is_pinned(name, request):
    """The scan's coordinates and `examined` counts are read in this basis."""
    field = request.getfixturevalue(name)
    U, U_inv = field.reduced_basis, np.array(PINNED[name][1])
    assert U.tolist() == PINNED[name][0]
    assert np.array_equal(U @ U_inv, np.eye(field.degree, dtype=np.int64))
    V = field.embedding_matrix
    assert np.array_equal(_lll_transform(V), oracle_lll(V))
    assert_lll_reduced(V, U)


def random_bases(entries: int, count: int, seed: int):
    """count nonsingular integer bases per degree n = 2..8, entries in
    [-entries, entries]."""
    rng = np.random.default_rng(seed)
    for n in range(2, 9):
        made = 0
        while made < count:
            B = rng.integers(-entries, entries + 1, size=(n, n))
            if bareiss(B.tolist())[0]:
                made += 1
                yield B


def test_lll_matches_the_classical_oracle():
    """Entries up to 100: an exact tie mu = m + 1/2 is too rare to meet,
    and the two LLLs take the same steps to the same U."""
    for B in random_bases(100, 30, seed=26):
        U = _lll_transform(B)
        assert np.array_equal(U, oracle_lll(B)), B.tolist()
        assert_lll_reduced(B, U)


def test_lll_reduces_bases_with_exact_ties():
    """Entries up to 3 often give mu = m + 1/2 exactly past column 0.
    There each LLL rounds its own float reading of the tie (0.5 against
    0.5000000000000001, say), so U may differ from the oracle's; both
    results must still be LLL-reduced bases of the same lattice."""
    for B in random_bases(3, 30, seed=26):
        assert_lll_reduced(B, _lll_transform(B))
        assert_lll_reduced(B, oracle_lll(B))
