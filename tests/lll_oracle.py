"""Classical Gram-Schmidt LLL: the oracle for `numberfield._lll_transform`.

The same float LLL (Lenstra, Lenstra and Lovász, *Math. Ann.* 1982) with
delta = 0.99, but with the whole Gram-Schmidt basis and mu recomputed by
explicit dot products after every size-reduction step and every swap.
The library keeps mu up to date in place and refreshes it from one QR per
swap; the tests require the same U from both.
"""

from __future__ import annotations

import numpy as np


def gso(M):
    """(Q, mu): the Gram-Schmidt vectors of the columns of M, and mu."""
    n = M.shape[1]
    Q = np.zeros_like(M)
    mu = np.zeros((n, n))
    for i in range(n):
        v = M[:, i].copy()
        for j in range(i):
            denom = Q[:, j] @ Q[:, j]
            mu[i, j] = (M[:, i] @ Q[:, j]) / denom
            v -= mu[i, j] * Q[:, j]
        Q[:, i] = v
    return Q, mu


def lll_transform(B: np.ndarray, delta: float = 0.99) -> np.ndarray:
    """Integer U whose column operations LLL-reduce the columns of B."""
    n = B.shape[1]
    W = B.astype(float).copy()
    U = np.eye(n, dtype=np.int64)
    Q, mu = gso(W)
    k, steps = 1, 0
    while k < n and steps < 10000:
        steps += 1
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                W[:, k] -= q * W[:, j]
                U[:, k] -= q * U[:, j]
                Q, mu = gso(W)
        if Q[:, k] @ Q[:, k] >= (delta - mu[k, k - 1] ** 2) * (Q[:, k - 1] @ Q[:, k - 1]):
            k += 1
        else:
            W[:, [k - 1, k]] = W[:, [k, k - 1]]
            U[:, [k - 1, k]] = U[:, [k, k - 1]]
            Q, mu = gso(W)
            k = max(k - 1, 1)
    return U
