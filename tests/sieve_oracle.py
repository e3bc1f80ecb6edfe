"""The per-prime Euler-factor sieve: the oracle for `dirichlet_coeffs`.

Every prime p <= N, however large, multiplies in its whole local factor,
the product over its prime ideals of (1 - x^f)^(-1) truncated at p^v <= N,
with one slice update per power.  The library runs that loop only for
p <= sqrt(N) and spreads every larger prime with one scatter; the tests
require the two arrays to be equal.  The splitting types come from the
library's batched Frobenius reading, which the tests check against
distinct-degree factorization prime by prime (`ddf_oracle`).
"""

from __future__ import annotations

import numpy as np

from nfbounds.numberfield import NumberField
from nfbounds.zeta import SplittingType, _primes_upto, _splitting_counts, _type_of


def splitting_types(field: NumberField, primes) -> list[SplittingType]:
    """The splitting type of every prime in ``primes``, read chunk by chunk."""
    return [_type_of(p, column, field.degree)
            for chunk, counts in _splitting_counts(field, np.asarray(primes))
            for p, column in zip(chunk.tolist(), counts.T)]


def euler_sieve(field: NumberField, N: int) -> np.ndarray:
    """a_0..a_N (a_0 = 0), one Euler factor per prime p <= N."""
    a = np.zeros(N + 1, dtype=np.int64)
    a[1] = 1
    for st in splitting_types(field, _primes_upto(N)):
        p, degs = st.p, st.factor_degrees
        if p ** min(degs) > N:
            continue
        vmax, pv = 0, 1
        while pv * p <= N:
            pv *= p
            vmax += 1
        # coefficients of prod_i (1 - x^{f_i})^{-1} up to x^vmax
        local = [0] * (vmax + 1)
        local[0] = 1
        for f_i in degs:
            if f_i > vmax:
                continue
            for v in range(f_i, vmax + 1):
                local[v] += local[v - f_i]
        base = a[: N // p + 1].copy()
        for v in range(1, vmax + 1):
            if local[v]:
                pv = p ** v
                a[pv::pv] += local[v] * base[1 : N // pv + 1]
    return a
