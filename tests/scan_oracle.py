"""Recursive depth-first box scan: the enumeration oracle.

One coordinate per recursion level, in the LLL-reduced system, with the
same interval propagation and margins as `enumeration._scan_blocks`.  It
is the per-point certification oracle: every candidate of the innermost
level passes the float prefilter and the closed-box test on its own, and
the float test's undecided candidates go to 400-bit mpmath.  The library
walks the same tree a chunk of prefixes at a time and tests only the two
ends of each innermost run, relying on the convexity of the box for the
points between; the tests compare the two row sets and candidate counts.
"""

from __future__ import annotations

import functools
import math

import mpmath
import numpy as np

from nfbounds.enumeration import _FLOAT_MARGIN, BoxSpec
from nfbounds.errors import BoxTooLarge
from nfbounds.numberfield import NumberField, _lll_transform


@functools.lru_cache(maxsize=None)
def _mp_roots(coeffs):
    """The real roots of the polynomial at 400 bits, ascending, by mpmath."""
    with mpmath.workprec(400):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=400)
        return sorted(mpmath.re(r) for r in roots)


def mp_inside(field: NumberField, coords, bound: float) -> bool:
    """|sigma_i(x)| <= bound for every i, in 400-bit mpmath: the library
    decides the same in integers (`NumberField.enclose`).  A rational
    integer x is summed exactly; mpf-float comparisons are exact."""
    with mpmath.workprec(400):
        return all(-bound <= mpmath.fsum(int(c) * r ** j for j, c in enumerate(coords)) <= bound
                   for r in _mp_roots(field.min_poly.coeffs))


def dfs_scan(field: NumberField, box: BoxSpec, budget: int = 10 ** 12):
    """(rows, examined): every accepted coordinate row in scan order, and
    the number of candidates the scan examined."""
    n = field.degree
    V = field.embedding_matrix
    U = _lll_transform(V)
    W = V @ U
    Rt = box.R + box.boundary_tolerance
    bounds = (Rt) * np.abs(np.linalg.inv(W)).sum(axis=1)
    pad = _FLOAT_MARGIN * max(1.0, box.R) * 100
    # rem[j][i] = max contribution of coords < j to embedding i
    rem = np.zeros((n + 1, n))
    for j in range(1, n + 1):
        rem[j] = rem[j - 1] + np.abs(W[:, j - 1]) * bounds[j - 1]

    examined = 0
    cprime = np.zeros(n, dtype=np.int64)
    Ut = U.T.copy()

    # uncertainty of the float membership test, per unit coordinate mass
    absV = np.abs(V)

    def certify(rows: np.ndarray) -> np.ndarray:
        """Exact closed-box filter on power-basis coordinate rows."""
        if not len(rows):
            return rows
        Y = rows.astype(float) @ V.T
        unc = rows.astype(float) @ absV.T * 1e-14 + 1e-300
        absy = np.abs(Y)
        clear_in = np.all(absy <= Rt - np.abs(unc), axis=1)
        clear_out = np.any(absy > Rt + np.abs(unc), axis=1)
        keep = clear_in.copy()
        for idx in np.flatnonzero(~clear_in & ~clear_out):
            keep[idx] = mp_inside(field, rows[idx], Rt)
        return rows[keep]

    def descend(j: int, partial: np.ndarray):
        nonlocal examined
        lo, hi = -bounds[j] - pad, bounds[j] + pad
        for i in range(n):
            wij = W[i, j]
            if wij > 1e-14:
                lo = max(lo, (-Rt - partial[i] - rem[j, i]) / wij)
                hi = min(hi, (Rt - partial[i] + rem[j, i]) / wij)
            elif wij < -1e-14:
                lo = max(lo, (Rt - partial[i] + rem[j, i]) / wij)
                hi = min(hi, (-Rt - partial[i] - rem[j, i]) / wij)
        c_lo = math.ceil(lo - pad)
        c_hi = math.floor(hi + pad)
        if c_hi < c_lo:
            return
        examined += c_hi - c_lo + 1
        if examined > budget:
            raise BoxTooLarge(
                f"candidate budget {budget} exceeded at radius {box.R}; "
                "raise the budget or shrink the box"
            )
        if j == 0:
            cs = np.arange(c_lo, c_hi + 1, dtype=np.int64)
            Y = partial[None, :] + np.outer(cs.astype(float), W[:, 0])
            mask = np.all(np.abs(Y) <= Rt + pad, axis=1)
            cs = cs[mask]
            if not len(cs):
                return
            block = np.empty((len(cs), n), dtype=np.int64)
            block[:] = cprime[None, :]
            block[:, 0] = cs
            rows = block @ Ut
            rows = rows[np.any(rows != 0, axis=1)]
            rows = certify(rows)
            if len(rows):
                yield rows
        else:
            for c in range(c_lo, c_hi + 1):
                cprime[j] = c
                yield from descend(j - 1, partial + c * W[:, j])
            cprime[j] = 0

    blocks = list(descend(n - 1, np.zeros(n)))
    rows = np.concatenate(blocks) if blocks else np.empty((0, n), dtype=np.int64)
    return rows, examined
