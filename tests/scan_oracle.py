"""Recursive depth-first box scan: the enumeration oracle.

One coordinate per recursion level, in the LLL-reduced system.  Level j
bounds its coordinate by the facets of the box's projection onto the
coordinates j..n-1, as `enumeration._scan_blocks` does, but derives them
on its own: each normal solves lambda·W[S, :j+1] = e_j exactly, in
rationals over W's float entries, by Gauss-Jordan elimination, and is then
rounded to float.  It is the per-point certification oracle: every
candidate of the innermost level passes the float prefilter and the
closed-box test on its own, and the float test's undecided candidates go
to 400-bit mpmath.  The library walks the same tree a chunk of prefixes
at a time and tests only the two ends of each innermost run, relying on
the convexity of the box for the points between; the tests compare the
two row sets and candidate counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from nfbounds.enumeration import BoxSpec
from nfbounds.errors import BoxTooLarge
from nfbounds.numberfield import _SCAN_PAD, NumberField, _lll_transform

# a normal past this 1-norm comes from a (nearly) singular subset, whose
# float facet would be noise: the library drops those by their float error
_MAX_NORMAL = 1e8


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


def _exact_normal(M):
    """lambda with lambda·M = e_last for a square matrix M of Fractions, by
    Gauss-Jordan elimination of [M^T | e_last]; None when M is singular."""
    k = len(M)
    rows = [[M[c][r] for c in range(k)] + [Fraction(r == k - 1)] for r in range(k)]
    for c in range(k):
        p = next((r for r in range(c, k) if rows[r][c] != 0), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


@functools.lru_cache(maxsize=None)
def _facets(field: NumberField):
    """(W, per level j a list of (S, lambda, h)): |x_j + lambda·p_S| <= R·h
    for every box point x, p the partial embeddings of the decided
    coordinates, and h holding the rounded normal's exact residual at the
    box's coordinate bounds."""
    V = field.embedding_matrix
    W = V @ _lll_transform(V)
    n = len(W)
    b = np.abs(np.linalg.inv(W)).sum(axis=1)
    Wq = [[Fraction(v) for v in row] for row in W]
    levels = []
    for j in range(n):
        level = []
        for S in itertools.combinations(range(n), j + 1):
            lam = _exact_normal([Wq[i][:j + 1] for i in S])
            if lam is None or sum(abs(v) for v in lam) > _MAX_NORMAL:
                continue
            lam = [float(v) for v in lam]
            resid = [abs(sum(Fraction(v) * Wq[i][k] for v, i in zip(lam, S)) - (k == j))
                     for k in range(j + 1)]
            h = sum(abs(v) for v in lam) + float(sum(r * Fraction(bk) for r, bk in zip(resid, b)))
            level.append((list(S), np.array(lam), h))
        levels.append(level)
    return W, levels


def dfs_scan(field: NumberField, box: BoxSpec, budget: int = 10 ** 12):
    """(rows, examined): every accepted coordinate row in scan order, and
    the number of candidates the scan examined."""
    n = field.degree
    V = field.embedding_matrix
    U = _lll_transform(V)
    W, facets = _facets(field)
    Rt = box.R + box.boundary_tolerance
    pad = _SCAN_PAD * max(1.0, Rt)

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
        lo, hi = -math.inf, math.inf
        for S, lam, h in facets[j]:
            offset = float(lam @ partial[S])
            lo = max(lo, -offset - Rt * h)
            hi = min(hi, -offset + Rt * h)
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
