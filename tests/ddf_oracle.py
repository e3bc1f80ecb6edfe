"""Distinct-degree factorization of f mod p: the splitting-type oracle.

Per prime, in pure-Python GF(p) arithmetic: the radical of f mod p by
repeated gcds with the derivative, then distinct-degree factorization
(gcd of x^(p^d) - x with the radical, one degree at a time).  The
library reads the same types from the Berlekamp matrix instead; the
tests compare the two prime by prime.  `_rank_mod_p` is the one-matrix
Gaussian elimination that the library's batched `_ranks_mod_p` replaces.
"""

from __future__ import annotations

from nfbounds.errors import InvariantError
from nfbounds.numberfield import NumberField
from nfbounds.zeta import SplittingType


def _rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a small integer matrix, by Gaussian elimination."""
    rows = [[int(v) % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(rank + 1, len(rows)):
            c = rows[i][col] * inv % p
            rows[i] = [(u - c * v) % p for u, v in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _gf_rem(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        q = a[-1] * inv % p
        if q:
            off = len(a) - 1 - db
            for j, bj in enumerate(b):
                a[off + j] = (a[off + j] - q * bj) % p
        a.pop()
        _trim(a)
    return a


def _gf_divexact(a, b, p):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv % p
        off = len(a) - 1 - db
        q[off] = c
        if c:
            for j, bj in enumerate(b):
                a[off + j] = (a[off + j] - c * bj) % p
        a.pop()
        _trim(a)
    return q


def _gf_monic(a, p):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _gf_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _gf_rem(a, b, p)
    return _gf_monic(a, p)


def _gf_deriv(a, p):
    return _trim([(i * c) % p for i, c in enumerate(a)][1:])


def _gf_radical(a, p):
    """Product of the distinct monic irreducible factors of a mod p."""
    a = _gf_monic(a, p)
    rad = [1]
    while len(a) > 1:
        da = _gf_deriv(a, p)
        if not da:
            # a = h(x^p) = h(x)^p over F_p: same distinct factors as h
            a = _trim([a[i] for i in range(0, len(a), p)])
            continue
        g = _gf_gcd(a, da, p)
        w = _gf_divexact(a, g, p)  # each factor with multiplicity prime to p, once
        fresh = _gf_divexact(w, _gf_gcd(rad, w, p), p)
        rad = _gf_mul(rad, fresh, p)
        while True:
            d = _gf_gcd(a, w, p)
            if len(d) <= 1:
                break
            a = _gf_divexact(a, d, p)
    return rad


def _gf_pow_mod(a, e, m, p):
    r = [1]
    a = _gf_rem(list(a), m, p)
    while e:
        if e & 1:
            r = _gf_rem(_gf_mul(r, a, p), m, p)
        e >>= 1
        if e:
            a = _gf_rem(_gf_mul(a, a, p), m, p)
    return r


def _distinct_degrees(sqf, p):
    """Degrees (with repetition) of irreducible factors of a squarefree poly."""
    degs = []
    v = list(sqf)
    h = _gf_rem([0, 1], v, p)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _gf_pow_mod(h, p, v, p)
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = _gf_gcd(_trim(diff), v, p)
        if len(g) > 1:
            degs += [d] * ((len(g) - 1) // d)
            v = _gf_divexact(v, g, p)
            if len(v) > 1:
                h = _gf_rem(h, v, p)
    if len(v) > 1:
        degs.append(len(v) - 1)
    return sorted(degs)


def _ddf_type(field: NumberField, p: int) -> SplittingType:
    """Splitting type by distinct-degree factorization of the radical of f mod p."""
    fp = [c % p for c in field.min_poly.coeffs]
    rad = _gf_radical(fp, p)
    ramified = (len(rad) - 1) < field.degree
    degs = tuple(_distinct_degrees(rad, p))
    if not ramified and sum(degs) != field.degree:
        raise InvariantError(f"factor degrees {degs} of an unramified prime {p} "
                             f"do not sum to the degree {field.degree}")
    return SplittingType(p, degs, ramified)
