"""Ideal-count Dirichlet coefficients and zeta-style sums.

Coefficients a_k (number of integral ideals of norm k) are produced from
the splitting type of each prime, the degrees of the distinct irreducible
factors of the minimal polynomial f mod p, by expanding the local Euler
factors through a sieve.  Full factorization is never performed.  For an
unramified prime p > n the type follows from the traces of the powers of
the Berlekamp (Frobenius) matrix, computed for many primes at once in
int64; every other prime gets a distinct-degree factorization of the
radical of f mod p.

Evaluations of the zeta function, its derivatives, and the bounded-height
variant are finite partial sums with a doubling-based tail estimate
attached.  The caller decides how much tail risk to accept; a hard floor
of N >= 10^4 is enforced for s = 2, where convergence is slowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _memo
from .errors import CutoffTooSmall, InvariantError, NotPrime, ValidationError
from .numberfield import NumberField

_HARD_FLOOR_S2 = 10 ** 4
# primes per batched Frobenius pass; bounds the kernel's arrays for any cutoff
_CHUNK = 4096

# ---------------------------------------------------------------------------
# arithmetic mod p on dense coefficient lists (ascending, small degree)


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# splitting types and Dirichlet coefficients


@dataclass(frozen=True)
class SplittingType:
    """Residue degrees of the distinct prime ideals above p."""

    p: int
    factor_degrees: tuple[int, ...]
    ramified: bool


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


def _fits_int64(n: int, p: int) -> bool:
    """Whether n-term sums of products of residues mod p stay below 2^63."""
    return n * (p - 1) ** 2 < 2 ** 63


def _mulmod(a, b, red, p):
    """a * b mod (f, p) for a batch of residue vectors of shape (B, n).

    red[:, k] holds x^(n+k) mod (f, p).  With every input in [0, p), each
    sum below has at most n products below p^2, which _fits_int64 bounds.
    """
    n = a.shape[1]
    prod = np.zeros((a.shape[0], 2 * n - 1), dtype=np.int64)
    for i in range(n):
        prod[:, i : i + n] += a[:, i : i + 1] * b
    prod %= p
    out = prod[:, :n]
    for k in range(n - 1):
        out += prod[:, n + k : n + k + 1] * red[:, k]
    return out % p


def _frobenius_traces(coeffs, primes) -> np.ndarray:
    """trace(Q^m) mod p for m = 1..n, one row per prime.

    Q is the Berlekamp matrix of f mod p, whose row i is x^(p*i) mod (f, p):
    the matrix of the Frobenius map of F_p[x]/(f).
    """
    n = len(coeffs) - 1
    # re-checked here, not trusted to the caller: outside this range the
    # traces are inexact or the int64 sums wrap
    if min(primes) <= n or n * (max(primes) - 1) ** 2 >= 2 ** 63:
        raise InvariantError(f"primes outside the exact int64 range for degree {n}")
    p = np.array(primes, dtype=np.int64)[:, None]
    batch = len(primes)
    red = np.zeros((batch, n - 1, n), dtype=np.int64)
    red[:, 0] = np.array([[-c % q for c in coeffs[:-1]] for q in primes], dtype=np.int64)
    for k in range(1, n - 1):
        red[:, k, 1:] = red[:, k - 1, :-1]
        red[:, k] = (red[:, k] + red[:, k - 1, -1:] * red[:, 0]) % p
    x = np.zeros((batch, n), dtype=np.int64)
    x[:, 1] = 1
    xp = np.zeros((batch, n), dtype=np.int64)
    xp[:, 0] = 1
    for bit in range(max(primes).bit_length() - 1, -1, -1):
        xp = _mulmod(xp, xp, red, p)
        odd = (p >> bit) & 1 == 1
        xp = np.where(odd, _mulmod(xp, x, red, p), xp)
    q = np.zeros((batch, n, n), dtype=np.int64)
    q[:, 0, 0] = 1
    q[:, 1] = xp
    for i in range(2, n):
        q[:, i] = _mulmod(q[:, i - 1], xp, red, p)
    traces = np.empty((batch, n), dtype=np.int64)
    power = q
    for m in range(n):
        if m:
            power = np.matmul(power, q) % p[:, :, None]
        traces[:, m] = np.trace(power, axis1=1, axis2=2) % p[:, 0]
    return traces


def _frobenius_types(coeffs, primes) -> list[tuple[int, ...]]:
    """Factor degrees of f mod p for unramified primes n < p with _fits_int64.

    trace(Q^m) = sum over d | m of d * r_d, with r_d the number of degree-d
    factors, holds mod p; it is exact because sum(d * r_d) = n < p, so
    Moebius inversion, solved for r_m one m at a time, recovers every r_d.
    """
    n = len(coeffs) - 1
    traces = _frobenius_traces(coeffs, primes)
    counts = np.zeros_like(traces)
    for m in range(1, n + 1):
        rest = traces[:, m - 1] - sum(d * counts[:, d - 1] for d in range(1, m) if m % d == 0)
        if np.any(rest % m):
            raise InvariantError("Frobenius traces do not invert to whole factor counts")
        counts[:, m - 1] = rest // m
    if np.any(counts < 0) or np.any(counts @ np.arange(1, n + 1) != n):
        raise InvariantError(f"Frobenius factor degrees do not sum to the degree {n}")
    types: dict[tuple, tuple[int, ...]] = {}
    out = []
    for row in map(tuple, counts.tolist()):
        if row not in types:
            types[row] = tuple(d for d, r in enumerate(row, 1) for _ in range(r))
        out.append(types[row])
    return out


def _splitting_types(field: NumberField, primes):
    """Yield the splitting type of each prime in ``primes``, in order.

    Unramified primes p > n (p not dividing disc(f)) with _fits_int64 are
    done _CHUNK at a time from Frobenius traces; the rest go through
    distinct-degree factorization of the radical, one prime at a time.
    """
    n = field.degree
    disc = field.poly_discriminant
    for start in range(0, len(primes), _CHUNK):
        chunk = primes[start : start + _CHUNK]
        batch = [p for p in chunk if p > n and disc % p and _fits_int64(n, p)]
        fast = {}
        if batch:
            fast = dict(zip(batch, _frobenius_types(field.min_poly.coeffs, batch)))
        for p in chunk:
            yield SplittingType(p, fast[p], False) if p in fast else _ddf_type(field, p)


def splitting_type(field: NumberField, p: int) -> SplittingType:
    """Factor-degree multiset of min_poly mod p (one entry per prime ideal)."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return next(_splitting_types(field, [p]))


@dataclass(frozen=True)
class ZetaSeries:
    """Dirichlet coefficients a_1..a_N of the field's ideal-count series."""

    field: NumberField
    cutoff: int
    a: np.ndarray  # int64, a[0] unused

    def coefficient(self, k: int) -> int:
        if not 1 <= k <= self.cutoff:
            raise ValidationError(f"k = {k} outside 1..{self.cutoff}")
        return int(self.a[k])


def _primes_upto(N: int) -> np.ndarray:
    sieve = np.ones(N + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(N) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve)


def dirichlet_coeffs(field: NumberField, N: int) -> ZetaSeries:
    """Ideal counts a_k for k <= N via local Euler factors and a sieve.

    The memo keeps one array per polynomial, which serves every smaller
    cutoff by slicing; the coefficients do not depend on the precision."""
    if N < 1:
        raise ValidationError("cutoff must be >= 1")
    key = ("series", field.min_poly.coeffs)
    cached = _memo.get(key)
    if cached is not None and len(cached) > N:
        return ZetaSeries(field, N, cached[: N + 1])
    a = np.zeros(N + 1, dtype=np.int64)
    a[1] = 1
    if N >= 2:
        for st in _splitting_types(field, _primes_upto(N).tolist()):
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
    return ZetaSeries(field, N, _memo.put(key, a))


# ---------------------------------------------------------------------------
# evaluations


@dataclass(frozen=True)
class SeriesValue:
    """A partial sum together with a doubling-based tail estimate."""

    value: float
    tail_estimate: float
    cutoff: int

    def __float__(self):
        return self.value


def zeta_value(series: ZetaSeries, s: int, tolerance: float | None = None) -> SeriesValue:
    """Partial sum of the ideal-count Dirichlet series at integer s >= 2."""
    return zeta_derivative(series, 0, s, tolerance)


def zeta_derivative(series: ZetaSeries, m: int, s: int,
                    tolerance: float | None = None) -> SeriesValue:
    """m-th derivative of the series in s: (-1)^m sum a_k (log k)^m / k^s.

    The value itself (m = 0) at s = 2 converges slowest and needs a cutoff
    of at least 10^4."""
    if m < 0:
        raise ValidationError("derivative order must be >= 0")
    if s < 2:
        raise ValidationError("evaluation requires integer s >= 2")
    if m == 0 and s == 2 and series.cutoff < _HARD_FLOOR_S2:
        raise CutoffTooSmall(
            f"s = 2 requires cutoff >= {_HARD_FLOOR_S2}, got {series.cutoff}"
        )
    N = series.cutoff
    ks = np.arange(1, N + 1, dtype=float)
    terms = series.a[1:].astype(float) * np.log(ks) ** m / ks ** s
    total = float(terms.sum())
    half = float(terms[: N // 2].sum())
    tail = abs(total - half)
    if tolerance is not None and tail > tolerance:
        raise CutoffTooSmall(
            f"tail estimate {tail:.3e} exceeds tolerance {tolerance:.3e} at cutoff {N}"
        )
    sign = -1.0 if m % 2 else 1.0
    return SeriesValue(sign * total, tail, N)


def bounded_height_zeta(field: NumberField, unit_system, s: int, m: float) -> float:
    """Sum of 1/N(I)^s over principal ideals whose minimal-height generator
    has height <= m (class-number-one fields).

    Every generator of height <= m lies in the box of radius m, so grouping
    the box into unit orbits recovers exactly the ideals of height <= m.  The
    box is closed up to its boundary tolerance, so an m just below 1 already
    counts the unit ideal.  The orbits need no unit basis, so ``unit_system``
    is not read.
    """
    if s < 2:
        raise ValidationError("evaluation requires integer s >= 2")
    if m <= 0:
        return 0.0
    from .enumeration import BoxSpec, cached_orbits

    orbits = cached_orbits(field, BoxSpec(float(m)))
    return float(sum(1.0 / orb.norm ** s for orb in orbits))
