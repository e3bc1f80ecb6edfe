"""Ideal-count Dirichlet coefficients and zeta-style sums.

Coefficients a_k (number of integral ideals of norm k) are produced from
the splitting type of each prime, the degrees of the distinct irreducible
factors of the minimal polynomial f mod p, by expanding the local Euler
factors through a sieve.  Full factorization is never performed.  Every
type is read from the powers of the Berlekamp (Frobenius) matrix Q of f
mod p, built for a chunk of primes at once.  When p > n it is read from
the traces of Q^m, m = 1..n, which take the powers up to ceil(n/2) alone:
trace(Q^(a+b)) = sum_ij (Q^a)_ij (Q^b)_ji.  The few p <= n take every
power, and the ranks of all their Q^m - I over F_p come from one
elimination along the stack.  A chunk is held column-major, one column of
residues per prime, so every step of the square-and-multiply runs along
the primes; its "times x" step is a shift and one fold.  Entries are
int64 while no sum of residue products can wrap and Python integers past
that.  Only the primes up to sqrt(N) expand their Euler factors one at a
time; every larger prime enters by one array scatter.  A cold sieve to
N = 10^6 takes about 0.1 s for Q(sqrt 5), 0.25 s for the quartic and
1.0-1.2 s for the octic fixture, and the octic's to N = 1,000 about 4 ms
(2-vCPU VM, numpy 2.4).

Evaluations of the zeta function (the derivative of order 0) and its
derivatives are finite partial sums with a doubling-based tail estimate
attached; a hard floor of N >= 10^4 is enforced for the value at s = 2,
where convergence is slowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _memo
from .errors import (CutoffTooSmall, InvariantError, NotPrime, ResourceLimitError,
                     SieveTooLarge, ValidationError)
from .numberfield import NumberField

_HARD_FLOOR_S2 = 10 ** 4
# primes per batched Frobenius pass; bounds the kernel's arrays for any cutoff
_CHUNK = 4096
# most coefficients one sieve may hold: 2 GiB of int64, checked before allocating
_MAX_COEFFICIENTS = 2 ** 28

# strong-probable-prime bases, the first 13 primes: the test is exact below
# psi_13, which passes them all (Sorenson and Webster, *Math. Comp.* 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Proven below `_PSI_13`; past it ResourceLimitError, not a guess."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    if n >= _PSI_13:
        raise ResourceLimitError(f"primality is proven only below {_PSI_13}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
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


def _fits_int64(n: int, p: int) -> bool:
    """Whether n-term sums of products of residues mod p stay below 2^63."""
    return n * (p - 1) ** 2 < 2 ** 63


def _residues(c: int, p: np.ndarray) -> np.ndarray:
    """c mod each prime in p, exactly for any integer c."""
    if p.dtype == object or abs(c) < 2 ** 62:
        return c % p
    return np.array([c % q for q in p.tolist()], dtype=p.dtype)


def _mulmod(a, b, red, p):
    """a * b mod (f, p) for a batch of residue columns of shape (n, B).

    Row i holds the coefficients of x^i, one column per prime; red[k] holds
    x^(n+k) mod (f, p).  With every input in [0, p), each sum below has at
    most n products below p^2, which _fits_int64 bounds for int64 entries;
    object entries are Python integers and never wrap.
    """
    n = a.shape[0]
    prod = np.zeros((2 * n - 1, a.shape[1]), dtype=a.dtype)
    for i in range(n):
        prod[i : i + n] += a[i] * b
    prod %= p
    out = prod[:n]
    for k in range(n - 1):
        out += prod[n + k] * red[k]
    return out % p


def _times_x(a, red, p):
    """x * a mod (f, p) for residue columns of shape (n, B): a shift and one fold."""
    out = np.empty_like(a)
    out[0] = 0
    out[1:] = a[:-1]
    out += a[-1] * red[0]
    return out % p


def _berlekamp(coeffs, primes, dtype) -> np.ndarray:
    """The Berlekamp matrix Q of f mod p for each prime, shape (n, n, B).

    Q[i] holds x^(p*i) mod (f, p) as n rows of residues, one column per
    prime, so Q[:, :, b] is the matrix of the Frobenius map a -> a^p of
    F_p[x]/(f) acting on coefficient rows for the b-th prime.
    """
    n = len(coeffs) - 1
    top = int(np.max(primes))
    # re-checked here, not trusted to the caller: past the guard int64 sums wrap
    if dtype is not object and n * (top - 1) ** 2 >= 2 ** 63:
        raise InvariantError(f"primes past the int64 guard for degree {n}")
    p = np.array(primes, dtype=dtype)
    red = np.zeros((n - 1, n, len(p)), dtype=dtype)
    red[0] = [_residues(-c, p) for c in coeffs[:-1]]
    for k in range(1, n - 1):
        red[k] = _times_x(red[k - 1], red, p)
    xp = np.zeros((n, len(p)), dtype=dtype)
    xp[0] = 1
    for bit in range(top.bit_length() - 1, -1, -1):
        xp = _mulmod(xp, xp, red, p)
        xp = np.where((p >> bit) & 1 == 1, _times_x(xp, red, p), xp)
    q = np.zeros((n, n, len(p)), dtype=dtype)
    q[0, 0] = 1
    q[1] = xp
    for i in range(2, n):
        q[i] = _mulmod(q[i - 1], xp, red, p)
    return q


def _totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def _divisor_solve(values, weight):
    """x_m for m = 1..n from values[m-1] = sum over e | m of weight(e) * x_e.

    One row per m and one column per prime, solved one m at a time; a
    remainder means the readings belong to no factorization."""
    x = np.zeros_like(values)
    for m in range(1, len(values) + 1):
        rest = values[m - 1] - sum(weight(e) * x[e - 1] for e in range(1, m) if m % e == 0)
        if np.any(rest % weight(m)):
            raise InvariantError("Frobenius readings do not invert to whole factor counts")
        x[m - 1] = rest // weight(m)
    return x


def _ranks_mod_p(mats: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Rank over F_p[s] of each integer matrix mats[s], shape (S, n, n), by
    one Gaussian elimination along the whole stack.  Per column, every
    matrix takes its first nonzero entry at or below its own rank as the
    pivot, scales the pivot row by its inverse from a table of the
    inverses mod each prime, and clears the column below it.  The primes
    are small (p <= n in the sieve), so entries stay below p^2."""
    S, n, _ = mats.shape
    p = np.asarray(p, dtype=np.int64)
    a = np.asarray(mats, dtype=np.int64) % p[:, None, None]
    inverse = np.zeros((int(p.max(initial=1)) + 1,) * 2, dtype=np.int64)
    for q in set(p.tolist()):
        inverse[q, 1:q] = [pow(v, -1, q) for v in range(1, q)]
    stack, rows = np.arange(S), np.arange(n)
    rank = np.zeros(S, dtype=np.int64)
    for col in range(n):
        open_ = (a[:, :, col] != 0) & (rows >= rank[:, None])
        found = open_.any(axis=1)
        at = np.minimum(rank, n - 1)  # a full-rank matrix swaps its last row with itself
        pivot = np.where(found, open_.argmax(axis=1), at)
        a[stack, [at, pivot]] = a[stack, [pivot, at]]
        lead = a[stack, at] * inverse[p, a[stack, at, col]][:, None] % p[:, None]
        below = np.where(found[:, None] & (rows > rank[:, None]), a[:, :, col], 0)
        a = (a - below[:, :, None] * lead[:, None, :]) % p[:, None, None]
        rank += found
    return rank


def _factor_counts(coeffs, primes) -> np.ndarray:
    """r_d, the number of distinct degree-d factors of f mod p, shape (n, B):
    row d - 1 for d = 1..n, one column per prime.

    Both readings come from the powers of one Berlekamp matrix Q per prime.
    For p > n, trace(Q^m) = sum over d | m of d * r_d holds mod p even when
    f mod p has repeated factors (Frobenius maps m^i into m^(pi), inside
    m^(i+1), so nilpotents add nothing), and it is exact because the sum
    is at most n < p.  For p <= n, dim ker(Q^m - I) = sum over factors of
    gcd(d, m) = sum over e | m of phi(e) * g_e, with g_e the number of
    factors whose degree e divides, and r_d = g_d - sum over k >= 2 of r_kd.
    """
    n = len(coeffs) - 1
    dtype = np.int64 if _fits_int64(n, int(np.max(primes))) else object
    q = _berlekamp(coeffs, primes, dtype)
    p = np.array(primes, dtype=dtype)
    large = p > n
    small = np.flatnonzero(~large)
    # Q^1..Q^h, h = ceil(n/2): trace(Q^(h+b)) = sum_ij (Q^h)_ij (Q^b)_ji for b <= h
    h = (n + 1) // 2
    powers = [q]
    for _ in range(h - 1):
        powers.append(np.einsum("ikb,kjb->ijb", powers[-1], q) % p)
    traces = np.empty((n, len(p)), dtype=dtype)
    for m in range(1, n + 1):
        if m <= h:
            traces[m - 1] = np.trace(powers[m - 1]) % p
        else:  # each of the n inner sums has n products below p^2, reduced before the outer
            inner = np.einsum("ijb,jib->ib", powers[h - 1], powers[m - h - 1]) % p
            traces[m - 1] = inner.sum(axis=0) % p
    counts = np.zeros((n, len(p)), dtype=np.int64)
    counts[:, large] = _divisor_solve(traces[:, large], lambda e: e)
    if len(small):  # every Q^m - I of the primes p <= n, ranked in one stack
        stack = [power[:, :, small] for power in powers]
        for _ in range(n - h):
            stack.append(np.einsum("ikb,kjb->ijb", stack[-1], q[:, :, small]) % p[small])
        mats = np.stack(stack).transpose(0, 3, 1, 2) - np.eye(n, dtype=np.int64)
        ranks = _ranks_mod_p(mats.reshape(-1, n, n), np.tile(p[small], n))
        g = _divisor_solve(n - ranks.reshape(n, len(small)), _totient)
        for d in range(n, 0, -1):
            g[d - 1] -= g[2 * d - 1 :: d].sum(axis=0)
        counts[:, small] = g
    if np.any(counts < 0) or np.any(np.arange(1, n + 1) @ counts > n):
        raise InvariantError(f"Frobenius factor degrees sum past the degree {n}")
    return counts


def _type_of(p: int, counts, n: int) -> SplittingType:
    """The splitting type of p from its factor counts r_1..r_n."""
    degs = tuple(d for d, r in enumerate(counts.tolist(), 1) for _ in range(r))
    return SplittingType(int(p), degs, sum(degs) < n)


def _splitting_counts(field: NumberField, primes: np.ndarray):
    """Yield each chunk of _CHUNK primes with its factor counts, shape (n, B).

    Every prime is read from its Berlekamp matrix: in int64 while the
    chunk's largest prime passes _fits_int64, in Python integers past it.
    f mod p has a repeated factor exactly when p divides the polynomial
    discriminant, which cross-checks every prime.
    """
    n = field.degree
    disc = field.poly_discriminant
    for start in range(0, len(primes), _CHUNK):
        chunk = primes[start : start + _CHUNK]
        counts = _factor_counts(field.min_poly.coeffs, chunk)
        ramified = np.arange(1, n + 1) @ counts < n
        wrong = np.flatnonzero(ramified != (_residues(disc, chunk) == 0))
        if len(wrong):
            st = _type_of(chunk[wrong[0]], counts[:, wrong[0]], n)
            raise InvariantError(f"factor degrees {st.factor_degrees} mod {st.p} disagree "
                                 f"with the discriminant {disc}")
        yield chunk, counts


def splitting_type(field: NumberField, p: int) -> SplittingType:
    """Factor-degree multiset of min_poly mod p (one entry per prime ideal)."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    _, counts = next(_splitting_counts(field, np.array([p])))
    return _type_of(p, counts[:, 0], field.degree)


@dataclass(frozen=True)
class ZetaSeries:
    """Dirichlet coefficients a_1..a_N of the field's ideal-count series."""

    field: NumberField
    cutoff: int
    a: np.ndarray  # int64, a[0] unused


def _primes_upto(N: int) -> np.ndarray:
    sieve = np.ones(N + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(N) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve)


def _euler_factor(a: np.ndarray, p: int, counts) -> None:
    """Multiply the series a_0..a_N in place by the Euler factor of p, whose
    prime ideals number counts[d - 1] of residue degree d."""
    N = len(a) - 1
    vmax, pv = 0, 1
    while pv * p <= N:
        pv *= p
        vmax += 1
    # coefficients of prod over the prime ideals of (1 - x^d)^(-1) up to x^vmax
    local = [1] + [0] * vmax
    for d, r in enumerate(counts[:vmax], 1):
        for _ in range(r):
            for v in range(d, vmax + 1):
                local[v] += local[v - d]
    # x^v for v below the least residue degree has coefficient 0
    first = min(d for d, r in enumerate(counts, 1) if r)
    base = a[1 : N // p ** first + 1].copy()
    for v in range(first, vmax + 1):
        if local[v]:
            pv = p ** v
            a[pv::pv] += local[v] * base[: N // pv]


def dirichlet_coeffs(field: NumberField, N: int) -> ZetaSeries:
    """Ideal counts a_k for k <= N via local Euler factors and a sieve.

    Each prime p <= sqrt(N) multiplies in its Euler factor.  A larger prime
    has only x^1 in range, with coefficient r_1(p), the number of its
    degree-1 prime ideals: a_(p*m) = r_1(p) * a_m for every m <= N // p.
    Such m are below sqrt(N), so their a_m are final once the small primes
    are done, and p is the only prime factor of p*m past sqrt(N), so each
    target is written once.  The scatter takes one m at a time, for all
    large primes at once, so no step holds more than one entry per prime.

    The memo keeps one array per polynomial, which serves every smaller
    cutoff by slicing: the tables and bounds draw their a_k from it."""
    if N < 1:
        raise ValidationError("cutoff must be >= 1")
    if N > _MAX_COEFFICIENTS:
        raise SieveTooLarge(f"{N} coefficients exceed the sieve ceiling of {_MAX_COEFFICIENTS}")
    key = ("series", field.key())
    cached = _memo.get(key)
    if cached is not None and len(cached) > N:
        return ZetaSeries(field, N, cached[: N + 1])
    a = np.zeros(N + 1, dtype=np.int64)
    a[1] = 1
    primes = _primes_upto(N)
    n_small = int(np.searchsorted(primes, math.isqrt(N), side="right"))
    for chunk, counts in _splitting_counts(field, primes[:n_small]):
        for p, row in zip(chunk.tolist(), counts.T.tolist()):
            _euler_factor(a, p, row)
    large = primes[n_small:]
    r1 = np.concatenate([primes[:0]] + [counts[0] for _, counts in
                                        _splitting_counts(field, large)])
    large, r1 = large[r1 > 0], r1[r1 > 0]
    for m in np.flatnonzero(a[: math.isqrt(N) + 1]).tolist():
        k = np.searchsorted(large, N // m, side="right")
        a[large[:k] * m] = r1[:k] * a[m]
    return ZetaSeries(field, N, _memo.put(key, a))


# ---------------------------------------------------------------------------
# evaluations


@dataclass(frozen=True)
class SeriesValue:
    """A partial sum together with a doubling-based tail estimate."""

    value: float
    tail_estimate: float


def zeta_derivative(series: ZetaSeries, m: int, s: int) -> SeriesValue:
    """m-th derivative of the series in s, (-1)^m sum a_k (log k)^m / k^s,
    at integer s >= 2.  m = 0 is the partial sum of the series itself,
    which at s = 2 converges slowest and needs a cutoff of at least 10^4."""
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
    with np.errstate(over="ignore"):  # k^s past the float range: the term is 0.0
        terms = series.a[1:].astype(float) * np.log(ks) ** m / ks ** s
    total = float(terms.sum())
    half = float(terms[: N // 2].sum())
    sign = -1.0 if m % 2 else 1.0
    return SeriesValue(sign * total, abs(total - half))
