"""Exact arithmetic in the order Z[theta] of a totally real number field.

The field is described by a monic squarefree integer polynomial; its real
roots are isolated with exact Sturm counts and kept as certified dyadic
brackets [a/2^k, b/2^k].  One primitive, `NumberField.enclose`, decides
every question about the embeddings sigma_i(x) of integer coordinate rows
past float accuracy (box membership, heights, unit logarithms): it
encloses them by interval arithmetic on integers and shrinks the brackets
by exact signs, doubling their bits until the enclosure decides (Moore,
*Interval Analysis*, 1966).  So no working precision is set: each answer
takes the bits it needs.  Norms are always exact integers: a float
product of the certified embeddings is rounded to N(x) only under a
proven error bound below 1/4, and every other row takes one
fraction-free elimination kernel on Python integers.
Each field keeps one LLL-reduced basis of Z[theta], found lazily; the box
scan walks its coordinates.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from decimal import Decimal, localcontext
from functools import cached_property

import numpy as np

from .errors import (EmptyInput, InvariantError, NotMonic, NotSquarefree, NotTotallyReal,
                     PrecisionTooHigh, ValidationError)

# the bits `NumberField.enclose` starts from, and the most it doubles up
# to: the octic fixture's brackets refine to 4,096 bits in about 0.2 s
START_PRECISION_BITS = 80
MAX_PRECISION_BITS = 4096

# decimal digits of the logarithms that `_log_abs` rounds to float
_LOG_DIGITS = 40

# rows per chunk of `norm_rows`, for its float front and for each kernel call
# on the rows left open: bounds the working memory for any point set
_STACK_ROWS = 1024

# the float front of `norm_rows` rounds a product to N(x) only where its
# proven error is at most this: half of the 1/2 that rounding needs
_FLOAT_NORM_ERROR = 0.25

# Lovász constant of `_lll_transform`
_LLL_DELTA = 0.99

# outward pad of the box scan's candidate ranges per unit of max(1, R + tol);
# `projection_facets` keeps only the facets whose float error it covers
_SCAN_PAD = 1e-8


# ---------------------------------------------------------------------------
# integer / rational polynomial helpers (coefficients ascending)


def _poly_eval(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs):
    return tuple(i * c for i, c in enumerate(coeffs))[1:]


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _bareiss_dets(a: np.ndarray, rhs: np.ndarray | None = None):
    """(det(M), adj(M)·rhs) for a stack of square integer matrices M of
    shape (B, n, n) and right-hand sides of shape (B, n); adj·rhs is None
    without rhs and zero for singular M.

    Fraction-free elimination, one step for the whole stack, each matrix
    with its own row swaps.  Every intermediate entry is a minor of
    [M | rhs], so all divisions are exact (Bareiss 1968; Cohen, *A Course
    in Computational Algebraic Number Theory*, §2.2).  Entries are int64
    or Python integers; the elimination, and so det and adj·rhs, are on
    Python integers (`object`), where nothing wraps.  It runs on an
    (n, n + 1, B) copy of [M | rhs], batch last, so every step's update,
    exact division and back substitution is one ufunc call along the
    stack; the inputs are never written.
    """
    B, n, _ = a.shape
    t = np.empty((n, n + (rhs is not None), B), dtype=object)
    t[:, :n] = a.transpose(1, 2, 0)
    if rhs is not None:
        t[:, n] = rhs.T
    sign = np.ones(B, dtype=np.int64)
    singular = np.zeros(B, dtype=bool)
    prev = np.ones(B, dtype=object)
    for k in range(n):
        zero = np.flatnonzero(t[k, k] == 0)
        if len(zero):
            below = t[k + 1:, k][:, zero] != 0
            found = below.any(axis=0)
            if found.any():
                swap, r = zero[found], k + 1 + below[:, found].argmax(axis=0)
                t[k, :, swap], t[r, :, swap] = t[r, :, swap], t[k, :, swap]
                sign[swap] = -sign[swap]
            dead = zero[~found]
            singular[dead] = True
            # a zero column: keep the rest of this matrix zero, divisions exact
            t[k:, k:, dead] = 0
            t[k, k, dead] = 1
        pivot = t[k, k].copy()
        rest = t[k + 1:, k + 1:]
        rest *= pivot
        rest -= t[k + 1:, k, None] * t[k, None, k + 1:]
        if k:  # the first step's divisor is 1
            rest //= prev
        prev = pivot
    det = sign * prev
    det[singular] = 0
    if rhs is None:
        return det, None
    # t[i, n] is a row of an equivalent system; det·x is integral (Cramer)
    adj = np.zeros((n, B), dtype=object)
    for i in range(n - 1, -1, -1):
        acc = det * t[i, n] - (t[i, i + 1:n] * adj[i + 1:]).sum(axis=0)
        adj[i] = acc // t[i, i]
    adj[:, singular] = 0
    return det, adj.T


def _max_abs(values: np.ndarray) -> int:
    """max |v| over an integer array, as a Python integer: |-2^63| does
    not wrap."""
    return max(int(values.max(initial=0)), -int(values.min(initial=0)))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _int64_if_fits(values: np.ndarray) -> np.ndarray:
    """The values as int64, or left as Python integers when one is past it."""
    try:
        return values.astype(np.int64, copy=False)
    except OverflowError:
        return values


def _int64_if_abs_fits(values: np.ndarray) -> np.ndarray:
    """The values as int64 when every |v| is below 2^63, or left as Python
    integers: np.abs of an int64 -2^63 wraps.  An int64 input stays."""
    if values.dtype == object and _max_abs(values) >= 2 ** 63:
        return values
    return values.astype(np.int64, copy=False)


def _put(out: np.ndarray, where, values: np.ndarray) -> np.ndarray:
    """out with values written at the rows where (a slice or indices).  An
    int64 out moves to Python integers (a copy) only when some |value| is
    2^63 or more."""
    values = _int64_if_abs_fits(values)
    if values.dtype == object and out.dtype != object:
        out = out.astype(object)
    out[where] = values
    return out


def _integers(values, what: str) -> tuple[int, ...]:
    """values as Python integers; values that are not iterable, or one
    that is no integer, or is a bool, are refused with ValidationError,
    never truncated."""
    if not isinstance(values, Iterable):
        raise ValidationError(f"{what} must be integers, got {values!r}")
    values = tuple(values)
    if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool) for c in values):
        raise ValidationError(f"{what} must be integers, got {values!r}")
    return tuple(map(int, values))


def _coordinate_rows(rows, n: int) -> np.ndarray:
    """The one intake of coordinate rows: a (P, n) array, int64, or Python
    integers when a coordinate is past int64.  An int64 array whose last
    axis is n passes after that shape check; anything else is read row by
    row, and a row that is not n integers (`_integers`) is refused."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.int64 and rows.shape[-1:] == (n,):
        return rows.reshape(-1, n)
    out = []
    for row in rows:
        row = tuple(row) if isinstance(row, Iterable) else (row,)
        if len(row) != n:
            raise ValidationError(f"coordinate row has length {len(row)}, expected {n}")
        out.append(_integers(row, "coordinates"))
    return _int64_if_fits(np.array(out, dtype=object).reshape(-1, n))


def _gram_schmidt(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, B) of the columns of W: w_i = sum over j <= i of mu[i, j]·w*_j
    with mu[i, i] = 1, and B[j] = |w*_j|^2.  Modified Gram-Schmidt, one
    vector step per column: the R of a QR of W, up to row scaling, without
    a LAPACK call (numpy's QR maps LAPACK code that raised a fresh octic
    job's peak RSS by about 0.5 MB)."""
    n = W.shape[1]
    V = W.copy()
    mu, B = np.eye(n), np.empty(n)
    for j in range(n):
        B[j] = V[:, j] @ V[:, j]
        mu[j + 1:, j] = (V[:, j] @ V[:, j + 1:]) / B[j]
        V[:, j + 1:] -= np.outer(V[:, j], mu[j + 1:, j])
    return mu, B


def _lll_transform(B: np.ndarray) -> np.ndarray:
    """Integer U whose column operations LLL-reduce the columns of B, in
    float arithmetic (Lenstra, Lenstra and Lovász, *Math. Ann.* 1982).
    Every step is a unimodular column operation, but int64 may wrap:
    callers check U exactly before they use it.

    Each swap takes mu and the squared Gram-Schmidt norms afresh from one
    `_gram_schmidt` pass over the basis; size reduction w_k -= q·w_j
    leaves the norms alone and updates row k of mu in place.  mu[k, 0] is
    read afresh as w_k·w_0 / |w_0|^2 before it is rounded, so on an
    integer basis, or on Q(sqrt 5), an exact tie mu = m + 1/2 there is
    exact in floats and rounds half to even."""
    n = B.shape[1]
    W = B.astype(float).copy()
    U = np.eye(n, dtype=np.int64)
    mu, norms = _gram_schmidt(W)
    k, steps = 1, 0
    while k < n and steps < 10000:
        steps += 1
        for j in range(k - 1, -1, -1):
            if j == 0:
                mu[k, 0] = (W[:, k] @ W[:, 0]) / (W[:, 0] @ W[:, 0])
            q = round(mu[k, j])
            if q:
                W[:, k] -= q * W[:, j]
                U[:, k] -= q * U[:, j]
                mu[k, :j + 1] -= q * mu[j, :j + 1]
        if norms[k] >= (_LLL_DELTA - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            W[:, [k - 1, k]] = W[:, [k, k - 1]]
            U[:, [k - 1, k]] = U[:, [k, k - 1]]
            mu, norms = _gram_schmidt(W)
            k = max(k - 1, 1)
    return U


def _sylvester_resultant(a, b):
    """Resultant of two integer polynomials, the determinant of their
    Sylvester matrix."""
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + list(reversed(a)) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(reversed(b)) + [0] * (m - 1 - i) for i in range(m)]
    return int(_bareiss_dets(np.array(rows, dtype=object).reshape(1, m + n, m + n))[0][0])


# ---------------------------------------------------------------------------
# polynomial type


@dataclass(frozen=True)
class Polynomial:
    """Monic squarefree integer polynomial, coefficients ascending.  The
    coefficients follow the rule of `_integers`."""

    coeffs: tuple[int, ...]
    # (-1)^(n(n-1)/2)·Res(f, f'), from the squarefree test: nonzero
    discriminant: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = _integers(self.coeffs, "polynomial coefficients")
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) < 3:
            raise ValidationError("polynomial degree must be at least 2")
        if coeffs[-1] != 1:
            raise NotMonic(f"leading coefficient is {coeffs[-1]}, expected 1")
        if coeffs[0] == 0:
            raise ValidationError("constant coefficient must be nonzero")
        n = len(coeffs) - 1
        res = _sylvester_resultant(coeffs, _poly_derivative(coeffs))
        if res == 0:
            raise NotSquarefree("polynomial has a repeated factor over Q")
        object.__setattr__(self, "discriminant", -res if n * (n - 1) // 2 % 2 else res)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return _poly_eval(self.coeffs, x)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mono = "x" if i == 1 else f"x^{i}"
                terms.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        return " + ".join(reversed(terms)).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# certified real root isolation (Sturm counts + dyadic bisection)


def _scaled_value(coeffs, a, k):
    """The integer 2^(k·deg)·f(a/2^k), exactly."""
    acc = 0
    for j, c in enumerate(reversed(coeffs)):
        acc = acc * a + (c << (k * j))
    return acc


def _sign_at(coeffs, a, k):
    """Sign of f(a/2^k), read exactly from `_scaled_value`."""
    acc = _scaled_value(coeffs, a, k)
    return (acc > 0) - (acc < 0)


def _sturm_chain(coeffs):
    """Sturm chain of an integer polynomial, kept in integers.

    Each remainder is a signed pseudo-remainder (every step scales by
    |lc| > 0 only) and each member is divided by its content, so the chain
    has the signs of the rational Sturm chain everywhere.
    """
    chain, p = [], list(coeffs)
    while p:
        g = math.gcd(*p)
        chain.append([c // g for c in p])
        if len(chain) == 1:
            p = _poly_trim(_poly_derivative(coeffs))
            continue
        a, b = chain[-2], chain[-1]
        lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(a) >= len(b):
            q, off = sign * a[-1], len(a) - len(b)
            a = [lead * c for c in a]
            for j, bj in enumerate(b):
                a[off + j] -= q * bj
            a = _poly_trim(a)
        p = [-c for c in a]
    return chain


def _sign_variations(chain, a, k):
    signs = [s for s in (_sign_at(poly, a, k) for poly in chain) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _isolate(coeffs):
    """Disjoint dyadic intervals [a/2^k, b/2^k] as (a, b, k), sorted, each
    containing exactly one real root of the monic polynomial.

    The root bound is an integer and every split halves, so all endpoints
    are dyadic.  Endpoints are non-roots except for exact dyadic roots,
    which are returned as zero-width intervals.
    """
    chain = _sturm_chain(coeffs)
    bound = max(abs(c) for c in coeffs[:-1]) + 2  # past every root of a monic f (Cauchy)
    total = _sign_variations(chain, -bound, 0) - _sign_variations(chain, bound, 0)
    intervals = []
    stack = [(-bound, bound, 0, total)]
    while stack:
        lo, hi, k, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1 and _sign_at(coeffs, lo, k) * _sign_at(coeffs, hi, k) < 0:
            intervals.append((lo, hi, k))
            continue
        mid = lo + hi  # at scale 2^(k+1)
        if _sign_at(coeffs, mid, k + 1) == 0:
            intervals.append((mid, mid, k + 1))
            # nudge around the exact root by 2^-12 of the width, at scale 2^(k+12)
            left, right = (mid << 11) - (hi - lo), (mid << 11) + (hi - lo)
            lo_left, hi_right, k_left, k_right = lo << 12, hi << 12, k + 12, k + 12
            while _sign_at(coeffs, left, k_left) == 0:
                left, lo_left, k_left = lo_left + left, 2 * lo_left, k_left + 1
            while _sign_at(coeffs, right, k_right) == 0:
                right, hi_right, k_right = right + hi_right, 2 * hi_right, k_right + 1
            c_left = (_sign_variations(chain, lo_left, k_left)
                      - _sign_variations(chain, left, k_left))
            c_right = (_sign_variations(chain, right, k_right)
                       - _sign_variations(chain, hi_right, k_right))
            stack.append((lo_left, left, k_left, c_left))
            stack.append((right, hi_right, k_right, c_right))
        else:
            lo, hi, k = 2 * lo, 2 * hi, k + 1
            c_left = _sign_variations(chain, lo, k) - _sign_variations(chain, mid, k)
            stack.append((lo, mid, k, c_left))
            stack.append((mid, hi, k, cnt - c_left))
    intervals.sort(key=lambda iv: Fraction(iv[0], 1 << iv[2]))
    if len(intervals) != total:
        raise InvariantError(f"isolated {len(intervals)} roots, Sturm count is {total}")
    return intervals


def _refine(coeffs, a, b, k, prec_bits):
    """The isolating interval [a/2^k, b/2^k] shrunk until the bracket
    [lo, hi] is at most max(1, |lo|, |hi|)·2^-(prec_bits+4) wide, as
    (a, b, k) again.

    Each step tries a Newton step from the midpoint at twice the bits: it
    keeps the small bracket around the Newton point, clipped to the old
    one, when the exact signs at its ends differ as the old ends' do.
    Otherwise it bisects, keeping the half whose ends have opposite exact
    signs.  So the enclosure stays certified, and a zero sign is the root,
    a zero-width bracket.  The width is measured against the current
    bracket, so a root deep inside a wide isolating interval still gets
    prec_bits relative bits.
    """
    sign_a = _sign_at(coeffs, a, k)
    slope = _poly_derivative(coeffs)
    while (b - a) << (prec_bits + 4) > max(1 << k, abs(a), abs(b)):
        mid, k = a + b, k + 1
        a, b = 2 * a, 2 * b
        d = _scaled_value(slope, mid, k)  # 2^(k(deg-1))·f'(mid/2^k)
        if d:
            # x = mid/2^k - f/f' at scale 2^(2k); the error is about step^2 there
            step = (_scaled_value(coeffs, mid, k) << k) // d
            x, r = (mid << k) - step, max(4, (step * step) >> (2 * k - 4))
            lo, hi = max(x - r, a << k), min(x + r, b << k)
            if hi - lo < (b - a) << (k - 1):
                sign_lo, sign_hi = _sign_at(coeffs, lo, 2 * k), _sign_at(coeffs, hi, 2 * k)
                if 0 in (sign_lo, sign_hi):
                    root = lo if sign_lo == 0 else hi
                    a, b, k = root, root, 2 * k
                    continue
                if sign_lo == sign_a != sign_hi:
                    a, b, k = lo, hi, 2 * k
                    continue
        sign = _sign_at(coeffs, mid, k)
        if sign == 0:
            a = b = mid
        elif sign == sign_a:
            a = mid
        else:
            b = mid
    return a, b, k


# ---------------------------------------------------------------------------
# certified dyadic enclosures of embeddings (integer interval arithmetic)


def _power_bounds(bracket, n: int, bits: int):
    """(centres, radii) with |theta^j·2^bits - centres[j]| <= radii[j] for
    j < n and every theta in the bracket [a/2^k, b/2^k]: exact interval
    powers [lo, hi]/2^(k·j) of the bracket, first rounded outward to at
    most 16 bits past the scale, then rounded outward to the scale 2^bits."""
    a, b, k = bracket
    if k > bits + 16:
        drop = k - bits - 16
        a, b, k = a >> drop, -(-b >> drop), bits + 16
    lo = hi = 1
    centres, radii = [], []
    for j in range(n):
        shift = k * j - bits
        low, high = (lo >> shift, -(-hi >> shift)) if shift >= 0 else (lo << -shift, hi << -shift)
        centres.append((low + high) >> 1)
        radii.append(high - centres[-1])
        ends = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(ends), max(ends)
    return centres, radii


def _rounded(C, E, bits):
    """Rule for `NumberField.enclose`: each row's sigma_i(x) as correctly
    rounded floats, decided once both ends of every enclosure round to
    the same float (rounding is monotonic, so the exact value does too)."""
    scale = 1 << bits
    low, high = ((C - E) / scale).astype(float), ((C + E) / scale).astype(float)
    decided = (low == high).all(axis=1)
    return [row if ok else None for row, ok in zip(low.tolist(), decided.tolist())]


def _log_abs(C, E, bits):
    """Rule for `NumberField.enclose`: each row's log|sigma_i(x)| as
    correctly rounded floats, decided once every enclosure is within 2^-60
    relative of its centre and the logarithm of the centre (to
    `_LOG_DIGITS` digits), widened by the enclosure's relative width and
    that rounding, rounds to one float at both ends."""
    def log(c, e):
        if c <= e << 60:
            return None
        y = (Decimal(c) / scale).ln()
        # |log(c ± e) - log(c)| <= e / (c - e), plus the rounding of y
        width = Decimal(e) / Decimal(c - e) + slack * (1 + abs(y))
        low, high = float(y - width), float(y + width)
        return low if low == high else None

    with localcontext() as ctx:
        ctx.prec = _LOG_DIGITS
        scale, slack = Decimal(1 << bits), Decimal(10) ** (2 - _LOG_DIGITS)
        rows = [[log(c, e) for c, e in zip(cs, es)] for cs, es in zip(np.abs(C), E)]
    return [None if None in row else row for row in rows]


def _closed_box(bound: float):
    """Rule for `NumberField.enclose`: whether |sigma_i(x)| <= bound for
    every i, the float bound taken as the dyadic rational it is."""
    p, q = float(bound).as_integer_ratio()

    def rule(C, E, bits):
        size, slack, limit = np.abs(C) * q, E * q, p << bits
        inside = (size + slack <= limit).all(axis=1)
        outside = (size - slack > limit).any(axis=1)
        return [True if i else False if o else None for i, o in zip(inside, outside)]

    return rule


# ---------------------------------------------------------------------------
# number field


class NumberField:
    """A totally real field Q(theta) together with the order Z[theta].

    Instances are immutable after construction and safe to share across
    threads; all element operations are pure functions of (field, coords).
    The enclosure tables fill lazily and refine the root brackets as they
    go; whichever brackets a thread builds a table from, it is certified
    and decides the same.
    """

    def __init__(self, min_poly: Polynomial, brackets, label: str = ""):
        self.min_poly = min_poly
        self.degree = min_poly.degree
        # certified dyadic root brackets (a, b, k), ascending; `_table` refines them
        self.brackets = list(brackets)
        self.signature = (self.degree, 0)
        self.label = label or str(min_poly)
        self.poly_discriminant = min_poly.discriminant
        # enclosure tables by bits
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        theta = [0, 1] + [0] * (self.degree - 2)
        self.embeddings = _read_only(np.array(self.enclose([theta], _rounded)[0]))

    def key(self):
        return self.min_poly.coeffs

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"NumberField({self.label!r}, degree={self.degree})"

    # -- certified embeddings ----------------------------------------------

    def _table(self, bits: int) -> tuple[np.ndarray, np.ndarray]:
        """(centres, radii), (n, n) Python integers: |sigma_i(theta)^j·2^bits
        - centres[i, j]| <= radii[i, j], from the brackets refined to bits,
        each refined on from the finest one held."""
        if bits not in self._tables:
            coeffs = self.min_poly.coeffs
            brackets = [_refine(coeffs, *bracket, bits) for bracket in self.brackets]
            rows = [_power_bounds(bracket, self.degree, bits) for bracket in brackets]
            self.brackets[:] = brackets
            self._tables[bits] = tuple(_read_only(np.array(m, dtype=object)) for m in zip(*rows))
        return self._tables[bits]

    def enclose(self, rows, rule) -> list:
        """The certified embeddings primitive: for every integer coordinate
        row x, rule's verdict on dyadic enclosures of sigma_1(x), ...,
        sigma_n(x), as a list.

        rule(C, E, bits) gets (P, n) Python-integer arrays for P rows with
        |sigma_i(x)·2^bits - C[p, i]| <= E[p, i], the sum over j of x_j
        times the interval theta_i^j of `_table`, and returns one value per
        row, None where the enclosure does not decide.  Undecided rows go
        again with the brackets at twice the bits, from
        `START_PRECISION_BITS` up to `MAX_PRECISION_BITS`; a row still
        undecided there raises PrecisionTooHigh.  Rows may hold Python
        integers past int64; they enter through `_coordinate_rows`.
        """
        rows = _coordinate_rows(rows, self.degree)
        out = [None] * len(rows)
        pending, bits = np.arange(len(rows)), START_PRECISION_BITS
        while len(pending):
            centres, radii = self._table(bits)
            x = rows[pending]
            # on Python integers, as the tables are: |-2^63| does not wrap
            C, E = x @ centres.T, np.abs(x, dtype=object) @ radii.T
            for i, value in zip(pending.tolist(), rule(C, E, bits)):
                out[i] = value
            pending = np.array([i for i in pending.tolist() if out[i] is None], dtype=np.intp)
            if len(pending) and bits >= MAX_PRECISION_BITS:
                raise PrecisionTooHigh(f"{len(pending)} embedding decisions need more than "
                                       f"{MAX_PRECISION_BITS} bits")
            bits = min(2 * bits, MAX_PRECISION_BITS)
        return out

    def heights(self, rows) -> np.ndarray:
        """max_i |sigma_i(x)| of every coordinate row, correctly rounded to
        float: the largest of the correctly rounded |sigma_i(x)|."""
        rounded = np.array(self.enclose(rows, _rounded), dtype=float).reshape(-1, self.degree)
        return np.abs(rounded).max(axis=1, initial=0.0)

    # -- exact ring helpers ------------------------------------------------

    def _mul_matrices(self, rows: np.ndarray) -> np.ndarray:
        """Stack of M(x) (column j holds x·theta^j) for rows x, in their dtype."""
        f = np.array(self.min_poly.coeffs[:-1], dtype=rows.dtype)
        out = np.empty(rows.shape + (self.degree,), dtype=rows.dtype)
        col = out[:, :, 0] = rows
        for j in range(1, self.degree):
            shifted = np.zeros_like(col)
            shifted[:, 1:] = col[:, :-1]
            col = out[:, :, j] = shifted - col[:, -1:] * f
        return out

    @cached_property
    def embedding_matrix(self) -> np.ndarray:
        """V, read-only (n, n) floats, the one float table of the embeddings:
        V[i, j] is the centre of the certified `_table(START_PRECISION_BITS)`
        entry of sigma_i(theta)^j, correctly rounded; see `_float_table`."""
        centres, _ = self._table(START_PRECISION_BITS)
        return _read_only((centres / (1 << START_PRECISION_BITS)).astype(float))

    @cached_property
    def reduced_basis(self) -> np.ndarray:
        """U, read-only int64: its columns are an LLL-reduced basis of
        Z[theta] under the embeddings, in power-basis coordinates, and the
        box scan walks coordinates in it.  Found on first use by
        `_lll_transform` (about 0.2 ms for the quartic and the octic fixtures
        on a 2-vCPU VM); one kernel call checks det(U) exactly, and U is the
        identity where it is not ±1 (int64 wrapped inside the float LLL)."""
        U = _lll_transform(self.embedding_matrix)
        if abs(_bareiss_dets(U[None].astype(object))[0][0]) != 1:
            U = np.eye(self.degree, dtype=np.int64)
        return _read_only(U)

    @cached_property
    def projection_facets(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per level j, read-only (L, h): the facets of the projection of the
        box {x : |sigma_i(U x)| <= R} onto the reduced coordinates
        x_j..x_(n-1), as bounds on x_j, from W = V·U, (V, A) of `_float_table`.

        Each (j+1)-subset S of the embedding rows gives one row of the
        (m, n) L: the last row lambda of W[S, :j+1]^-1 on the columns S,
        scaled by its computed product with W[S, j].  So every x in the box
        has |x_j + L[s]·p| <= R·h[s], p = sum over k > j of W[:, k]·x_k:
        h[s] is |lambda|_1 plus, at the box's coordinate bounds |x_k| <=
        R·sum_i |W^-1[k, i]|, the float residual |lambda·W[S, :j+1] - e_j|
        and sum_s |lambda_s|·(A·|U|·bounds)_(S_s), the error of V.  The
        bound holds for any lambda, as every term is kept (Ziegler,
        *Lectures on Polytopes*, ch. 7, for the facets).  A subset is
        dropped, the singular ones among them, when its float error per
        unit R passes `_SCAN_PAD`: a dropped facet only widens the range.
        """
        n = self.degree
        (V, A), U = self._float_table, self.reduced_basis
        W = V @ U
        bounds = np.abs(np.linalg.inv(W)).sum(axis=1)
        # |V|·|U| at the coordinate bounds: the rounding of W = V·U and of the
        # scan's partial sums and products with lambda is within 4n·eps of it
        size = np.abs(V) @ np.abs(U) @ bounds
        error = A @ np.abs(U) @ bounds
        levels = []
        for j in range(n):
            S = np.array(list(itertools.combinations(range(n), j + 1)))
            M = W[S, :j + 1]
            k, q = np.arange(j + 1), np.arange(j)
            # the cofactors of column j: row k of S left out, q + (q >= k) the rest
            cof = np.linalg.det(M[:, q + (q >= k[:, None]), :j]) * (-1.0) ** k
            L = np.zeros((len(S), n))
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = cof / (cof * M[:, :, j]).sum(axis=1, keepdims=True)
                resid = (lam[:, :, None] * M).sum(axis=1) - (k == j)
                L[np.arange(len(S))[:, None], S] = lam
                h = np.abs(lam).sum(axis=1) + np.abs(resid) @ bounds[:j + 1] + np.abs(L) @ error
                keep = 4 * n * np.finfo(float).eps * (np.abs(L) @ size) <= _SCAN_PAD
            levels.append((_read_only(L[keep]), _read_only(h[keep])))
        return tuple(levels)

    @cached_property
    def _float_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(V, A), (n, n) floats for every float decision on embeddings (the
        float front of `norm_rows`, the scan's box test and the facets): V
        is `embedding_matrix`, and |y_i - sigma_i(x)| <= (A·|x|)_i for
        y = V·x of an integer row x, both as computed (`_float_embeddings`).

        x enters rounded, x_j·(1 + d) with |d| <= u = 2^-53, and a dot
        product of n terms in any order is within gamma_n = n·u / (1 - n·u)
        of the sum of its |terms| (Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2nd ed., ch. 3).  So A[i, j] is
        (E[i, j] + g·|V[i, j]| + 2^-999)·(1 + 2g)·(1 + 16u): E the rounded
        radius, g >= gamma_(n+1) + u for the dot product and the rounding
        of V (within u·|V|), 2^-999 for an underflow of V[i, j]·x_j (it
        also keeps A[i, j]·|x_j| normal), 1 + 2g for the rounding of A·|x|
        and 1 + 16u for the roundings of E and of A itself.
        """
        n, V = self.degree, self.embedding_matrix
        u = 2.0 ** -53
        E = (self._table(START_PRECISION_BITS)[1] / (1 << START_PRECISION_BITS)).astype(float)
        g = (n + 2) * u * (1 + 4 * (n + 2) * u)
        A = (E + g * np.abs(V) + 2.0 ** -999) * (1 + 2 * g) * (1 + 16 * u)
        return V, _read_only(A)

    def _float_embeddings(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(y, u) for float columns x (n, P) of integer coordinate rows, y =
        V·x and u = A·|x| of `_float_table`: |y_i - sigma_i(x)| <= u_i."""
        V, A = self._float_table
        return V @ x, A @ np.abs(x)

    @cached_property
    def _cofactor_table(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(V^-1, G, limit) for the cofactors of the float front.  V^-1 is
        the float inverse of V of `_float_table`: a guess rests on it,
        never a result.  G[i, j·n + k] is coordinate i of theta^j·theta^k
        from `_mul_matrices` in floats, exact while its entries are below
        (1 + max|f_i|)^(n-1) < 2^53; then x·c = G·(x ⊗ c), and max|c|·max|x|
        < limit = 2^52 / (n^2·max|G|) keeps every term and partial sum of
        it below 2^53, where floats are exact integers (a factor 2 for the
        guard's own rounding).  Otherwise the limit is 0.
        """
        n, coeffs = self.degree, self.min_poly.coeffs[:-1]
        G = self._mul_matrices(np.eye(n)).transpose(1, 0, 2).reshape(n, n * n)
        exact = (1 + max(abs(c) for c in coeffs)) ** (n - 1) < 2 ** 53
        return (_read_only(np.linalg.inv(self._float_table[0])), _read_only(G),
                2.0 ** 52 / (n * n * np.abs(G).max()) if exact else 0.0)

    def _float_norms(self, rows: np.ndarray, cofactors: bool):
        """The float front of `norm_rows` on a (B, n) chunk: int64 (norms,
        cofs, done), exact on the rows where done is set; cofs is None
        without cofactors, and rows past int64 are never done.

        y = V·x and u = A·|x| of `_float_embeddings`, batch last, bound
        |N(x) - prod y_i| by prod(|y_i| + u_i) - prod|y_i| plus the
        rounding of prod y_i.  With T = prod(|y_i| + u_i) and P = prod y_i
        as computed (|P| is the computed prod|y_i|: rounding is symmetric),
        the three products round within (4n - 3)·u·T, so the error is at
        most (T - |P| + n·2^-50·T as computed)·(1 + 3u).  A row is done
        when that is at most `_FLOAT_NORM_ERROR`, so N(x) = rint(P), and
        |P| < 2^50, which keeps the int64 cast exact whatever the bound.
        Each |y_i| + u_i lies in [2^-m, 2^m], m = 1000 // n, so no partial
        product of T over- or underflows, and an underflow inside P costs
        at most n·2^-74, inside the margin up to 1/2.  With cofactors, a
        done row also needs N(x) != 0 and c = rint(V^-1·(N(x)/y)) with
        x·c = N(x), exactly under the limit of `_cofactor_table`: x is then
        no zero divisor, and c = N(x)/x = adj(M(x))·e_0.
        """
        B, n = rows.shape
        if rows.dtype == object:
            cofs = np.zeros((B, n), dtype=np.int64) if cofactors else None
            return np.zeros(B, dtype=np.int64), cofs, np.zeros(B, dtype=bool)
        x, m = rows.T.astype(float, order="C"), 2.0 ** (1000 // n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            y, u = self._float_embeddings(x)
            f = np.abs(y) + u
            top, p = f.prod(axis=0), y.prod(axis=0)
            done = (((f >= 1 / m) & (f <= m)).all(axis=0) & (np.abs(p) < 2.0 ** 50)
                    & (top - np.abs(p) + n * 2.0 ** -50 * top <= _FLOAT_NORM_ERROR))
            norms = np.rint(np.where(done, p, 0.0)).astype(np.int64)
            if not cofactors:
                return norms, None, done
            inverse, G, limit = self._cofactor_table
            c = np.rint(inverse @ (norms / y))
            done &= (norms != 0) & (np.abs(c).max(axis=0) * np.abs(x).max(axis=0) < limit)
            xc = G @ (x[:, None] * c[None]).reshape(n * n, -1)  # x·c, exact where done
            xc[0] -= norms
            done &= ~xc.any(axis=0)
        return norms, np.where(done, c, 0.0).T.astype(np.int64), done

    def norm_coords(self, coords) -> int:
        return int(self.norm_rows([coords])[0])

    def norm_rows(self, rows, cofactors: bool = False):
        """N(x) of every coordinate row, exactly: int64, or Python integers
        when some |N(x)| is 2^63 or more.  Rows enter through
        `_coordinate_rows`, and may hold Python integers past int64.

        Degree 2 without cofactors takes a·(a - c1·b) + c0·b^2, on int64
        while max|x|^2·(1 + |c0| + |c1|) <= 2^62 bounds its partial sums.
        Otherwise each chunk of `_STACK_ROWS` rows goes through the float
        front, `_float_norms`, which rounds a float product to N(x) only
        under a proven error bound below 1/4 and keeps a cofactor c only
        where x·c = N(x) exactly.  The rows it leaves open take one kernel
        call on their power-basis M(x), on Python integers.  With
        cofactors, it takes right-hand side e_0 and also returns the exact
        c(x) = adj(M(x))·e_0 = N(x)/x, and raises ZeroDivisionError on zero
        divisors, which the front never settles.  Each chunk writes into
        preallocated int64 outputs, which move to Python integers only at
        the first chunk holding a value of size 2^63 or more: held once.
        """
        n = self.degree
        rows = _coordinate_rows(rows, n)
        if n == 2 and not cofactors:
            c0, c1, _ = self.min_poly.coeffs
            a, b = rows[:, 0], rows[:, 1]
            # at least 1: a coefficient past int64 then sends even zero rows to Python
            if max(_max_abs(rows), 1) ** 2 * (1 + abs(c0) + abs(c1)) > 2 ** 62:
                a, b = a.astype(object), b.astype(object)  # exactness over speed
            return _int64_if_abs_fits(a * (a - c1 * b) + c0 * (b * b))
        norms = np.empty(len(rows), dtype=np.int64)
        cofs = np.empty((len(rows), n), dtype=np.int64) if cofactors else None
        for s in range(0, len(rows), _STACK_ROWS):
            chunk, where = rows[s:s + _STACK_ROWS], slice(s, s + _STACK_ROWS)
            det, cof, done = self._float_norms(chunk, cofactors)
            rest = np.flatnonzero(~done)
            if len(rest):
                rhs = np.eye(1, n, dtype=np.int64).repeat(len(rest), axis=0) if cofactors else None
                kernel_det, adj = _bareiss_dets(self._mul_matrices(chunk[rest].astype(object)), rhs)
                det = _put(det, rest, kernel_det)
                if cofactors:
                    if not kernel_det.all():
                        raise ZeroDivisionError("zero or a zero divisor has no cofactor")
                    cof = _put(cof, rest, adj)
            norms = _put(norms, where, det)
            if cofactors:
                cofs = _put(cofs, where, cof)
        return (norms, cofs) if cofactors else norms

    def inverse_coords_rational(self, coords):
        """Coordinates of 1/x = c(x)/N(x) over Q, from `norm_rows`: raises
        ZeroDivisionError on zero divisors (zero, or any x when the
        polynomial is reducible)."""
        (det,), (cof,) = self.norm_rows([coords], cofactors=True)
        return [Fraction(c, int(det)) for c in cof.tolist()]

    def divide_exact(self, x, y):
        """The coordinates of x / y = x·c(y)/N(y), a tuple, when the quotient
        lies in Z[theta], else None; ZeroDivisionError as in `norm_rows`."""
        x = _coordinate_rows([x], self.degree)[0]
        (det,), cof = self.norm_rows([y], cofactors=True)
        num, det = (self._mul_matrices(cof.astype(object))[0] @ x).tolist(), int(det)  # x·c
        return None if any(c % det for c in num) else tuple(c // det for c in num)


# `perfbench/tracer.py` counts the scan's closed-box re-checks by wrapping
# this method, so the scan still calls it once per re-checked point; a
# trace inside the library (ROADMAP item 1) frees the name.
@dataclass(frozen=True)
class AlgebraicInt:
    """One coordinate row of Z[theta], for `embed_mp` alone."""

    field: NumberField
    coords: tuple[int, ...]

    def embed_mp(self, rule):
        """`NumberField.enclose` on this one row: rule's verdict."""
        return self.field.enclose([self.coords], rule)[0]


# ---------------------------------------------------------------------------
# module-level operations


def parse_field(poly: Polynomial, label: str = "") -> NumberField:
    """Construct the field, certifying that every root of ``poly`` is real."""
    if not isinstance(poly, Polynomial):
        poly = Polynomial(poly)
    n = poly.degree
    intervals = _isolate(poly.coeffs)
    if len(intervals) < n:
        raise NotTotallyReal(
            f"{poly} has {len(intervals)} real roots out of degree {n}; field is not totally real"
        )
    return NumberField(poly, intervals, label)


def min_product_distance(field: NumberField, rows) -> int:
    """Smallest |N(x)| over a nonempty collection of nonzero coordinate
    rows of the field."""
    rows = _coordinate_rows(rows, field.degree)
    if not len(rows):
        raise EmptyInput("minimum product distance of an empty set")
    if not rows.any(axis=1).all():
        raise ValidationError("minimum product distance is over nonzero points")
    return int(np.abs(field.norm_rows(rows)).min())
