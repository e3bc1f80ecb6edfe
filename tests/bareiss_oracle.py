"""Scalar fraction-free elimination: the exact linear-algebra oracle.

One matrix at a time, in pure-Python integers, with a row loop per
elimination step.  The library runs the same elimination on whole stacks
of matrices in numpy (`numberfield._bareiss_dets`); the tests compare the
two matrix by matrix.  Norms here build M(x) from ring products alone,
not from the library's batched multiplication matrices: the schoolbook
product `mul`, with `power` on top of it, is the tests' one ring
multiplication of coordinate rows.
"""

from __future__ import annotations


def bareiss(rows, rhs=None):
    """Fraction-free Gaussian elimination of a square integer matrix M.

    Returns (det(M), adj(M)·rhs), the second item None when no right-hand
    side is given or M is singular.  Every intermediate entry is a minor
    of [M | rhs], so all divisions are exact (Bareiss 1968; Cohen,
    *A Course in Computational Algebraic Number Theory*, §2.2).
    """
    n = len(rows)
    a = [list(r) for r in rows] if rhs is None else [list(r) + [v] for r, v in zip(rows, rhs)]
    width = n if rhs is None else n + 1
    sign, prev = 1, 1
    for k in range(n):
        top = a[k]
        if top[k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], top
                    top, sign = a[k], -sign
                    break
            else:
                return 0, None
        pivot = top[k]
        for row in a[k + 1:]:
            c = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - c * top[j]) // prev
        prev = pivot
    det = sign * prev
    if rhs is None:
        return det, None
    # a[i][n] is a row of an equivalent system; det·x is integral (Cramer)
    adj = [0] * n
    for i in range(n - 1, -1, -1):
        acc = det * a[i][n] - sum(a[i][j] * adj[j] for j in range(i + 1, n))
        adj[i] = acc // a[i][i]
    return det, adj


def mul(field, x, y):
    """x·y in Z[theta] as a coordinate tuple: the schoolbook product of
    the two rows, with each theta^(n+t) replaced by its power-basis row.
    The reference for the library's multiplication matrices."""
    n, f = field.degree, field.min_poly.coeffs
    # theta^(n+t) reduced to the power basis, from theta^n = -(f_0 + ... + f_(n-1) theta^(n-1))
    reduction = [[-c for c in f[:n]]]
    for _ in range(n - 2):
        prev = reduction[-1]
        reduction.append([0] + prev[:n - 1])
        for j in range(n):
            reduction[-1][j] -= prev[n - 1] * f[j]
    prod = [0] * (2 * n - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            prod[i + j] += int(xi) * int(yj)
    out = prod[:n]
    for t, c in enumerate(prod[n:]):
        for j in range(n):
            out[j] += c * reduction[t][j]
    return tuple(out)


def power(field, x, e: int):
    """x^e for e >= 0, by square and multiply on `mul`."""
    result, base = (1,) + (0,) * (field.degree - 1), tuple(x)
    while e:
        if e & 1:
            result = mul(field, result, base)
        base = mul(field, base, base)
        e >>= 1
    return result


def mul_matrix(field, coords):
    """M(x) as lists of Python integers: column j holds x·theta^j."""
    theta = (0, 1) + (0,) * (field.degree - 2)
    cols = [tuple(int(c) for c in coords)]
    for _ in range(field.degree - 1):
        cols.append(mul(field, cols[-1], theta))
    return [list(r) for r in zip(*cols)]


def norm(field, coords) -> int:
    """N(x) = det M(x), signed."""
    return bareiss(mul_matrix(field, coords))[0]
