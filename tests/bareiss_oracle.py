"""Scalar fraction-free elimination: the exact linear-algebra oracle.

One matrix at a time, in pure-Python integers, with a row loop per
elimination step.  The library runs the same elimination on whole stacks
of matrices in numpy (`numberfield._bareiss_dets`); the tests compare the
two matrix by matrix.  Norms here build M(x) from ring products alone,
not from the library's batched multiplication matrices.
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


def mul_matrix(field, coords):
    """M(x) as lists of Python integers: column j holds x·theta^j."""
    theta = field.theta().coords
    cols = [tuple(int(c) for c in coords)]
    for _ in range(field.degree - 1):
        cols.append(field.mul_coords(cols[-1], theta))
    return [list(r) for r in zip(*cols)]


def norm(field, coords) -> int:
    """N(x) = det M(x), signed."""
    return bareiss(mul_matrix(field, coords))[0]
