"""Complete enumeration of Z[theta] points inside a height hypercube.

The search fixes one integer coordinate per level.  The box is the
parallelotope {x : |W x|_inf <= R}, W the embeddings of the field's
LLL-reduced basis, `NumberField.reduced_basis` (a unimodular change of
variables, so the point set is unchanged, and W is well conditioned).
Level j takes its interval from the facets of the box's projection onto
the coordinates j..n-1, one per (j+1)-subset of the embeddings
(`NumberField.projection_facets`, cached per field; only their right-hand
sides scale with R): given the decided coordinates, that is the exact
range of x_j up to a float pad.  It walks the tree as a frontier
(Fincke and Pohst 1985): the intervals of a whole chunk of prefixes are
one product of the facet normals with the chunk's partial embeddings,
expanded into the next level's chunk by one `np.repeat` of each prefix
column over its run, depth-first over chunks, so at most one chunk per
level is alive and working memory is bounded by `_CHUNK_ELEMENTS`.
A chunk is column-major, one column per prefix (partial embeddings
(n, P) float, reduced coordinates (n, P) int64), so every reduction over
embeddings or coordinates runs along the long axis; the scan hands out
its rows as transposes.  Below a fixed prefix x is affine in the
innermost coordinate and the box is convex, so the prefix's box points
form one run of that coordinate: the closed-box rule
|sigma_i(x)| <= R + boundary_tolerance is tested only at the two ends of
each candidate run, which step inward until they pass, and the points
between are inside.  An end within the float error bound of the boundary
is decided by `NumberField.enclose`, in integers, so membership is
certified.

The box is symmetric, so the scan walks only the half of it whose last
nonzero reduced coordinate is positive: a prefix of zeros takes c >= 0
at its level, and c >= 1 at the leaf, so the zero vector is never a
candidate.  The mirror -x of a walked point needs no walk or check of its
own: negated partial embeddings give exactly negated float ranges, and
the closed-box rule reads |sigma_i|.  Each leaf chunk B is yielded as the
one block [B; -B], and the budget counts the whole box's candidates.

Norm bucketing is always exact, and |N(-x)| = |N(x)|: `count_table`
takes the norms of the walked half B of each block only, each counting
two points, one `NumberField.norm_rows` call per block, which runs the
kernel on chunks of `_STACK_ROWS` rows.  A table takes
its a_k from the field's memoised `dirichlet_coeffs`, sieved to the
table's cap before the scan, so no caller sizes or matches a series.
Unit orbits take one more such call over the rows they are given, then
run rounds that place the rows of every norm at once, each taking the
cofactors of its first rows alone; they are kept as
one frozen `OrbitTable` of arrays, not as an object per orbit.  -1 is a
unit, so the memoised orbits of a box are taken over the first half of
its sorted points, one row of each pair x, -x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _memo
from .errors import BoxTooLarge, InvariantError, ValidationError
from .numberfield import (_SCAN_PAD, _STACK_ROWS, AlgebraicInt, NumberField, _closed_box,
                          _coordinate_rows, _max_abs)
from .zeta import dirichlet_coeffs

DEFAULT_BUDGET = 10 ** 8

# prefixes x degree per frontier chunk: bounds the scan's working memory
# whatever the box, yet keeps each numpy call long at every degree
_CHUNK_ELEMENTS = 8192


@dataclass(frozen=True)
class BoxSpec:
    """Hypercube [-R, R]^n with a closed boundary up to a small tolerance."""

    R: float
    boundary_tolerance: float = 1e-9

    def __post_init__(self):
        if not 0 < self.R < math.inf:
            raise ValidationError(f"box radius must be positive and finite, got {self.R}")
        if not 0 <= self.boundary_tolerance < math.inf:
            raise ValidationError("boundary tolerance must be nonnegative and finite")


# ---------------------------------------------------------------------------
# core scan


def _scan_blocks(field: NumberField, box: BoxSpec, budget: int):
    """Yield int64 (2P, n) arrays [B; -B] of accepted power-basis
    coordinate rows, P >= 1, each the transpose of a column-major array:
    every box point exactly once, the zero vector never.

    The walked rows B are the box points whose last nonzero reduced
    coordinate is positive.  Deterministic: they arrive in ascending order
    of the reduced-basis prefix, ascending in the innermost coordinate
    within one prefix, and -B follows B in the same block.  Level j's
    candidates are the integers of the range that the projection facets
    give x_j, padded outward by `_SCAN_PAD`; the budget counts them for
    the whole box, each walked prefix's twice (for it and its mirror) and
    the zero prefix's symmetric range once.  A level with no facet left
    is refused.  At the leaf (j = 0) the facets are the box's own rows.
    For one prefix the box points form a run of innermost coordinates (x
    is affine in it and the box is convex), so the closed-box rule is
    certified at the two ends of each run only.
    """
    n = field.degree
    V = field.embedding_matrix
    U = field.reduced_basis[0]
    W = V @ U
    facets = field.projection_facets
    Rt = box.R + box.boundary_tolerance
    pad = _SCAN_PAD * max(1.0, Rt)
    # the box holds vol(box shrunk by half a reduced cell) / covolume lattice points
    # or more, each a candidate: a box sure to pass the budget is refused at once
    cell = (np.abs(W).sum(axis=1) / 2).tolist()  # Python floats overflow to inf quietly
    least = math.prod(2 * max(Rt - c, 0.0) for c in cell) / abs(np.linalg.det(W)) * (1 - 1e-6)

    examined = 0
    chunk = max(1, _CHUNK_ELEMENTS // n)

    # uncertainty of the float membership test, per unit coordinate mass
    absV = np.abs(V)

    def inside(cols: np.ndarray) -> np.ndarray:
        """Exact closed-box test of power-basis coordinate columns, as a mask."""
        Y = V @ cols.astype(float)
        # sum_j |x_j·sigma_i(theta)^j|: signed columns would let the terms cancel
        unc = absV @ np.abs(cols).astype(float) * 1e-14 + 1e-300
        absy = np.abs(Y)
        keep = (absy <= Rt - unc).all(axis=0)
        for idx in np.flatnonzero(~keep & ~(absy > Rt + unc).any(axis=0)):
            x = AlgebraicInt(field, tuple(int(v) for v in cols[:, idx]))
            keep[idx] = x.embed_mp(_closed_box(Rt))  # certified, in integers
        return keep

    def ranges(j: int, partial: np.ndarray, prefix: np.ndarray):
        """The level-j candidates of every prefix in one chunk, counted
        against the budget for the prefixes and their mirrors: the first
        (float) and the count (int64)."""
        nonlocal examined
        L, h = facets[j]
        offset, rhs = L @ partial, Rt * h[:, None]
        lo = -np.min(offset + rhs, axis=0, initial=np.inf)
        hi = -np.max(offset - rhs, axis=0, initial=-np.inf)
        c_lo, c_hi = np.ceil(lo - pad), np.floor(hi + pad)
        counts = np.maximum(c_hi - c_lo + 1, 0)
        total = counts.sum()
        if not np.isfinite(total):  # no facet left at this level: no budget bounds it
            raise BoxTooLarge(f"level {j} of the scan has no facet left, so its candidate "
                              "range is unbounded", budget_helps=False)
        # the mirror -p of a walked prefix has the exactly negated range; the zero
        # prefix (first in its chunk) is its own mirror and walks only c >= 0, or
        # c >= 1 at the leaf, which leaves out the zero vector
        total *= 2
        if not prefix[:, 0].any():
            total -= counts[0]
            c_lo[0] = max(c_lo[0], float(j == 0))
            counts[0] = max(c_hi[0] - c_lo[0] + 1, 0)
        if not max(examined + total, least) <= budget:
            raise BoxTooLarge(f"candidate budget {budget} exceeded at radius {box.R}")
        examined += int(total)
        return c_lo, counts.astype(np.int64)

    def runs(first: np.ndarray, counts: np.ndarray):
        """The runs first[p], ..., first[p] + counts[p] - 1, in chunks of at
        most `chunk` columns: (prefixes sl, run lengths, coordinates), the
        chunk holding lens[i] columns of prefix sl.start + i, so that a
        prefix column expands to its run by one `np.repeat`."""
        ends = np.cumsum(counts)
        shift = first - ends + counts  # coordinate minus position among all runs
        total = int(ends[-1]) if len(ends) else 0
        for s in range(0, total, chunk):
            e = min(s + chunk, total)
            p, q = np.searchsorted(ends, [s, e - 1], side="right")
            lens = counts[p:q + 1].copy()
            lens[0] = ends[p] - s
            lens[-1] -= ends[q] - e
            yield slice(p, q + 1), lens, np.arange(s, e) + np.repeat(shift[p:q + 1], lens)

    def children(j: int, partial: np.ndarray, prefix: np.ndarray):
        """The level-j candidates of every prefix in one chunk, as chunks of
        at most `chunk` columns: (partial embeddings, reduced coordinates)."""
        for sl, lens, cs in runs(*ranges(j, partial, prefix)):
            block = np.repeat(prefix[:, sl], lens, axis=1)
            block[j] = cs
            yield np.repeat(partial[:, sl], lens, axis=1) + W[:, j, None] * cs, block

    def leaf(partial: np.ndarray, prefix: np.ndarray):
        """The box points below one chunk of level-1 prefixes, as columns:
        each candidate run shrinks from both ends until both are inside."""
        c_lo, counts = ranges(0, partial, prefix)
        some = counts > 0
        base = U @ prefix[:, some]  # each prefix's point at innermost coordinate 0
        first = c_lo[some].astype(np.int64)
        last = first + counts[some] - 1

        low = high = np.arange(len(first))
        while len(low) or len(high):
            high = high[last[high] > first[high]]  # a one-point run is its low end
            ends = np.concatenate((low, high))
            ok = inside(np.take(base, ends, axis=1)
                        + np.multiply.outer(U[:, 0], np.concatenate((first[low], last[high]))))
            low, high = low[~ok[:len(low)]], high[~ok[len(low):]]
            first[low] += 1
            last[high] -= 1
            low = low[first[low] <= last[low]]
        for sl, lens, cs in runs(first, last - first + 1):
            cols = np.repeat(base[:, sl], lens, axis=1)  # each prefix's column per run point
            cols += np.multiply.outer(U[:, 0], cs)
            yield np.concatenate((cols, -cols), axis=1).T

    # one generator per level above the leaf, each expanding one chunk of the
    # level above it; n >= 2, so level 1 always exists
    stack = [children(n - 1, np.zeros((n, 1)), np.zeros((n, 1), dtype=np.int64))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
        elif len(stack) < n - 1:
            stack.append(children(n - 1 - len(stack), *nxt))
        else:
            yield from leaf(*nxt)


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValidationError(f"candidate budget must be nonnegative, got {budget}")


def enumerate_box(field: NumberField, box: BoxSpec,
                  budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """All nonzero x in Z[theta] with height(x) <= R + tolerance.

    Complete and duplicate-free: a read-only int64 (P, n) array of
    power-basis coordinate rows in lexicographic order.
    """
    _check_budget(budget)
    rows = np.concatenate([np.zeros((0, field.degree), dtype=np.int64),
                           *_scan_blocks(field, box, budget)])
    rows = rows[np.lexsort(rows.T[::-1])]
    rows.setflags(write=False)
    return rows


# ---------------------------------------------------------------------------
# per-norm count tables


@dataclass(frozen=True)
class CountTable:
    """Per-norm records for a box: coefficients a_k, exact counts b_k and
    (after estimation) the raw estimates, each a read-only view.  The point
    total, the largest realized norm, the floored estimate and the error
    column are derived from them."""

    R: float
    degree: int
    cap: int                      # largest norm admitted as a row
    ks: np.ndarray                # sorted row keys (a_k != 0 or b_k != 0)
    a: np.ndarray
    b: np.ndarray | None
    n_raw: np.ndarray | None = None

    def __post_init__(self):
        for name in ("ks", "a", "b", "n_raw"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _read_only(getattr(self, name).view()))

    @cached_property
    def total_points(self) -> int:
        return int(self.b.sum()) if self.b is not None else 0

    @cached_property
    def max_norm(self) -> int:
        """Largest |N| realized among the counted points, 0 if none."""
        realized = self.ks[self.b > 0] if self.b is not None else self.ks[:0]
        return int(realized.max()) if len(realized) else 0

    @cached_property
    def n_est(self) -> np.ndarray | None:
        """The floored estimate n_k."""
        return None if self.n_raw is None else _read_only(np.floor(self.n_raw).astype(np.int64))

    @cached_property
    def f(self) -> np.ndarray | None:
        """The error column floor(|n_k_raw - b_k|)."""
        if self.n_raw is None or self.b is None:
            return None
        return _read_only(np.floor(np.abs(self.n_raw - self.b)).astype(np.int64))


def _read_only(column: np.ndarray) -> np.ndarray:
    column.flags.writeable = False
    return column


def _norm_cap(field: NumberField, box: BoxSpec, max_norm: int | None) -> int:
    if max_norm is not None and max_norm < 0:
        raise ValidationError(f"max_norm must be nonnegative, got {max_norm}")
    try:
        geo = int(math.floor((box.R + box.boundary_tolerance) ** field.degree + 1e-9))
    except OverflowError as exc:
        raise BoxTooLarge(f"the norm cap (R + tol)^{field.degree} overflows at radius "
                          f"{box.R} and tolerance {box.boundary_tolerance}",
                          budget_helps=False) from exc
    return min(geo, max_norm) if max_norm is not None else geo


def _build_table(field: NumberField, box: BoxSpec, max_norm: int | None,
                 norm_iter, per_norm: int = 1) -> CountTable:
    """Bucket the norms of norm_iter up to the cap, each counting per_norm
    points; the field's a_k come from its memoised series, sieved before
    the first norm is drawn."""
    cap = _norm_cap(field, box, max_norm)
    a_full = dirichlet_coeffs(field, max(cap, 1)).a[: cap + 1]
    acc = np.zeros(cap + 1, dtype=np.int64)
    for norms in norm_iter:
        # cast only the admitted norms: an `object` norm past int64 would overflow.
        # (np.bincount with minlength=cap + 1 costs O(cap) per block: slower here)
        np.add.at(acc, norms[norms <= cap].astype(np.int64, copy=False), per_norm)
    acc[0] = 0  # a zero divisor's norm; a_0 = 0 too, so k = 0 is never a row
    keys = np.flatnonzero((a_full != 0) | (acc != 0))
    return CountTable(R=box.R, degree=field.degree, cap=cap, ks=keys.astype(np.int64),
                      a=a_full[keys], b=acc[keys])


def count_by_norm(field: NumberField, rows, box: BoxSpec,
                  max_norm: int | None = None) -> CountTable:
    """Exact per-norm counts of explicit coordinate rows."""
    return _build_table(field, box, max_norm, [np.abs(field.norm_rows(rows))])


def count_table(field: NumberField, box: BoxSpec, max_norm: int | None = None,
                budget: int = DEFAULT_BUDGET) -> CountTable:
    """Enumerate the box and bucket by exact |norm| without materialising
    element objects (streaming; each scan block's norms in one call).  Only
    the walked half B of each scan block [B; -B] is normed, and each norm
    counts two points, since |N(-x)| = |N(x)|."""
    _check_budget(budget)
    return _build_table(field, box, max_norm,
                        (np.abs(field.norm_rows(block[:len(block) // 2]))
                         for block in _scan_blocks(field, box, budget)), per_norm=2)


# ---------------------------------------------------------------------------
# unit orbits (principal ideals realized inside a box)


@dataclass(frozen=True, eq=False)
class OrbitTable:
    """Rows grouped by unit orbit: int64 (P, n) coordinate rows, each orbit
    contiguous, orbit i starting at row starts[i] with norm norms[i].  The
    three arrays are read-only, and len() is the orbit count.  The table
    of a box (`cached_orbits`) holds one row of each pair x, -x."""

    rows: np.ndarray
    starts: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        for array in (self.rows, self.starts, self.norms):
            array.setflags(write=False)

    def __len__(self):
        return len(self.starts)


def unit_orbits(field: NumberField, rows) -> OrbitTable:
    """Partition int64 coordinate rows of nonzero elements into unit
    orbits; a row past int64 or of norm zero raises ValidationError.

    Rows x, y with |N(x)| = |N(y)| = k generate one principal ideal iff
    y / x lies in Z[theta], that is iff M(c(x))·y ≡ 0 mod k, where
    c(x) = N(x)/x is the exact cofactor of `norm_rows`, taken mod k here;
    -1 is a unit, so x and -x join one orbit by this test like any other
    pair.  In each round the first unplaced row g of every norm starts an
    orbit, and every unplaced row of that norm that g divides joins it:
    one round per orbit of the most crowded norm.  The norms of all rows
    come from one `norm_rows` call, and each round takes the c(g) of its
    heads alone, until the unplaced rows fit one kernel chunk
    (`_STACK_ROWS`): their cofactors then come in one call, which costs
    about as much as one on a few heads.  The heads' M(c(g) mod k) are
    built on int64 while k·(1 + max|f_i|)^(n-1) < 2^63 bounds their
    entries, and a round's test is n^2 multiply-adds along the rows, on
    int64 when n·k·max|y| < 2^63 over all rows.  Orbits come by ascending
    norm, then by their first row, and members keep the order of rows: for
    lexicographic rows, by coordinates.
    """
    n = field.degree
    rows = _coordinate_rows(rows, n)
    if rows.dtype != np.int64:
        raise ValidationError("unit orbits take coordinate rows within int64")
    norms = field.norm_rows(rows)
    if not norms.all():
        raise ValidationError("unit orbits take rows of nonzero norm")
    order = np.argsort(np.abs(norms), kind="stable")  # by norm, then by row
    norms = np.abs(norms[order])
    # the unplaced rows: positions in norm order, norms and coordinates, batch last
    live, k, y = np.arange(len(rows)), norms, np.take(rows.T, order, axis=1)
    # exact in int64 while every sum of n products stays below 2^63
    if n * int(k.max(initial=0)) * _max_abs(y) >= 2 ** 63:
        k, y = k.astype(object), y.astype(object)
    # M(c) for 0 <= c < k: each column's entries stay below k·(1 + max|f_i|)^(n-1)
    growth = (1 + max(abs(c) for c in field.min_poly.coeffs[:-1])) ** (n - 1)
    head = np.empty(len(rows), dtype=np.intp)  # the first position of each one's orbit
    live_c = None  # the live rows' cofactors, taken once they fit one kernel chunk
    while len(live):
        new = np.r_[True, k[1:] != k[:-1]]
        g, which, kg = live[new], np.cumsum(new) - 1, k[new]  # each norm's g, each row's g
        if live_c is None and len(live) <= _STACK_ROWS:
            _, live_c = field.norm_rows(rows[order[live]], cofactors=True)
        c = (field.norm_rows(rows[order[g]], cofactors=True)[1] if live_c is None
             else live_c[new]) % kg[:, None]
        if int(kg[-1]) * growth >= 2 ** 63:
            c, kg = c.astype(object), kg.astype(object)
        # adj(M(g)) = M(c(g)) mod k, batch last: (row, column, head)
        adj = (field._mul_matrices(c).transpose(1, 2, 0) % kg).astype(k.dtype, copy=False)
        # y joins g's orbit iff M(c(g))·y ≡ 0 mod k, one row of the product at a time
        joins = np.ones(len(live), dtype=bool)
        for i in range(n):
            joins &= sum(adj[i, j][which] * y[j] for j in range(n)) % k == 0
        if not joins[new].all():  # g divides itself: else the rounds would never end
            raise InvariantError("an orbit's first point does not divide itself")
        head[live[joins]] = g[which[joins]]
        live, k, y = live[~joins], k[~joins], y[:, ~joins]
        if live_c is not None:
            live_c = live_c[~joins]
    by_orbit = np.argsort(head, kind="stable")  # positions, orbit by orbit
    head = head[by_orbit]
    starts = np.flatnonzero(np.diff(head, prepend=-1))
    return OrbitTable(np.take(rows, order[by_orbit], axis=0), starts, norms[head[starts]])


# ---------------------------------------------------------------------------
# memoised results shared by the bound computations


def cached_points(field: NumberField, box: BoxSpec) -> np.ndarray:
    key = ("points", field.key(), box.R, box.boundary_tolerance)
    points = _memo.get(key)
    if points is None:
        points = _memo.put(key, enumerate_box(field, box))
    return points


def cached_orbits(field: NumberField, box: BoxSpec) -> OrbitTable:
    """The box's unit orbits, over the first half of its sorted points: the
    box is symmetric and zero-free, so row P-1-i is -(row i), and the first
    half holds one row of each pair x, -x, which share an orbit."""
    key = ("orbits", field.key(), box.R, box.boundary_tolerance)
    orbits = _memo.get(key)
    if orbits is None:
        points = cached_points(field, box)
        orbits = _memo.put(key, unit_orbits(field, points[:len(points) // 2]))
    return orbits
