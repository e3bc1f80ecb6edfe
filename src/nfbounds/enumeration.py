"""Complete enumeration of Z[theta] points inside a height hypercube.

The search runs depth-first over integer coordinates with interval
propagation: at each level the remaining linear constraints
|sum_j c_j sigma_i(theta)^j| <= R are intersected, using a priori ranges
for the still-undecided coordinates.  To keep those intervals tight the
search works in an LLL-reduced coordinate system (a unimodular change of
variables, so the point set is unchanged); the innermost level is
vectorised.  Candidates within a small float margin of the boundary are
re-checked in high precision, so membership under the closed-box rule
|sigma_i(x)| <= R + boundary_tolerance is certified.

Norm bucketing is always exact: a closed-form integer quadratic for
degree 2 (vectorised), integer determinants otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import BoxTooLarge, CutoffMismatch, ValidationError
from .numberfield import AlgebraicInt, NumberField
from .zeta import ZetaSeries

DEFAULT_BUDGET = 10 ** 8

# float slack used before falling back to a high-precision boundary check
_FLOAT_MARGIN = 1e-10


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
# LLL reduction of the embedding basis (float arithmetic, exact unimodular U)


def _lll_transform(B: np.ndarray, delta: float = 0.99) -> np.ndarray:
    n = B.shape[1]
    W = B.astype(float).copy()
    U = np.eye(n, dtype=np.int64)

    def gso(M):
        Q = np.zeros_like(M)
        mu = np.zeros((n, n))
        for i in range(n):
            v = M[:, i].copy()
            for j in range(i):
                denom = Q[:, j] @ Q[:, j]
                mu[i, j] = (M[:, i] @ Q[:, j]) / denom
                v -= mu[i, j] * Q[:, j]
            Q[:, i] = v
        return Q, mu

    Q, mu = gso(W)
    k, steps = 1, 0
    while k < n and steps < 10000:
        steps += 1
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                W[:, k] -= q * W[:, j]
                U[:, k] -= q * U[:, j]
                Q, mu = gso(W)
        if Q[:, k] @ Q[:, k] >= (delta - mu[k, k - 1] ** 2) * (Q[:, k - 1] @ Q[:, k - 1]):
            k += 1
        else:
            W[:, [k - 1, k]] = W[:, [k, k - 1]]
            U[:, [k - 1, k]] = U[:, [k, k - 1]]
            Q, mu = gso(W)
            k = max(k - 1, 1)
    # the transform must be unimodular; fall back to identity otherwise
    det = round(float(np.linalg.det(U.astype(float))))
    if abs(det) != 1:
        return np.eye(n, dtype=np.int64)
    return U


# ---------------------------------------------------------------------------
# core scan


def _scan_blocks(field: NumberField, box: BoxSpec, budget: int):
    """Yield int64 arrays of accepted power-basis coordinate rows.

    Deterministic: blocks arrive in ascending order of the reduced-basis
    prefix, rows ascending in the innermost coordinate.  The zero vector
    is excluded.  Rows are certified against the closed-box rule.
    """
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
            x = AlgebraicInt(field, tuple(int(v) for v in rows[idx]))
            vals = x.embed_mp()
            keep[idx] = all(abs(v) <= Rt for v in vals)
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

    yield from descend(n - 1, np.zeros(n))


def enumerate_box(field: NumberField, box: BoxSpec,
                  budget: int = DEFAULT_BUDGET) -> list[AlgebraicInt]:
    """All nonzero x in Z[theta] with height(x) <= R + tolerance.

    Complete, duplicate-free, and returned in lexicographic coordinate
    order.
    """
    rows = [blk for blk in _scan_blocks(field, box, budget)]
    if not rows:
        return []
    all_rows = np.concatenate(rows, axis=0)
    order = np.lexsort(all_rows.T[::-1])
    return [AlgebraicInt(field, tuple(int(v) for v in r)) for r in all_rows[order]]


# ---------------------------------------------------------------------------
# per-norm count tables


@dataclass(frozen=True)
class CountTable:
    """Per-norm records for a box: exact counts b_k, coefficients a_k, and
    (after estimation) the geometric estimates and error column."""

    R: float
    degree: int
    cap: int                      # largest norm admitted as a row
    max_norm: int                 # largest |N| realized among counted points
    ks: np.ndarray                # sorted row keys (a_k != 0 or b_k != 0)
    a: np.ndarray
    b: np.ndarray | None
    total_points: int
    n_raw: np.ndarray | None = None
    n_est: np.ndarray | None = None
    f: np.ndarray | None = None

    def row(self, k: int):
        idx = int(np.searchsorted(self.ks, k))
        if idx >= len(self.ks) or self.ks[idx] != k:
            raise KeyError(k)
        return {
            "k": k,
            "a": int(self.a[idx]),
            "b": int(self.b[idx]) if self.b is not None else None,
            "n_raw": float(self.n_raw[idx]) if self.n_raw is not None else None,
            "n": int(self.n_est[idx]) if self.n_est is not None else None,
            "f": int(self.f[idx]) if self.f is not None else None,
        }

    def __len__(self):
        return len(self.ks)


def _norm_cap(field: NumberField, box: BoxSpec, max_norm: int | None) -> int:
    geo = int(math.floor((box.R + box.boundary_tolerance) ** field.degree + 1e-9))
    return min(geo, max_norm) if max_norm is not None else geo


def _quadratic_norm_vec(field: NumberField, rows: np.ndarray) -> np.ndarray:
    c0, c1, _ = field.min_poly.coeffs
    peak = int(np.abs(rows).max(initial=0))
    if peak * peak * (1 + abs(c0) + abs(c1)) > 2 ** 62:
        rows = rows.astype(object)  # exactness over speed for extreme inputs
    av, bv = rows[:, 0], rows[:, 1]
    return np.abs(av * av - c1 * av * bv + c0 * bv * bv)


def _build_table(field: NumberField, box: BoxSpec, zeta: ZetaSeries,
                 norm_iter, max_norm: int | None) -> CountTable:
    cap = _norm_cap(field, box, max_norm)
    if zeta.cutoff < cap:
        raise CutoffMismatch(
            f"zeta cutoff {zeta.cutoff} is below the table cap {cap}"
        )
    acc = np.zeros(cap + 1, dtype=np.int64)
    for norms in norm_iter:
        norms = norms[norms <= cap]
        if len(norms):
            acc += np.bincount(norms, minlength=cap + 1)
    acc[0] = 0
    a_full = zeta.a[: cap + 1]
    keys = np.flatnonzero((a_full != 0) | (acc != 0))
    keys = keys[keys >= 1]
    b = acc[keys]
    max_realized = int(keys[b > 0].max()) if np.any(b > 0) else 0
    return CountTable(
        R=box.R,
        degree=field.degree,
        cap=cap,
        max_norm=max_realized,
        ks=keys.astype(np.int64),
        a=a_full[keys].copy(),
        b=b,
        total_points=int(b.sum()),
    )


def count_by_norm(points, zeta: ZetaSeries, box: BoxSpec,
                  max_norm: int | None = None) -> CountTable:
    """Exact per-norm counts of an explicit point list."""
    points = list(points)
    if points:
        field = points[0].field
    else:
        field = zeta.field
    norms = np.array([abs(x.norm()) for x in points], dtype=np.int64)
    return _build_table(field, box, zeta, [norms], max_norm)


def count_table(field: NumberField, box: BoxSpec, zeta: ZetaSeries,
                max_norm: int | None = None,
                budget: int = DEFAULT_BUDGET) -> CountTable:
    """Enumerate the box and bucket by exact |norm| without materialising
    element objects (streaming; the degree-2 norm is fully vectorised)."""

    def norm_iter():
        for rows in _scan_blocks(field, box, budget):
            if field.degree == 2:
                yield _quadratic_norm_vec(field, rows).astype(np.int64)
            else:
                yield np.array(
                    [abs(field.norm_coords(tuple(int(v) for v in r))) for r in rows],
                    dtype=np.int64,
                )

    return _build_table(field, box, zeta, norm_iter(), max_norm)


# ---------------------------------------------------------------------------
# unit orbits (principal ideals realized inside a box)


@dataclass
class Orbit:
    """A unit orbit: all box points generating one principal ideal."""

    norm: int
    members: list[AlgebraicInt]
    min_height: float = dataclass_field(init=False)
    min_height_member: AlgebraicInt = dataclass_field(init=False)

    def __post_init__(self):
        # float heights suffice here: the choice only labels the orbit
        heights = [float(np.abs(m.embed()).max()) for m in self.members]
        idx = int(np.argmin(heights))
        self.min_height = heights[idx]
        self.min_height_member = self.members[idx]


def unit_orbits(points, unit_system) -> list[Orbit]:
    """Partition box points into unit orbits.

    Points sharing a principal ideal differ by a unit; the unit exponent
    vector is read off the log lattice and removed exactly in the ring, so
    two points are grouped iff their canonical representatives coincide.
    A final exact-division sweep inside each norm class guards against
    rounding on the fundamental-domain boundary.
    """
    points = list(points)
    if not points:
        return []
    field = points[0].field
    units = unit_system.units
    A = unit_system.log_matrix
    gram = A @ A.T
    inv_units = []
    for u in units:
        inv = field.inverse_coords_rational(u.coords)
        inv_units.append(field.element([int(c) for c in inv]))

    def unit_power(i: int, e: int) -> AlgebraicInt:
        base = units[i] if e >= 0 else inv_units[i]
        return base ** abs(e)

    def canonical(x: AlgebraicInt) -> tuple[int, ...]:
        logs = np.log(np.abs(x.embed()))
        logs = logs - logs.mean()
        t = np.linalg.solve(gram, A @ logs)
        r = x
        for i, e in enumerate(np.round(t).astype(int)):
            if e:
                r = r * unit_power(i, -int(e))
        coords = r.coords
        for c in coords:
            if c:
                if c < 0:
                    coords = tuple(-v for v in coords)
                break
        return coords

    by_norm: dict[int, list[AlgebraicInt]] = {}
    for x in points:
        by_norm.setdefault(abs(x.norm()), []).append(x)

    orbits: list[Orbit] = []
    for k in sorted(by_norm):
        groups: dict[tuple[int, ...], list[AlgebraicInt]] = {}
        for x in by_norm[k]:
            groups.setdefault(canonical(x), []).append(x)
        reps = sorted(groups)
        merged_into = {}
        for i, r1 in enumerate(reps):
            if r1 in merged_into:
                continue
            e1 = field.element(r1)
            for r2 in reps[i + 1 :]:
                if r2 in merged_into:
                    continue
                if field.divide_exact(field.element(r2), e1) is not None:
                    groups[r1].extend(groups.pop(r2))
                    merged_into[r2] = r1
        for rep in sorted(groups):
            members = sorted(groups[rep], key=lambda m: m.coords)
            orbits.append(Orbit(norm=k, members=members))
    return orbits


# ---------------------------------------------------------------------------
# small memo caches shared by the bound computations


_points_cache: dict[tuple, list] = {}
_orbits_cache: dict[tuple, list] = {}


def cached_points(field: NumberField, box: BoxSpec,
                  budget: int = DEFAULT_BUDGET) -> list[AlgebraicInt]:
    key = (field.key(), box.R, box.boundary_tolerance)
    if key not in _points_cache:
        if len(_points_cache) > 16:
            _points_cache.clear()
        _points_cache[key] = enumerate_box(field, box, budget)
    return _points_cache[key]


def cached_orbits(field: NumberField, unit_system, box: BoxSpec,
                  budget: int = DEFAULT_BUDGET) -> list[Orbit]:
    ukey = tuple(u.coords for u in unit_system.units)
    key = (field.key(), box.R, box.boundary_tolerance, ukey)
    if key not in _orbits_cache:
        if len(_orbits_cache) > 16:
            _orbits_cache.clear()
        _orbits_cache[key] = unit_orbits(cached_points(field, box, budget), unit_system)
    return _orbits_cache[key]
