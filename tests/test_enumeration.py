from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from nfbounds.channel import pep_curve
from nfbounds.enumeration import (
    BoxSpec,
    CountTable,
    count_by_norm,
    count_table,
    enumerate_box,
    unit_orbits,
)
from nfbounds.errors import BoxTooLarge, ValidationError
from nfbounds.estimator import add_estimates, estimate_counts
from nfbounds.numberfield import _STACK_ROWS, NumberField
from nfbounds.zeta import dirichlet_coeffs
from bareiss_oracle import bareiss, mul, mul_matrix, norm as oracle_norm, power

PHI = (1 + math.sqrt(5)) / 2


def brute_force_box(field, R):
    """Naive double loop over the coordinate rectangle from the inverse
    embedding matrix (degree 2 only)."""
    V = field.embedding_matrix
    Vinv = np.linalg.inv(V)
    bounds = np.ceil((R + 1e-9) * np.abs(Vinv).sum(axis=1)).astype(int)
    out = []
    for b in range(-bounds[1], bounds[1] + 1):
        for a in range(-bounds[0], bounds[0] + 1):
            if a == 0 and b == 0:
                continue
            y = V @ np.array([a, b], dtype=float)
            if np.all(np.abs(y) <= R + 1e-9):
                out.append((a, b))
    return sorted(out)


def test_box_spec_validation():
    with pytest.raises(ValidationError):
        BoxSpec(0.0)
    with pytest.raises(ValidationError):
        BoxSpec(1.0, -1e-3)


def test_small_boxes(q5):
    empty = enumerate_box(q5, BoxSpec(0.5))
    assert empty.shape == (0, 2) and empty.dtype == np.int64
    points = enumerate_box(q5, BoxSpec(1.0))
    assert points.tolist() == [[-1, 0], [1, 0]]


def test_unit_content_radius_3(q5):
    points = enumerate_box(q5, BoxSpec(3.0))
    units = {tuple(r) for r, k in zip(points.tolist(), q5.norm_rows(points)) if abs(k) == 1}
    theta = (0, 1)
    inv = (-1, 1)  # theta - 1 = 1/theta
    expected = set()
    for j in range(3):
        for a, b in (power(q5, theta, j), power(q5, inv, j)):
            expected |= {(a, b), (-a, -b)}
    assert units == expected
    assert len(units) == 10


@pytest.mark.parametrize("R", [1.0, 2.5, 5.0, 10.0])
def test_completeness_vs_brute_force(q5, R):
    points = [tuple(r) for r in enumerate_box(q5, BoxSpec(R)).tolist()]
    assert points == brute_force_box(q5, R)


def test_determinism_and_order(q5):
    a = enumerate_box(q5, BoxSpec(7.0))
    b = enumerate_box(q5, BoxSpec(7.0))
    assert a.tolist() == b.tolist()
    assert a.tolist() == sorted(a.tolist())


def test_negation_closure(quartic):
    points = {tuple(r) for r in enumerate_box(quartic, BoxSpec(4.0)).tolist()}
    assert all(tuple(-c for c in p) in points for p in points)


@pytest.mark.parametrize("fixture_name,R,tol", [
    ("q5", 10.0, 1e-9), ("q5", 47.0, 0.0), ("q5", 76.0, 0.0), ("q5", 100.0, 1e-9),
    ("quartic", 5.0, 0.0), ("quartic", 8.0, 1e-9), ("quartic", 12.0, 1e-9),
    ("octic", 3.0, 0.0), ("octic", 4.5, 1e-9)])
def test_sorted_box_mirrors_its_halves(request, fixture_name, R, tol):
    """The memoised orbits take the first half of the box as one row of
    each pair x, -x: the box has no zero row, row P-1-i is -(row i), and
    the first half is the rows whose first nonzero coordinate is negative.
    Lucas radii (Q(sqrt 5)) and integer radii at tolerance 0 put points on
    the closed boundary."""
    field = request.getfixturevalue(fixture_name)
    points = enumerate_box(field, BoxSpec(R, tol))
    P = len(points)
    assert P % 2 == 0 and P > 0
    assert np.array_equal(points[P // 2:], -points[:P // 2][::-1])
    lead = [r[np.flatnonzero(r)[0]] for r in points[:P // 2]]
    assert all(c < 0 for c in lead)


def test_budget_guard(q5):
    """A budget too small is a limit; a negative budget is bad input."""
    with pytest.raises(BoxTooLarge):
        enumerate_box(q5, BoxSpec(50.0), budget=100)
    with pytest.raises(BoxTooLarge):
        count_table(q5, BoxSpec(10.0), budget=0)
    with pytest.raises(ValidationError):
        enumerate_box(q5, BoxSpec(10.0), budget=-1)
    with pytest.raises(ValidationError):
        count_table(q5, BoxSpec(10.0), budget=-1)


def test_count_table_examples(q5):
    table = count_by_norm(q5, enumerate_box(q5, BoxSpec(10.0)), BoxSpec(10.0))
    assert table.b[np.searchsorted(table.ks, 1)] == 18  # units +-theta^j, |j| <= 4
    assert 2 not in table.ks       # 2 is inert: no element of norm 2
    assert table.ks[np.searchsorted(table.ks, 100)] == 100
    assert table.b[np.searchsorted(table.ks, 100)] == 2
    # single-row table at R = 1
    t1 = count_by_norm(q5, enumerate_box(q5, BoxSpec(1.0)), BoxSpec(1.0))
    assert list(t1.ks) == [1] and t1.b[0] == 2


def test_count_table_invariants(q5):
    table = count_table(q5, BoxSpec(4.47))
    assert table.cap == int(math.floor(4.47 ** 2 + 1e-9))
    assert np.all(table.b % 2 == 0)              # x and -x counted separately
    assert table.b.sum() == table.total_points
    assert table.max_norm <= 4.47 ** 2 + 1e-6
    mask_a0 = table.a == 0
    assert np.all(table.b[mask_a0] == 0)         # class number one: a=0 -> b=0
    assert np.all(table.ks[table.b > 0] <= table.cap)


def test_fast_path_matches_list_path(q5, quartic):
    for field, R in ((q5, 10.0), (quartic, 4.0)):
        t_list = count_by_norm(field, enumerate_box(field, BoxSpec(R)), BoxSpec(R))
        t_fast = count_table(field, BoxSpec(R))
        assert np.array_equal(t_list.ks, t_fast.ks)
        assert np.array_equal(t_list.b, t_fast.b)
        assert t_list.total_points == t_fast.total_points


def test_count_by_norm_is_exact_past_int64(quartic, quartic_units):
    """A row whose norm passes 2^63 makes the norms `object`: it is past the
    cap and skipped, and every other row is bucketed as without it."""
    box = BoxSpec(5.0)
    rows = enumerate_box(quartic, box)
    u50 = power(quartic, quartic_units.units[0], 50)
    big = (u50[0] + 1,) + u50[1:]
    with_big = np.concatenate([rows, np.array([big], dtype=np.int64)])
    norms = quartic.norm_rows(with_big)
    assert norms.dtype == object and abs(norms[-1]) > 2 ** 63
    table = count_by_norm(quartic, with_big, box)
    want = count_table(quartic, box)
    assert np.array_equal(table.ks, want.ks) and np.array_equal(table.b, want.b)
    assert table.total_points == len(rows)
    counts = {}
    for k in (abs(oracle_norm(quartic, r)) for r in rows):
        counts[k] = counts.get(k, 0) + 1
    assert {int(k): int(b) for k, b in zip(table.ks, table.b) if b} == counts


def test_max_norm_filter(q5):
    table = count_table(q5, BoxSpec(100.0), max_norm=50)
    assert table.cap == 50
    assert table.ks.max() <= 50
    full = count_table(q5, BoxSpec(100.0))
    rows = np.searchsorted(full.ks, table.ks)
    assert np.array_equal(full.ks[rows], table.ks)
    assert np.array_equal(full.b[rows], table.b)


def test_returned_arrays_are_read_only(q5, q5_units):
    """Writing any column, embedding array, log matrix or PEP curve
    raises; a table takes views, so the caller's own arrays stay
    writable."""
    table = add_estimates(count_table(q5, BoxSpec(10.0)), q5_units)
    ks, a, b = np.array([1]), np.array([1]), np.array([2])
    mine = CountTable(R=1.0, degree=2, cap=1, ks=ks, a=a, b=b)
    curve = pep_curve(table, 0.0, 40.0, 81)
    arrays = [getattr(t, c) for t in (table, mine) for c in ("ks", "a", "b")]
    arrays += [table.n_raw, table.n_est, table.f,
               q5.embeddings, q5.embedding_matrix, q5_units.log_matrix,
               curve.snr_db, curve.snr_linear, curve.pe_estimate, curve.pe_exact]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0
    assert all(x.flags.writeable for x in (ks, a, b))


def test_derived_quantities_follow_the_stored_columns(q5, q5_units):
    """total_points, max_norm, n_est and f are read off b and n_raw; the
    constructor takes none of them, and none of them can be written."""
    table = add_estimates(count_table(q5, BoxSpec(10.0)), q5_units)
    assert table.total_points == int(table.b.sum()) == 180
    assert table.max_norm == int(table.ks[table.b > 0].max()) == 100
    assert np.array_equal(table.n_est, np.floor(table.n_raw).astype(np.int64))
    assert np.array_equal(table.f, np.floor(np.abs(table.n_raw - table.b)).astype(np.int64))
    for name in ("total_points", "max_norm", "n_est", "f"):
        with pytest.raises(AttributeError):
            setattr(table, name, None)
        with pytest.raises(TypeError):
            CountTable(R=1.0, degree=2, cap=1, ks=np.array([1]), a=np.array([1]),
                       b=np.array([2]), **{name: None})
    bare = estimate_counts(q5_units, BoxSpec(10.0), 100)
    assert (bare.total_points, bare.max_norm, bare.f) == (0, 0, None)
    assert count_table(q5, BoxSpec(10.0)).n_est is None


def test_a_column_is_the_fields_series(q5, quartic, quartic_units, q5_units):
    """Each table takes its a_k from the field's own memoised series, sized
    to the table: equal at every row to dirichlet_coeffs(field, cap).a."""
    for field, units, R in ((q5, q5_units, 10.0), (quartic, quartic_units, 4.0)):
        box = BoxSpec(R)
        for table in (count_table(field, box), count_table(field, box, max_norm=50),
                      count_by_norm(field, enumerate_box(field, box), box),
                      estimate_counts(units, box, 300)):
            a = dirichlet_coeffs(field, table.cap).a
            assert np.array_equal(table.a, a[table.ks])
            assert set(np.flatnonzero(a).tolist()) <= set(table.ks.tolist())


def test_exact_norm_keys(q5):
    table = count_table(q5, BoxSpec(10.0))
    points = enumerate_box(q5, BoxSpec(10.0))
    norms = sorted({abs(oracle_norm(q5, r)) for r in points.tolist()})
    assert sorted(set(table.ks[table.b > 0].tolist())) == norms


def members(orbits):
    """The member rows of each orbit of a table, as tuples of coordinates."""
    return [tuple(map(tuple, block.tolist()))
            for block in np.split(orbits.rows, orbits.starts[1:])] if len(orbits) else []


def min_heights(field, orbits):
    """The smallest height in each orbit, read off its member rows."""
    heights = np.abs(orbits.rows.astype(float) @ field.embedding_matrix.T).max(axis=1)
    return np.minimum.reduceat(heights, orbits.starts)


def test_unit_orbit_examples(q5):
    theta = (0, 1)
    orbits = unit_orbits(q5, [theta, power(q5, theta, 2), (-1, 0)])
    assert len(orbits) == 1
    assert min_heights(q5, orbits)[0] == pytest.approx(1.0, abs=1e-12)
    # y = x * theta lands in the same principal ideal
    x, y = (-1, 2), (2, 1)
    assert mul(q5, x, theta) == y
    assert len(unit_orbits(q5, [x, y])) == 1
    # recorded outcome: both norm-5 points generate the ramified prime
    assert len(unit_orbits(q5, [[2, 1], [3, -1]])) == 1


def test_orbit_relation_is_equivalence(q5):
    box = enumerate_box(q5, BoxSpec(100.0))
    points = [r for r, k in zip(box.tolist(), q5.norm_rows(box)) if abs(k) == 5]
    orbits = unit_orbits(q5, points)
    groups = members(orbits)
    assert sum(map(len, groups)) == len(points)
    seen = set()
    for group in groups:
        for m in group:
            assert m not in seen  # disjoint (symmetric + transitive grouping)
            seen.add(m)
        # every pair in one orbit is mutually divisible
        g, *rest = group
        for m in rest:
            assert q5.divide_exact(m, g) is not None
            assert q5.divide_exact(g, m) is not None
    # distinct orbits are not mutually divisible
    if len(groups) >= 2:
        assert q5.divide_exact(groups[0][0], groups[1][0]) is None


def test_orbit_min_height_is_ideal_height(q5):
    orbits = unit_orbits(q5, enumerate_box(q5, BoxSpec(10.0)))
    five = np.flatnonzero(orbits.norms == 5)
    # the ramified prime above 5 is generated by 2 theta - 1 with height sqrt5
    assert len(five) == 1
    assert min_heights(q5, orbits)[five[0]] == pytest.approx(math.sqrt(5), abs=1e-9)


def log_lattice_partition(points, unit_system):
    """Independent oracle for unit_orbits: read each point's unit exponents
    off the log lattice, round them, remove that unit exactly in the ring,
    normalise the sign, and group points whose remainders coincide.

    An exponent within 1e-6 of a half-integer is rounded both ways and the
    smallest normalised remainder wins.  Such ties are exact in the octic,
    where 2 is totally ramified, and one float rounding would split them.

    Returns {norm: {tuple of member coordinates}}."""
    field = unit_system.field
    A = unit_system.log_matrix
    gram = A @ A.T
    inverses = [tuple(int(c) for c in field.inverse_coords_rational(u))
                for u in unit_system.units]

    def remainder(x, exponents):
        r = x
        for u, inv, e in zip(unit_system.units, inverses, exponents):
            r = mul(field, r, power(field, inv if e > 0 else u, abs(e)))
        return tuple(-c for c in r) if next(c for c in r if c) < 0 else r

    groups: dict[tuple, list] = {}
    for x in points:
        logs = np.log(np.abs(field.embedding_matrix @ np.array(x, dtype=float)))
        t = np.linalg.solve(gram, A @ (logs - logs.mean()))
        choices = [{math.floor(v), math.ceil(v)} if abs(v - round(v)) > 0.5 - 1e-6
                   else {round(v)} for v in t]
        rep = min(remainder(x, e) for e in itertools.product(*choices))
        groups.setdefault((abs(oracle_norm(field, x)), rep), []).append(x)
    partition: dict[int, set] = {}
    for (k, _rep), members in groups.items():
        partition.setdefault(k, set()).add(tuple(sorted(members)))
    return partition


def division_orbits(field, points):
    """Second oracle: each point, in input order, joins the first orbit of
    its norm whose representative g (its first member) divides it, decided
    by the scalar elimination adj(M(g))·x ≡ 0 mod N(g).  Returns
    [(norm, members)] in the order unit_orbits promises: by norm, then by
    first member, members in input order."""
    by_norm: dict[int, list] = {}
    for x in points:
        groups = by_norm.setdefault(abs(oracle_norm(field, x)), [])
        for mat, members in groups:
            det, adj = bareiss(mat, x)
            if all(c % det == 0 for c in adj):
                members.append(x)
                break
        else:
            groups.append((mul_matrix(field, x), [x]))
    return [(k, tuple(members)) for k in sorted(by_norm) for _, members in by_norm[k]]


@pytest.mark.parametrize("fixture_name,R", [("q5", 100.0), ("quartic", 8.0), ("quartic", 12.0),
                                          ("octic", 4.0), ("octic", 5.0)])
def test_unit_orbits_match_log_lattice_oracle(request, fixture_name, R):
    field = request.getfixturevalue(fixture_name)
    units = request.getfixturevalue(f"{fixture_name}_units")
    rows = enumerate_box(field, BoxSpec(R))
    points = [tuple(r) for r in rows.tolist()]
    orbits = unit_orbits(field, rows)
    table = list(zip(orbits.norms.tolist(), members(orbits)))
    partition: dict[int, set] = {}
    for k, ms in table:
        partition.setdefault(k, set()).add(ms)
    assert partition == log_lattice_partition(points, units)
    # norm ascending, then by smallest member; members sorted by coordinates
    assert [(k, ms[0]) for k, ms in table] == sorted((k, ms[0]) for k, ms in table)
    assert all(list(ms) == sorted(ms) for _, ms in table)
    # the same orbits in the same order as pairwise scalar division
    assert table == division_orbits(field, sorted(points))


def sign_pairs(rows):
    """The rows split by the sign of their first nonzero coordinate: x and
    -x sit at the same index of the two lists."""
    rows = [tuple(r) for r in rows.tolist()]
    pos = [r for r in rows if next(c for c in r if c) > 0]
    return pos, [tuple(-c for c in r) for r in pos]


@pytest.mark.parametrize("fixture_name,R", [("q5", 40.0), ("quartic", 8.0), ("octic", 4.0)])
def test_unit_orbits_order_on_rows_that_are_not_a_box(request, fixture_name, R):
    """Shuffled subsets, rows with only one sign of a pair, and x, -x far
    apart give the partition and the order of scalar division over the
    rows as given: by norm, then by each orbit's first row, members in
    input order."""
    field = request.getfixturevalue(fixture_name)
    rng = np.random.default_rng(22)
    rows = enumerate_box(field, BoxSpec(R))
    pos, neg = sign_pairs(rows)
    assert sorted(pos + neg) == [tuple(r) for r in rows.tolist()]
    size = min(len(pos), 150)
    picks = rng.permutation(len(pos))[:size]
    # both signs, one sign only, and x in the first half with -x in the second
    third = size // 3
    both = [pos[i] for i in picks[:third]] + [neg[i] for i in picks[:third]]
    single = [pos[i] for i in picks[third:2 * third]] + [neg[i] for i in picks[2 * third:]]
    apart = [pos[i] for i in picks] + [neg[i] for i in picks[::-1]]
    cases = {
        "shuffled": [both[i] for i in rng.permutation(len(both))] + single,
        "one sign": [single[i] for i in rng.permutation(len(single))],
        "apart": apart,
        "subset": [tuple(r) for r in rows[rng.choice(len(rows), 2 * size, replace=False)].tolist()],
    }
    for name, points in cases.items():
        orbits = unit_orbits(field, np.array(points, dtype=np.int64))
        table = list(zip(orbits.norms.tolist(), members(orbits)))
        assert table == division_orbits(field, points), name


def test_unit_orbits_past_int64_match_division(q5):
    """Norms past int64 take the Python-integer rounds and give the same
    partition and order as scalar division."""
    c = 2 ** 31 + 11
    base = [(1, 0), (0, 1), (1, 1), (2, 0), (-1, 2), (2, 1)]  # 1, θ, θ², 2, 2θ−1, θ+2
    rows = sorted(base + [(c * a, c * b) for a, b in base])
    orbits = unit_orbits(q5, rows)
    assert orbits.norms.dtype == object and max(orbits.norms) > 2 ** 63
    assert len(orbits) == 6
    table = list(zip(orbits.norms.tolist(), members(orbits)))
    assert table == division_orbits(q5, rows)


def test_unit_orbits_build_head_matrices_past_int64(octic, octic_units):
    """Octic rows of small coordinates and norm near 2^53: the head
    matrix M(c) of their orbit has entries past 2^63 before the reduction
    mod k, so it is built on Python integers, while the products
    n·k·max|y| stay on int64."""
    x = (-5, -7, 1, -7, -6, -11, 12, -7)
    u, v = octic_units.units[:2]
    rows = [mul(octic, x, u), x, tuple(-c for c in mul(octic, x, v)), tuple(-c for c in x)]
    k = abs(oracle_norm(octic, x))
    assert {abs(oracle_norm(octic, r)) for r in rows} == {k}
    assert 8 * k * max(abs(c) for r in rows for c in r) < 2 ** 63
    cofactor = octic.norm_rows(rows[:1], cofactors=True)[1].astype(object) % k  # the head's
    assert np.abs(octic._mul_matrices(cofactor)).max() >= 2 ** 63
    orbits = unit_orbits(octic, rows)
    table = list(zip(orbits.norms.tolist(), members(orbits)))
    assert table == division_orbits(octic, rows)
    assert len(orbits) == 1


def test_unit_orbits_reduce_exact_cofactors_mod_k(octic, octic_units):
    """x = 3·u^16 has norm 3^8 and an int64 exact cofactor c(x) = N(x)/x
    whose M(c) has entries past 2^63: the rounds take c mod k, so the head
    matrices stay inside their int64 bound (a wrap mod 2^64 is no ring map
    mod 3^8)."""
    u, v = octic_units.units[:2]
    x = tuple(3 * c for c in power(octic, u, 16))
    rows = [x, mul(octic, x, v), tuple(-c for c in x)]
    cofactor = octic.norm_rows(rows[:1], cofactors=True)[1]
    assert cofactor.dtype == np.int64
    assert np.abs(octic._mul_matrices(cofactor.astype(object))).max() >= 2 ** 63
    orbits = unit_orbits(octic, rows)
    assert list(zip(orbits.norms.tolist(), members(orbits))) == division_orbits(octic, rows)
    assert len(orbits) == 1


def test_unit_orbits_keep_rows_holding_int64_min_apart(q5):
    """-(-2^63) wraps to -2^63 in int64, so (-1, -2^63) and (1, -2^63)
    look like a pair x, -x but are different rows of different norms: the
    division test alone places them, in orbits of their own."""
    rows = [(-1, -2 ** 63), (1, -2 ** 63), (-2 ** 63, 0), (2 ** 63 - 1, 1)]
    orbits = unit_orbits(q5, np.array(rows, dtype=np.int64))
    table = list(zip(orbits.norms.tolist(), members(orbits)))
    assert table == division_orbits(q5, rows)
    assert not any(rows[0] in ms and rows[1] in ms for _, ms in table)


def test_orbit_table_is_frozen_and_counts_orbits(quartic):
    rows = enumerate_box(quartic, BoxSpec(5.0))
    orbits = unit_orbits(quartic, rows)
    assert len(orbits) == len(orbits.starts) == len(orbits.norms) == len(members(orbits))
    assert orbits.starts[0] == 0 and np.all(np.diff(orbits.starts) > 0)
    assert sorted(map(tuple, orbits.rows.tolist())) == sorted(map(tuple, rows.tolist()))
    for array in (orbits.rows, orbits.starts, orbits.norms):
        assert not array.flags.writeable
    empty = unit_orbits(quartic, np.zeros((0, 4), dtype=np.int64))
    assert len(empty) == 0 and empty.rows.shape == (0, 4)


def test_unit_orbits_take_cofactors_of_round_heads(quartic, monkeypatch):
    """Norms come once for every row; cofactors only for each round's first
    rows and, once the unplaced rows fit one kernel chunk, for those: never
    for the whole input."""
    rows = enumerate_box(quartic, BoxSpec(12.0))
    half = rows[:len(rows) // 2]
    taken = {False: 0, True: 0}
    real_norm_rows = NumberField.norm_rows

    def counted(self, coords, cofactors=False):
        taken[cofactors] += len(coords)
        return real_norm_rows(self, coords, cofactors)

    monkeypatch.setattr(NumberField, "norm_rows", counted)
    orbits = unit_orbits(quartic, half)
    assert taken[False] == len(half) == 6163
    assert taken[True] <= len(orbits) + _STACK_ROWS < len(half)


def test_partial_unit_symmetry(q5):
    """Multiplying by a unit permutes the box points whose image stays inside."""
    R = 10.0
    points = {tuple(r) for r in enumerate_box(q5, BoxSpec(R)).tolist()}
    for x in list(points):
        y = mul(q5, x, (0, 1))
        if float(np.abs(q5.embedding_matrix @ y).max()) <= R - 1e-6:
            assert y in points


def test_completeness_vs_brute_force_quartic(quartic):
    """Independent full scan of the a priori coordinate box, degree 4."""
    R = 5.0
    V = quartic.embedding_matrix
    bounds = np.ceil((R + 1e-9) * np.abs(np.linalg.inv(V)).sum(axis=1)).astype(int)
    brute = []
    for c3 in range(-bounds[3], bounds[3] + 1):
        for c2 in range(-bounds[2], bounds[2] + 1):
            for c1 in range(-bounds[1], bounds[1] + 1):
                base = V[:, 3] * c3 + V[:, 2] * c2 + V[:, 1] * c1
                lo = math.ceil((-R - 1e-9 - base).max())
                hi = math.floor((R + 1e-9 - base).min())
                for c0 in range(lo, hi + 1):
                    if (c0 or c1 or c2 or c3) and np.all(np.abs(base + c0) <= R + 1e-9):
                        brute.append((c0, c1, c2, c3))
    points = [tuple(r) for r in enumerate_box(quartic, BoxSpec(R)).tolist()]
    assert points == sorted(brute)


@pytest.mark.parametrize("fixture_name,R", [("quartic", 10.0), ("octic", 5.0)])
def test_unit_translation_closure(request, fixture_name, R):
    """If x is in the box and x*eps still fits, enumeration must contain it.

    Unit translations sweep each principal-ideal orbit across the box, so
    one-step closure under all fundamental units (and their inverses) is a
    sharp local completeness check at higher degree.
    """
    field = request.getfixturevalue(fixture_name)
    units = request.getfixturevalue(f"{fixture_name}_units").units
    points = {tuple(r) for r in enumerate_box(field, BoxSpec(R)).tolist()}
    steps = []
    for u in units:
        steps.append(u)
        steps.append(tuple(int(c) for c in field.inverse_coords_rational(u)))
    missing = 0
    for x in points:
        for u in steps:
            y = mul(field, x, u)
            if float(np.abs(field.embedding_matrix @ np.array(y, dtype=float)).max()) <= R - 1e-6:
                missing += y not in points
    assert missing == 0


def test_concurrent_reads_are_consistent(q5, quartic):
    from concurrent.futures import ThreadPoolExecutor

    def job(_):
        pts = enumerate_box(q5, BoxSpec(7.0))
        qts = enumerate_box(quartic, BoxSpec(3.0))
        return (pts.tolist(), qts.tolist(), [q5.norm_coords(r) for r in pts[:50].tolist()])

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(job, range(8)))
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("fixture_name,radii", [("q5", (1.0, 3.0, 7.0)), ("quartic", (2.0, 4.0))])
def test_box_monotone_in_radius(request, fixture_name, radii):
    field = request.getfixturevalue(fixture_name)
    sets = [{tuple(r) for r in enumerate_box(field, BoxSpec(R)).tolist()} for R in radii]
    for small, big in zip(sets, sets[1:]):
        assert small <= big
