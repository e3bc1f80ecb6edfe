"""The chunked frontier scan against the recursive DFS oracle, against an
mpmath brute force of the reduced coordinate box, on the closed boundary,
and in memory; the batched norms against the per-row determinant."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from nfbounds.enumeration import (BoxSpec, _lll_transform, _scan_blocks, count_table,
                                  enumerate_box)
from nfbounds.errors import BoxTooLarge, InvariantError
from nfbounds.numberfield import _bareiss_dets, _fits_int64, _int_det
from nfbounds.zeta import dirichlet_coeffs
from scan_oracle import dfs_scan

ORACLE_CASES = [("q5", 10.0), ("q5", 100.0), ("q5", 300.0), ("quartic", 5.0),
                ("quartic", 10.0), ("octic", 3.0), ("octic", 4.0), ("octic", 5.0)]


def scan_rows(field, box, budget=10 ** 12):
    blocks = list(_scan_blocks(field, box, budget))
    return np.concatenate(blocks) if blocks else np.empty((0, field.degree), dtype=np.int64)


@pytest.mark.parametrize("fixture_name,R", ORACLE_CASES)
def test_frontier_matches_dfs_oracle(request, fixture_name, R):
    """Same rows in the same order, and the same candidate count: the
    budget passes at `examined` and fails one below it."""
    field = request.getfixturevalue(fixture_name)
    box = BoxSpec(R)
    want, examined = dfs_scan(field, box)
    assert np.array_equal(scan_rows(field, box, budget=examined), want)
    with pytest.raises(BoxTooLarge):
        scan_rows(field, box, budget=examined - 1)


@pytest.mark.parametrize("fixture_name,R,dtype", [
    ("q5", 10.0, np.int64), ("q5", 100.0, np.int64), ("q5", 300.0, np.int64),
    ("quartic", 5.0, np.int64), ("quartic", 10.0, np.int64),
    ("octic", 3.0, object), ("octic", 4.0, object), ("octic", 5.0, object)])
def test_norm_rows_match_norm_coords(request, fixture_name, R, dtype):
    field = request.getfixturevalue(fixture_name)
    rows = scan_rows(field, BoxSpec(R))
    want = [field.norm_coords(tuple(int(v) for v in r)) for r in rows]
    # the Hadamard guard picks the dtype these boxes are pinned to
    assert (_fits_int64(field._mul_matrices(rows.astype(float)))) == (dtype is np.int64)
    assert field.norm_rows(rows).tolist() == [abs(v) for v in want]
    # the other dtype path: Python integers everywhere, int64 where it fits
    assert _bareiss_dets(field._mul_matrices(rows.astype(object))).tolist() == want
    small = np.abs(rows).max(axis=1) <= 1
    mats = field._mul_matrices(rows[small].astype(float))
    assert _fits_int64(mats)
    dets = _bareiss_dets(mats.astype(np.int64))
    assert dets.dtype == np.int64
    assert dets.tolist() == [v for v, s in zip(want, small) if s]


@pytest.mark.parametrize("fixture_name", ["q5", "quartic", "octic"])
def test_norm_rows_pivot_swaps(request, fixture_name):
    """theta^j has a zero leading entry in M(x): the kernel must swap rows
    for those matrices only, each to its own first nonzero entry."""
    field = request.getfixturevalue(fixture_name)
    n = field.degree
    rows = np.zeros((2 * n, n), dtype=np.int64)
    for j in range(n):
        rows[j, j] = 1            # theta^j
        rows[n + j, j] = -2       # -2 theta^j, mixed with ...
        rows[n + j, 0] += 3       # ... 3 in front: no swap
    want = [field.norm_coords(tuple(int(v) for v in r)) for r in rows]
    assert _bareiss_dets(field._mul_matrices(rows.astype(object))).tolist() == want
    assert field.norm_rows(rows).tolist() == [abs(v) for v in want]
    # int64 on the rows inside the guard: theta..theta^4 at least, all swaps
    fits = np.array([_fits_int64(field._mul_matrices(r[None].astype(float))) for r in rows])
    assert fits[1:min(n, 5)].all()
    dets = _bareiss_dets(field._mul_matrices(rows[fits]))
    assert dets.dtype == np.int64 and dets.tolist() == list(np.array(want)[fits])


def test_int64_guard(octic, octic_units):
    """u^10 (coordinates up to 891, norm 1) wraps int64 Bareiss: the guard
    must send it to Python integers, and the kernel refuses it as int64."""
    u10 = np.array([(octic_units.units[0] ** 10).coords], dtype=np.int64)
    theta7 = np.eye(8, dtype=np.int64)[7:]
    rows = np.concatenate([u10, theta7])
    assert not _fits_int64(octic._mul_matrices(rows.astype(float)))
    assert octic.norm_rows(rows).tolist() == [1, 2 ** 7]
    for row in rows:
        with pytest.raises(InvariantError):
            _bareiss_dets(octic._mul_matrices(row[None]))


def test_bareiss_dets_match_int_det_on_singular_matrices():
    """Random 0/±1 matrices: many zero pivots, many singular stacks."""
    rng = np.random.default_rng(6)
    for n in (2, 3, 4, 5):
        mats = rng.integers(-1, 2, size=(400, n, n))
        want = [_int_det(m.tolist()) for m in mats]
        assert any(w == 0 for w in want) and any(w != 0 for w in want)
        assert _bareiss_dets(mats.astype(np.int64)).tolist() == want
        assert _bareiss_dets(mats.astype(object)).tolist() == want


def test_count_table_calls_no_per_row_norm(quartic, octic, monkeypatch):
    def per_row(*args):
        pytest.fail("count_table computed a norm row by row")

    monkeypatch.setattr(type(quartic), "norm_coords", per_row)
    for field, R in ((quartic, 6.0), (octic, 3.0)):
        z = dirichlet_coeffs(field, int(R ** field.degree))
        table = count_table(field, BoxSpec(R), z)
        assert table.total_points == len(scan_rows(field, BoxSpec(R)))


# ---------------------------------------------------------------------------
# mpmath brute force over the LLL-reduced coordinate box


def mp_brute_force(field, R, tol):
    """Every nonzero x with |sigma_i(x)| <= R + tol, decided at 60 digits,
    from the integer vectors c of the reduced box |c_j| <= floor(b_j)."""
    n = field.degree
    V = field.embedding_matrix
    U = _lll_transform(V)
    assert abs(_int_det(U.tolist())) == 1  # unimodular: same lattice
    Rt = R + tol
    b = Rt * np.abs(np.linalg.inv(V @ U)).sum(axis=1)
    # margin: a point on the boundary can have c_j = b_j, which floats round
    ranges = [range(-math.floor(bj + 1e-6), math.floor(bj + 1e-6) + 1) for bj in b]
    cand = np.array(list(itertools.product(*ranges)), dtype=np.int64) @ U.T
    cand = cand[np.any(cand != 0, axis=1)]
    # float prefilter far outside its ~1e-13 error; mpmath decides the rest
    near = np.all(np.abs(cand.astype(float) @ V.T) <= Rt + 1e-6, axis=1)
    with mpmath.workdps(60):
        roots = [mpmath.re(r) for r in mpmath.polyroots(
            list(reversed(field.min_poly.coeffs)), maxsteps=200, extraprec=200)]
        bound = mpmath.mpf(Rt)
        out = [tuple(int(v) for v in x) for x in cand[near]
               if all(abs(mpmath.fsum(int(c) * r ** k for k, c in enumerate(x))) <= bound
                      for r in roots)]
    return sorted(out), len(cand) + 1


def test_octic_completeness_vs_mpmath_brute_force(octic):
    want, candidates = mp_brute_force(octic, 3.0, 1e-9)
    assert candidates == 7 * 5 * 3 ** 6  # floor(b_j): 3 for the 1 coordinate
    assert [p.coords for p in enumerate_box(octic, BoxSpec(3.0))] == want


@pytest.mark.parametrize("fixture_name,R", [
    ("q5", 2.0), ("q5", 3.0), ("octic", 2.0), ("octic", 3.0)])
def test_closed_box_boundary_integer_radius(request, fixture_name, R):
    """Tolerance 0: the rational integers ±R lie exactly on the boundary."""
    field = request.getfixturevalue(fixture_name)
    want, _ = mp_brute_force(field, R, 0.0)
    got = [p.coords for p in enumerate_box(field, BoxSpec(R, 0.0))]
    assert got == want
    for k in (int(R), -int(R)):
        assert (k,) + (0,) * (field.degree - 1) in got


@pytest.mark.parametrize("k,inside", [(2, True), (4, True), (6, True), (7, False), (8, False)])
def test_closed_box_boundary_unit_height(q5, k, inside):
    """Tolerance 0 and R = phi^k rounded to the nearest float: theta^k has
    height exactly phi^k, so it is inside iff the float rounded up."""
    with mpmath.workdps(60):
        phi_k = ((1 + mpmath.sqrt(5)) / 2) ** k
        R = float(phi_k)
        assert (mpmath.mpf(R) >= phi_k) == inside
    want, _ = mp_brute_force(q5, R, 0.0)
    got = [p.coords for p in enumerate_box(q5, BoxSpec(R, 0.0))]
    assert got == want
    assert ((q5.theta() ** k).coords in got) == inside


def test_memory_stays_chunked(q5, octic):
    """The scan holds one bounded chunk per level, whatever the box: a
    frontier expanded a whole level at a time needs tens of MiB here."""
    limit = 4 * 2 ** 20
    z = dirichlet_coeffs(q5, 1000)
    list(_scan_blocks(octic, BoxSpec(2.0), 10 ** 8))  # warm the lazy set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        blocks = list(_scan_blocks(octic, BoxSpec(5.0), 10 ** 8))
        kept = sum(b.nbytes for b in blocks)
        octic_extra = tracemalloc.get_traced_memory()[1] - base - kept
        del blocks
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = count_table(q5, BoxSpec(1000.0), z, max_norm=1000)
        q5_extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert kept == 2172 * 8 * 8
    assert table.total_points > 0
    assert octic_extra < limit and q5_extra < limit, (octic_extra, q5_extra)
