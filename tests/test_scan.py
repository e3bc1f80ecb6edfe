"""The chunked frontier scan against the recursive DFS oracle, against an
mpmath brute force of the reduced coordinate box, on the closed boundary,
and in memory; the batched Bareiss kernel and its norms against the
scalar elimination oracle."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from nfbounds import enumeration, numberfield
from nfbounds.cli import main
from nfbounds.enumeration import (BoxSpec, _scan_blocks, count_by_norm, count_table,
                                  enumerate_box, unit_orbits)
from nfbounds.errors import BoxTooLarge
from nfbounds.numberfield import (AlgebraicInt, Polynomial, _bareiss_dets, _lll_transform,
                                  parse_field)
from nfbounds.zeta import dirichlet_coeffs
from bareiss_oracle import bareiss, mul_matrix, norm as oracle_norm, power
from scan_oracle import dfs_scan, mp_inside

ORACLE_CASES = [("q5", 10.0), ("q5", 100.0), ("q5", 300.0), ("quartic", 5.0),
                ("quartic", 10.0), ("octic", 3.0), ("octic", 4.0), ("octic", 5.0)]


def scan_rows(field, box, budget=10 ** 12):
    blocks = list(_scan_blocks(field, box, budget))
    return np.concatenate(blocks) if blocks else np.empty((0, field.degree), dtype=np.int64)


def walked_half(field, rows):
    """The rows whose last nonzero reduced coordinate is positive, in order:
    one of each pair x, -x."""
    U = field.reduced_basis
    U_inv = np.rint(np.linalg.inv(U)).astype(np.int64)
    assert np.array_equal(U @ U_inv, np.eye(field.degree, dtype=np.int64))
    reduced = rows @ U_inv.T
    last = np.array([r[np.flatnonzero(r)[-1]] for r in reduced], dtype=np.int64)
    return rows[last > 0]


def first_halves(field, box, budget=10 ** 12):
    """The walked rows of every block, which must be [B; -B]."""
    halves = [np.zeros((0, field.degree), dtype=np.int64)]
    for block in _scan_blocks(field, box, budget):
        half = block[:len(block) // 2]
        assert len(block) == 2 * len(half) and np.array_equal(block[len(half):], -half)
        halves.append(half)
    return np.concatenate(halves)


def matches_dfs_oracle(field, box):
    """Every block is [B; -B], and the B, in order, are the oracle's rows
    whose last nonzero reduced coordinate is positive.  The candidate count
    is the oracle's: the budget passes at `examined` and fails one below
    it."""
    want, examined = dfs_scan(field, box)
    assert np.array_equal(first_halves(field, box, budget=examined), walked_half(field, want))
    with pytest.raises(BoxTooLarge):
        scan_rows(field, box, budget=examined - 1)


@pytest.mark.parametrize("fixture_name,R", ORACLE_CASES)
def test_frontier_matches_dfs_oracle(request, fixture_name, R):
    matches_dfs_oracle(request.getfixturevalue(fixture_name), BoxSpec(R))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_run_ends_match_dfs_oracle(q5, quartic, data):
    """The leaf certifies only the two ends of each innermost run; the
    oracle certifies every candidate.  Same rows, same candidate count."""
    field, top = data.draw(st.sampled_from([(q5, 300.0), (quartic, 8.0)]))
    matches_dfs_oracle(field, BoxSpec(data.draw(st.floats(1.0, top)),
                                      data.draw(st.sampled_from([0.0, 1e-9]))))


@pytest.mark.parametrize("fixture_name,R", [("q5", 10.0), ("q5", 100.0), ("quartic", 5.0),
                                            ("octic", 3.0)])
def test_runs_split_across_chunks_match_dfs_oracle(request, monkeypatch, fixture_name, R):
    """Chunks of three columns split the runs, the zero prefix's clipped
    ones among them, across chunks at every level."""
    field = request.getfixturevalue(fixture_name)
    monkeypatch.setattr(enumeration, "_CHUNK_ELEMENTS", 3 * field.degree)
    matches_dfs_oracle(field, BoxSpec(R))


def test_run_ends_step_inward_on_both_sides(q5, monkeypatch):
    """Tolerance 0 and R the float just below height(20 + 5·theta).  The
    prefix 5·theta then runs from -25 + 5·theta to 20 + 5·theta, and both
    ends have that height: each lies in the padded candidate range, just
    outside the box, so the leaf rejects it in high precision and steps
    inward on both sides."""
    with mpmath.workprec(400):
        height = 20 + 5 * (1 + mpmath.sqrt(5)) / 2
        R = float(height)
        if mpmath.mpf(R) >= height:
            R = math.nextafter(R, 0)
    rechecked = []
    embed_mp = AlgebraicInt.embed_mp

    def recording(self, rule):
        rechecked.append(self.coords)
        return embed_mp(self, rule)

    monkeypatch.setattr(AlgebraicInt, "embed_mp", recording)
    got = [tuple(r) for r in scan_rows(q5, BoxSpec(R, 0.0)).tolist()]
    assert {(20, 5), (-25, 5)} <= set(rechecked)
    assert (19, 5) in got and (-24, 5) in got
    assert (20, 5) not in got and (-25, 5) not in got
    monkeypatch.undo()
    want, _ = mp_brute_force(q5, R, 0.0)
    assert sorted(got) == want
    assert np.array_equal(first_halves(q5, BoxSpec(R, 0.0)),
                          walked_half(q5, dfs_scan(q5, BoxSpec(R, 0.0))[0]))


@pytest.mark.parametrize("R,points,per_point", [(3.5, 150, 5), (4.5, 986, 4)])
def test_octic_scan_examines_few_candidates_per_point(octic, R, points, per_point):
    """Each level bounds its coordinate by the facets of the box's
    projection, so the scan passes a budget below `per_point` candidates
    per box point; bounding the undecided coordinates one embedding at a
    time examined 142 and 58 per point here."""
    assert len(scan_rows(octic, BoxSpec(R), budget=per_point * points - 1)) == points


def test_projection_facets(q5, quartic, octic):
    """Every cached facet is finite and read-only, and its normal lambda
    has lambda·W[:, :j+1] = e_j on the decided coordinate j.  quartic725
    contains Q(sqrt 5), and its reduced basis starts with 1 and an element
    of that subfield: the two embedding pairs that agree on it give
    singular 2x2 blocks W[S, :2], and their level-1 facets are dropped."""
    for field in (q5, quartic, octic):
        n = field.degree
        W = field.embedding_matrix @ field.reduced_basis
        for j, (L, h) in enumerate(field.projection_facets):
            assert np.isfinite(L).all() and np.isfinite(h).all()
            assert not L.flags.writeable and not h.flags.writeable
            assert np.allclose(L @ W[:, :j + 1], np.eye(j + 1)[j], atol=1e-12)
            dropped = math.comb(n, j + 1) - len(L)
            assert dropped == (2 if field is quartic and j == 1 else 0)
    W = quartic.embedding_matrix @ quartic.reduced_basis
    twins = [tuple(np.flatnonzero(np.isclose(W[:, 1], w))) for w in np.unique(W[:, 1].round(9))]
    assert np.all(W[:, 0] == 1) and len(twins) == 2
    supports = {tuple(np.flatnonzero(row)) for row in quartic.projection_facets[1][0]}
    assert supports == set(itertools.combinations(range(4), 2)) - set(twins)


@pytest.mark.parametrize("fixture_name,R", ORACLE_CASES)
def test_scan_blocks_are_int64_row_blocks(request, fixture_name, R):
    """Every block is a nonempty int64 (P, n) array, C-ordered or the
    transpose of one, and the blocks hold the box's points: the benchmark
    counts scanned points as the sum of len(block)."""
    field = request.getfixturevalue(fixture_name)
    box = BoxSpec(R)
    blocks = list(_scan_blocks(field, box, 10 ** 12))
    for block in blocks:
        assert isinstance(block, np.ndarray) and block.dtype == np.int64
        assert block.ndim == 2 and block.shape[0] >= 1 and block.shape[1] == field.degree
        assert block.flags.c_contiguous or block.T.flags.c_contiguous
    assert sum(len(block) for block in blocks) == len(enumerate_box(field, box))


SCAN_BOXES = [("q5", 1000.0, 50000), ("quartic", 12.0, None), ("octic", 5.0, None)]
# the chunk size before it was raised, against which the tables are compared
EARLIER_CHUNK = 8192


@pytest.mark.parametrize("fixture_name,R,max_norm", SCAN_BOXES)
def test_scan_blocks_stay_within_one_chunk(request, fixture_name, R, max_norm):
    """Working memory is bounded by the chunk: a block is one chunk of
    walked rows and their mirrors, so at most 2·max(1, _CHUNK_ELEMENTS // n)
    rows."""
    field = request.getfixturevalue(fixture_name)
    limit = 2 * max(1, enumeration._CHUNK_ELEMENTS // field.degree)
    sizes = [len(block) for block in _scan_blocks(field, BoxSpec(R), 10 ** 12)]
    assert sizes and max(sizes) <= limit
    if fixture_name == "q5":
        assert max(sizes) == limit and len(sizes) > 1


@pytest.mark.parametrize("fixture_name,R,max_norm", SCAN_BOXES)
def test_chunk_size_leaves_tables_unchanged(request, monkeypatch, fixture_name, R, max_norm):
    """The same counts and the same sorted points at the earlier chunk size
    as at the current one."""
    field = request.getfixturevalue(fixture_name)
    assert enumeration._CHUNK_ELEMENTS != EARLIER_CHUNK
    results = []
    for elements in (EARLIER_CHUNK, enumeration._CHUNK_ELEMENTS):
        monkeypatch.setattr(enumeration, "_CHUNK_ELEMENTS", elements)
        table = count_table(field, BoxSpec(R), max_norm)
        results.append((table.ks, table.a, table.b, enumerate_box(field, BoxSpec(R))))
    for earlier, now in zip(*results):
        assert np.array_equal(earlier, now)


def oracle_norms(field, rows):
    return [oracle_norm(field, r) for r in rows]


@pytest.fixture
def kernel_calls(monkeypatch):
    """(dtype of its results, matrices, n, has a right-hand side) of every
    kernel call: it runs on Python integers whatever its input."""
    calls = []
    kernel = numberfield._bareiss_dets

    def spy(a, rhs=None):
        det, adj = kernel(a, rhs)
        calls.append((det.dtype, a.shape[0], a.shape[1], rhs is not None))
        return det, adj

    monkeypatch.setattr(numberfield, "_bareiss_dets", spy)
    return calls


@pytest.mark.parametrize("fixture_name,R", ORACLE_CASES)
def test_norm_rows_match_norm_coords(request, kernel_calls, fixture_name, R):
    field = request.getfixturevalue(fixture_name)
    rows = scan_rows(field, BoxSpec(R))
    want = oracle_norms(field, rows)
    kernel_calls.clear()
    # the one-matrix call of the kernel, on a sample of the rows
    assert [field.norm_coords(tuple(r)) for r in rows[::40].tolist()] == want[::40]
    assert field.norm_rows(rows).tolist() == want
    assert kernel_calls == []  # the float front settles every box row
    # the kernel alone, on the power-basis M(x) the open rows take
    assert _bareiss_dets(field._mul_matrices(rows.astype(object)))[0].tolist() == want


@pytest.mark.parametrize("fixture_name,R", [
    ("quartic", 6.0), ("octic", 3.0), ("octic", 4.0), ("octic", 5.0)])
def test_norm_rows_cofactors_match_oracle(request, kernel_calls, fixture_name, R):
    """Norms and exact cofactors adj(M(x))·e_0 = N(x)/x of box rows against
    the scalar elimination of the power-basis M(x): from the float front,
    which settles every row without the kernel, and from the kernel alone,
    which runs on Python integers."""
    field = request.getfixturevalue(fixture_name)
    rows = scan_rows(field, BoxSpec(R))
    kernel_calls.clear()
    norms, cofs = field.norm_rows(rows, cofactors=True)
    assert norms.tolist() == field.norm_rows(rows).tolist()
    e0 = [1] + [0] * (field.degree - 1)
    for row, k, cof in zip(rows.tolist(), norms.tolist(), cofs.tolist()):
        det, adj = bareiss(mul_matrix(field, row), e0)
        assert (k, cof) == (det, adj)
    assert kernel_calls == []
    request.getfixturevalue("kernel_only")
    kernel_norms, kernel_cofs = field.norm_rows(rows, cofactors=True)
    assert kernel_norms.tolist() == norms.tolist() and kernel_cofs.tolist() == cofs.tolist()
    assert {dtype for dtype, *_ in kernel_calls} == {np.dtype(object)}


@pytest.mark.parametrize("argv,rows", [
    (["counts", "--radius", "4.5", "--max-norm", "1000"], 493),
    (["enumerate", "--radius", "3.5"], 150)], ids=["counts", "enumerate"])
def test_octic_box_norms_take_one_kernel_call(kernel_calls, kernel_only, tmp_path, argv, rows):
    """The octic jobs of the benchmark with the float front off: every box
    row's norm in one kernel call on Python integers, of one row per pair
    x, -x for `counts` (986 box points).  The other calls are the
    resultant and, first among the degree-8 calls without a right-hand
    side, the determinant of the reduced basis."""
    out = tmp_path / "out.csv"
    assert main([argv[0], fixture_path("cyclo32real.json"), *argv[1:], "--out", str(out)]) == 0
    basis_call, *norm_calls = [(dtype, size) for dtype, size, n, rhs in kernel_calls
                               if n == 8 and not rhs]
    assert basis_call == (np.dtype(object), 1)
    assert norm_calls == [(np.dtype(object), rows)]


def test_rows_past_the_reduced_basis_guard_take_python_integers(octic, octic_units,
                                                                kernel_calls, kernel_only):
    """u^3 and u^4 of the first octic unit, and u^3 + 1 and u^4 + 1: the
    kernel takes norms and cofactors of each pair exactly, in one call
    each."""
    u = octic_units.units[0]

    def rows(k):
        uk = power(octic, u, k)
        return np.array([uk, (uk[0] + 1,) + uk[1:]], dtype=np.int64)

    e0 = [1] + [0] * 7
    for k in (3, 4):
        kernel_calls.clear()
        norms, cofs = octic.norm_rows(rows(k), cofactors=True)
        assert octic.norm_rows(rows(k)).tolist() == norms.tolist()
        assert [call[0] for call in kernel_calls] == [np.dtype(object)] * 2
        for row, norm, cof in zip(rows(k).tolist(), norms.tolist(), cofs.tolist()):
            det, adj = bareiss(mul_matrix(octic, row), e0)
            assert (norm, cof) == (det, adj)
        assert abs(norms[0]) == 1


def test_non_unimodular_lll_falls_back_to_the_identity(monkeypatch, quartic, octic):
    """A U that is not unimodular would change the lattice: the field takes
    the power basis instead, and scan and norms are unchanged.  Scan and
    norms share one LLL per field."""
    calls = []

    def doubled(B):
        calls.append(B)
        return 2 * np.eye(B.shape[1], dtype=np.int64)

    for field in (quartic, octic):  # the fixtures keep their real bases
        assert not np.array_equal(field.reduced_basis, np.eye(field.degree))
    monkeypatch.setattr(numberfield, "_lll_transform", doubled)
    for field, R in ((quartic, 6.0), (octic, 3.0)):
        fresh = parse_field(field.min_poly, label=field.label)
        box = BoxSpec(R)
        rows = enumerate_box(fresh, box)
        assert np.array_equal(rows, enumerate_box(field, box))
        assert np.array_equal(fresh.reduced_basis, np.eye(field.degree))
        assert fresh.norm_rows(rows).tolist() == field.norm_rows(rows).tolist()
        got, want = fresh.norm_rows(rows, True), field.norm_rows(rows, True)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert count_table(fresh, box).total_points == len(rows)
    assert len(calls) == 2


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
    want = oracle_norms(field, rows)
    assert _bareiss_dets(field._mul_matrices(rows.astype(object)))[0].tolist() == want
    assert field.norm_rows(rows).tolist() == want


def test_int64_guard(octic, octic_units, kernel_only):
    """u^10 (coordinates up to 891, norm 1) would wrap int64 Bareiss: the
    kernel given it as int64 runs on Python integers, exactly."""
    u10 = np.array([power(octic, octic_units.units[0], 10)], dtype=np.int64)
    theta7 = np.eye(8, dtype=np.int64)[7:]
    rows = np.concatenate([u10, theta7])
    assert octic.norm_rows(rows).tolist() == [1, 2 ** 7]
    for row in rows:
        mats = octic._mul_matrices(row[None])
        assert mats.dtype == np.int64
        det = _bareiss_dets(mats)[0]
        assert det.dtype == object and det.tolist() == [oracle_norm(octic, row.tolist())]


def test_norm_rows_past_int64(quartic, quartic_units):
    """Norms past int64 come back as Python integers, from int64 rows and
    from coordinates past int64 alike; so do the cofactors."""
    coords = [power(quartic, quartic_units.units[0], e) for e in (50, 100)]
    coords = [(c[0] + 1,) + c[1:] for c in coords]
    assert max(abs(c) for c in coords[0]) < 2 ** 62 < max(abs(c) for c in coords[1])
    want = [oracle_norm(quartic, c) for c in coords]
    assert min(abs(w) for w in want) > 2 ** 63
    assert quartic.norm_rows(coords).tolist() == want
    assert quartic.norm_rows(np.array(coords[:1], dtype=np.int64)).tolist() == want[:1]
    assert [quartic.norm_coords(c) for c in coords] == want
    norms, cofs = quartic.norm_rows(coords, cofactors=True)
    for c, k, cof in zip(coords, norms, cofs):
        det, adj = bareiss(mul_matrix(quartic, c), [1, 0, 0, 0])
        assert (k, cof.tolist()) == (det, adj)


def test_norm_rows_mix_int64_and_python_integer_chunks(quartic, quartic_units, monkeypatch):
    """Chunks of two rows: int64 ones around one whose norm is past int64.
    The outputs move to Python integers from that chunk on and keep the
    int64 chunks' values; with no such chunk they stay int64."""
    u = power(quartic, quartic_units.units[0], 50)
    big = (u[0] + 1,) + u[1:]
    small = [(1, 1, 0, 0), (2, 0, 1, 0), (0, 3, 0, 1), (1, 0, 0, 1), (5, 1, 1, 1)]
    monkeypatch.setattr(numberfield, "_STACK_ROWS", 2)
    e0 = [1, 0, 0, 0]
    for rows, dtype in ((small[:3] + [big] + small[3:], object), (small, np.int64)):
        norms, cofs = quartic.norm_rows(np.array(rows, dtype=np.int64), cofactors=True)
        plain = quartic.norm_rows(np.array(rows, dtype=np.int64))
        assert norms.dtype == cofs.dtype == plain.dtype == np.dtype(dtype)
        for row, k, cof, k_plain in zip(rows, norms.tolist(), cofs.tolist(), plain.tolist()):
            det, adj = bareiss(mul_matrix(quartic, row), e0)
            assert (k, k_plain, cof) == (det, det, adj)
    assert abs(oracle_norm(quartic, big)) > 2 ** 63


def test_norm_rows_hold_their_result_once(q5):
    """The norms and cofactors of 80,198 rows of the Q(sqrt 5) box of
    radius 300 are written chunk by chunk into their outputs: the peak
    stays near the result's size, where lists of chunks and their
    concatenation took twice it."""
    first = enumerate_box(q5, BoxSpec(300.0))
    first = first[first[:, 1] > 0]  # one row of each pair x, -x with b != 0
    q5.norm_rows(first[:10], cofactors=True)  # the lazy set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = q5.norm_rows(first, cofactors=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in result)
    assert len(first) == 80198 and size == len(first) * 3 * 8
    assert peak < 1.25 * size, (peak, size)


def test_int64_guard_covers_back_substitution():
    """For M = diag(2^30, 1) and rhs = (0, 2^34), given as int64,
    adj(M)·rhs is (0, 2^64), past int64: the kernel runs on Python
    integers, exactly."""
    mats = np.array([[[2 ** 30, 0], [0, 1]]], dtype=np.int64)
    rhs = np.array([[0, 2 ** 34]], dtype=np.int64)
    det, adj = _bareiss_dets(mats, rhs)
    assert det.dtype == adj.dtype == object
    assert (int(det[0]), adj[0].tolist()) == bareiss(mats[0].tolist(), rhs[0].tolist())
    assert adj[0].tolist() == [0, 2 ** 64]


def test_norm_rows_cofactors_take_python_integers_past_the_sum_bound(octic, kernel_calls,
                                                                     kernel_only):
    """Back substitution sums n = 8 products: a row (a unit product plus 2)
    whose norm and cofactor the kernel takes exactly, on Python
    integers."""
    row = np.array([[3, 4, 2, -6, -3, 2, 1, 0]], dtype=np.int64)
    kernel_calls.clear()
    norm = octic.norm_rows(row)
    det, cof = octic.norm_rows(row, cofactors=True)
    assert [call[0] for call in kernel_calls] == [np.dtype(object)] * 2
    want_det, want_adj = bareiss(mul_matrix(octic, row[0]), [1] + [0] * 7)
    assert norm.tolist() == det.tolist() == [want_det]
    assert cof[0].tolist() == want_adj


def test_int64_guards_take_magnitudes_in_python_integers(q5):
    """|-2^63| wraps to -2^63 in int64: the degree-2 norm guard read 0 for
    N(-2^63) = 2^126, and the orbit guard took int64 for rows whose
    coordinates are all negative."""
    assert q5.norm_rows(np.array([[-2 ** 63, 0]], dtype=np.int64)).tolist() == [2 ** 126]
    assert q5.norm_coords((-2 ** 63, 0)) == 2 ** 126
    row = (-2 ** 63, -1)
    table = unit_orbits(q5, np.array([row], dtype=np.int64))
    assert table.rows.tolist() == [list(row)]
    assert table.norms.tolist() == [abs(oracle_norm(q5, row))] == [2 ** 126 + 2 ** 63 - 1]


def test_bareiss_dets_match_oracle():
    """Random stacks on both input dtypes against the scalar oracle, with
    and without right-hand sides, the results on Python integers: 0/±1
    matrices give many zero pivots (row swaps) and many singular matrices;
    Python integers also get entries far past int64."""
    rng = np.random.default_rng(6)
    swapped = singular = 0
    for dtype, scale in ((np.int64, 3), (object, 10 ** 12)):
        for n in (1, 2, 3, 4, 5, 8):
            mats = rng.integers(-1, 2, size=(300, n, n)).astype(object)
            rhs = rng.integers(-5, 6, size=(300, n)).astype(object)
            mats[150:] *= rng.integers(-scale, scale + 1, size=(150, n, n)).astype(object)
            rhs[150:] *= scale
            mats, rhs = mats.astype(dtype), rhs.astype(dtype)
            dets, _ = _bareiss_dets(mats)
            dets_rhs, adj = _bareiss_dets(mats, rhs)
            assert dets.dtype == adj.dtype == np.dtype(object)
            for m, b, d, d_rhs, a in zip(mats.tolist(), rhs.tolist(), dets.tolist(),
                                         dets_rhs.tolist(), adj.tolist()):
                want_det, want_adj = bareiss(m, b)
                assert d == d_rhs == want_det
                assert a == (want_adj if want_det else [0] * n)
                singular += want_det == 0
                swapped += want_det != 0 and m[0][0] == 0
    assert singular > 100 and swapped > 100


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("B", [1, 7])
def test_bareiss_dets_never_write_their_input(dtype, n, B):
    """The kernel eliminates on its own batch-last copy: for n = 1 or
    B = 1 the transpose of the stack is already contiguous, so
    `ascontiguousarray` would hand back the caller's matrices."""
    rng = np.random.default_rng(n * 10 + B)
    mats = rng.integers(-1, 2, size=(B, n, n)).astype(dtype)
    mats[0, 0, 0] = 0  # a zero pivot: a row swap or a singular matrix
    rhs = rng.integers(-5, 6, size=(B, n)).astype(dtype)
    before = mats.copy(), rhs.copy()
    _bareiss_dets(mats)
    _bareiss_dets(mats, rhs)
    assert mats.dtype == before[0].dtype and rhs.dtype == before[1].dtype
    assert mats.tolist() == before[0].tolist() and rhs.tolist() == before[1].tolist()


def test_count_table_calls_no_per_row_norm(quartic, octic, monkeypatch):
    def per_row(*args):
        pytest.fail("count_table computed a norm row by row")

    monkeypatch.setattr(type(quartic), "norm_coords", per_row)
    for field, R in ((quartic, 6.0), (octic, 3.0)):
        table = count_table(field, BoxSpec(R))
        assert table.total_points == len(scan_rows(field, BoxSpec(R)))


# ---------------------------------------------------------------------------
# mpmath brute force over the LLL-reduced coordinate box


def mp_brute_force(field, R, tol):
    """Every nonzero x with |sigma_i(x)| <= R + tol, decided at 60 digits,
    from the integer vectors c of the reduced box |c_j| <= floor(b_j)."""
    n = field.degree
    V = field.embedding_matrix
    U = _lll_transform(V)
    assert abs(bareiss(U.tolist())[0]) == 1  # unimodular: same lattice
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
    assert [tuple(r) for r in enumerate_box(octic, BoxSpec(3.0)).tolist()] == want


@pytest.mark.parametrize("fixture_name,R", itertools.product(
    ["q5", "quartic", "octic"], [1.0, 2.0, 3.0]))
def test_closed_box_boundary_integer_radius(request, fixture_name, R):
    """Tolerance 0: the rational integers ±R lie exactly on the boundary,
    on all n faces at once.  At such a vertex of the box a coordinate's
    facet range can end exactly on an integer, which the outward pad
    keeps."""
    field = request.getfixturevalue(fixture_name)
    want, _ = mp_brute_force(field, R, 0.0)
    got = [tuple(r) for r in enumerate_box(field, BoxSpec(R, 0.0)).tolist()]
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
    got = [tuple(r) for r in enumerate_box(q5, BoxSpec(R, 0.0)).tolist()]
    assert got == want
    assert (power(q5, (0, 1), k) in got) == inside


def test_closed_box_boundary_mixed_signs(q5):
    """Tolerance 0, x = a + b·theta with a = round(b(1 - phi)) and R either
    float next to height(x).  The signed sum a + b·|1 - phi| is below 1/2
    while |a + b(1 - phi)| is about 1.24b, so the float error bound must be
    taken over |x_j|: over signed coordinates it falls below an ulp of R."""
    for b in range(1, 60):
        with mpmath.workprec(400):
            phi = (1 + mpmath.sqrt(5)) / 2
            a = int(mpmath.nint(b * (1 - phi)))
            height = max(abs(a + b * phi), abs(a + b * (1 - phi)))
            near = float(height)
            side = math.nextafter(near, 0 if mpmath.mpf(near) > height else math.inf)
            radii = [(R, mpmath.mpf(R) > height) for R in (near, side)]
        for R, inside in radii:
            got = {tuple(r) for r in scan_rows(q5, BoxSpec(R, 0.0)).tolist()}
            assert ((a, b) in got, (-a, -b) in got) == (inside, inside), (a, b, R)


@pytest.mark.parametrize("k,inside", [(73, False), (74, True), (75, False), (76, True)])
def test_closed_box_boundary_lucas_radius(q5, k, inside):
    """Tolerance 0, x = phi^k = F_(k-1) + F_k·theta and R = L_k, a Lucas
    number exact as a float.  phi^k = L_k - psi^k with psi = -1/phi, so x
    lies phi^-k inside the box for even k and as far outside for odd k:
    about 2^-102 relative to R, past any fixed 104-bit evaluation.  The
    primitive and the closed-box rule that the scan's run ends use both
    decide it, in agreement with 400-bit mpmath."""
    fib = [0, 1]
    while len(fib) <= k + 1:
        fib.append(fib[-1] + fib[-2])
    x, lucas = (fib[k - 1], fib[k]), fib[k - 1] + fib[k + 1]
    R = float(lucas)
    assert R == lucas and power(q5, (0, 1), k) == x
    with mpmath.workprec(400):
        assert (((1 + mpmath.sqrt(5)) / 2) ** k <= R) == inside
    assert mp_inside(q5, x, R) == inside
    rule = numberfield._closed_box(R)
    minus = tuple(-c for c in x)
    assert q5.enclose([x, minus], rule) == [inside, inside]
    assert AlgebraicInt(q5, x).embed_mp(rule) is inside
    # one float below L_k both are outside, so the decision is not at the ulp of R
    below = numberfield._closed_box(math.nextafter(R, 0))
    assert q5.enclose([x, minus], below) == [False, False]


@pytest.mark.parametrize("fixture_name,R", [("q5", 47.0), ("q5", 76.0), ("quartic", 5.0),
                                            ("octic", 3.0)])
def test_closed_boundary_counts_match_the_oracle(request, fixture_name, R):
    """Tolerance 0 at radii that put points exactly on the closed boundary:
    the Lucas numbers L_8 = 47 and L_9 = 76 for Q(sqrt 5), where phi^8
    lies phi^-8 inside and phi^9 as far outside, and integer R, where the
    rational integers ±R lie on every face.  The scan walks one of each
    pair x, -x and mirrors it: its blocks hold neither the zero row nor any
    row twice, and the streamed counts, the counts of the listed points and
    the DFS oracle's |N| histogram agree."""
    field = request.getfixturevalue(fixture_name)
    box = BoxSpec(R, 0.0)
    blocks = list(_scan_blocks(field, box, 10 ** 12))
    assert not any((block == 0).all(axis=1).any() for block in blocks)
    rows = np.concatenate(blocks).tolist()
    assert len(set(map(tuple, rows))) == len(rows)
    assert {(k,) + (0,) * (field.degree - 1) for k in (R, -R)} <= set(map(tuple, rows))
    want = Counter(abs(oracle_norm(field, r)) for r in dfs_scan(field, box)[0].tolist())
    assert sum(want.values()) == len(rows)
    for table in (count_table(field, box), count_by_norm(field, enumerate_box(field, box), box)):
        counted = table.b > 0
        assert dict(zip(table.ks[counted].tolist(), table.b[counted].tolist())) == want


def test_level_without_facets_is_refused(octic, monkeypatch):
    """A level whose every facet was dropped leaves its candidate range
    unbounded.  The scan refuses that by name, whatever the budget, rather
    than leave the check to a mirrored count of 2·inf - inf = nan."""
    facets = list(octic.projection_facets)
    L, h = facets[3]
    facets[3] = (L[:0], h[:0])
    monkeypatch.setattr(octic, "projection_facets", tuple(facets))
    with pytest.raises(BoxTooLarge, match="level 3 .* unbounded") as refusal:
        next(_scan_blocks(octic, BoxSpec(3.0), 10 ** 12))
    assert not refusal.value.budget_helps


def test_box_sure_to_pass_the_budget_is_refused_at_once(q5):
    """About 1.8·10^12 points lie in the box: walking it up to the budget
    would take seconds and a GiB of rows before the refusal."""
    with pytest.raises(BoxTooLarge):
        next(_scan_blocks(q5, BoxSpec(1e6), 10 ** 8))


def test_memory_stays_chunked(q5, octic):
    """The scan holds one bounded chunk per level, whatever the box: a
    frontier expanded a whole level at a time needs tens of MiB here."""
    limit = 4 * 2 ** 20
    dirichlet_coeffs(q5, 1000)  # the table's series, sieved before the measurement
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
        table = count_table(q5, BoxSpec(1000.0), max_norm=1000)
        q5_extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert kept == 2172 * 8 * 8
    assert table.total_points > 0
    assert octic_extra < limit and q5_extra < limit, (octic_extra, q5_extra)



def _period_poly(k: int, f: int) -> tuple[int, ...]:
    """The integer minimal polynomial, coefficients ascending, of the
    Gaussian periods of Q(zeta_k) over the subgroup H of order f: H = {±1}
    for f = 2 (the real subfield, roots 2 cos(2 pi a / k)), else
    {h : h^f = 1 mod k} for prime k.  -1 lies in H, so it is totally real."""
    H = [1, k - 1] if f == 2 else [h for h in range(1, k) if pow(h, f, k) == 1]
    coeffs, seen = [mpmath.mpf(1)], set()
    with mpmath.workdps(60):
        for a in range(1, k):
            if math.gcd(a, k) == 1 and a not in seen:
                seen.update(a * h % k for h in H)
                r = sum(mpmath.cos(2 * mpmath.pi * a * h / k) for h in H)
                coeffs = [c - r * d for c, d in zip([0] + coeffs, coeffs + [0])]
        return tuple(int(mpmath.nint(c)) for c in coeffs)


# degree: (k, f), one field of each degree 2..16; no real subfield of a
# cyclotomic field has degree 7 or 13 (14 and 26 are no values of phi), so
# those take the periods of order 4 of Q(zeta_29) and Q(zeta_53)
BOUNDARY_FIELDS = {2: (5, 2), 3: (7, 2), 4: (15, 2), 5: (11, 2), 6: (13, 2), 7: (29, 4),
                   8: (17, 2), 9: (19, 2), 10: (25, 2), 11: (23, 2), 12: (35, 2),
                   13: (53, 4), 14: (29, 2), 15: (31, 2), 16: (51, 2)}


@pytest.mark.parametrize("degree", sorted(BOUNDARY_FIELDS))
def test_float_box_verdicts_agree_with_the_enclosure(degree, monkeypatch):
    """Rows whose largest |sigma_i(x)| is the bound to within 3 ulps, and
    rows 32 to 4,096 ulps to either side of it, at degrees 2 to 16: every
    verdict the scan's membership test takes in floats, from the certified
    (V, A), is the closed-box verdict of the enclosure, and the points it
    leaves to the enclosure go there one `embed_mp` call each."""
    field = parse_field(Polynomial(_period_poly(*BOUNDARY_FIELDS[degree])))
    assert field.degree == degree
    rows = np.random.default_rng(degree).integers(-3, 4, size=(40, degree))
    rows = rows[rows.any(axis=1)]
    heights = field.heights(rows)
    rechecked = []

    def spy(self, rule):
        rechecked.append(self.coords)
        return self.field.enclose([self.coords], rule)[0]

    monkeypatch.setattr(AlgebraicInt, "embed_mp", spy)
    floats = 0
    for steps in (-4096, -256, -32, -3, -2, -1, 0, 1, 2, 3, 32, 256, 4096):
        for row, height in zip(rows, heights):
            bound = float(height) + steps * math.ulp(height)
            rechecked.clear()
            got = enumeration._inside(field, row[:, None].copy(), bound)
            want = field.enclose([row.tolist()], numberfield._closed_box(bound))[0]
            assert bool(got[0]) == want, (row.tolist(), steps)
            floats += not rechecked
    assert floats  # the proven band is narrow: floats decide the rows past it
