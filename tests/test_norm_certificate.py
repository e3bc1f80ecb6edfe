"""The float front of `NumberField.norm_rows` against the exact oracle.

A norm leaves the front only as the rounded float product of the
embeddings under a proven error bound below 1/4, and a cofactor only when
the exact product x·c is N(x); every other row goes to the Bareiss kernel.
Each test compares with the scalar elimination of `tests/bareiss_oracle`,
built from the schoolbook product alone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bareiss_oracle import bareiss, mul_matrix, norm, power
from nfbounds import numberfield
from nfbounds.enumeration import BoxSpec, cached_points, count_table, unit_orbits
from nfbounds.numberfield import Polynomial, parse_field

CUBIC = parse_field(Polynomial((1, -3, 0, 1)), label="x^3 - 3x + 1")


def oracle(field, rows):
    """(N(x), adj(M(x))·e_0) of each row; the second is None for N(x) = 0."""
    e0 = [1] + [0] * (field.degree - 1)
    return [bareiss(mul_matrix(field, row), e0) for row in rows]


def check(field, rows):
    """norm_rows with and without cofactors against the oracle."""
    want = oracle(field, rows)
    assert field.norm_rows(rows).tolist() == [det for det, _ in want]
    if all(det for det, _ in want):
        norms, cofs = field.norm_rows(rows, cofactors=True)
        assert list(zip(norms.tolist(), cofs.tolist())) == want


@pytest.fixture
def kernel_rows(monkeypatch):
    """The rows of every kernel call, as the matrices M(x) it got."""
    calls = []
    kernel = numberfield._bareiss_dets

    def spy(a, rhs=None):
        calls.append(a.astype(object))
        return kernel(a, rhs)

    monkeypatch.setattr(numberfield, "_bareiss_dets", spy)
    return calls


def matrices(field, rows):
    """The power-basis M(x) in Python integers: what the kernel gets for
    each row."""
    return field._mul_matrices(np.array(rows, dtype=object))


def coordinates(n):
    small, wide = st.integers(-30, 30), st.integers(-2 ** 40, 2 ** 40)
    return st.lists(st.tuples(*[st.one_of(small, wide)] * n), min_size=1, max_size=6)


def rows_match_the_oracle(field, data):
    """Drawn nonzero rows of the field against the oracle."""
    rows = data.draw(coordinates(field.degree))
    rows = [r for r in rows if any(r)] or [(1,) + (0,) * (field.degree - 1)]
    check(field, rows)
    assert [norm(field, r) for r in rows] == field.norm_rows(rows).tolist()


@pytest.mark.parametrize("name", ["q5", "cubic", "quartic", "octic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rows_match_the_oracle(request, name, data):
    """Random rows, small enough for the front or past its bound: norms and
    cofactors equal the scalar elimination (Q(sqrt 5) takes the front for
    its cofactors, its norms take the closed form)."""
    field = CUBIC if name == "cubic" else request.getfixturevalue(name)
    rows_match_the_oracle(field, data)


@pytest.mark.parametrize("name", ["q5", "cubic", "quartic", "octic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_rows_match_the_oracle(request, name, data):
    """The same random rows with the front off: every norm and cofactor
    of degree 3 and up, and every cofactor of Q(sqrt 5), from the kernel
    on Python integers."""
    request.getfixturevalue("kernel_only")
    field = CUBIC if name == "cubic" else request.getfixturevalue(name)
    rows_match_the_oracle(field, data)


def test_unit_powers_match_the_oracle(quartic, quartic_units, octic, octic_units):
    """u^k and u^k + 1 for growing k: norms of 1 with coordinates up to
    2^62, where the float product is far off and only the bound keeps it
    out, and a band of k where the norm is settled but the float guess of
    the cofactor is wrong, which only the exact check x·c = N(x) catches."""
    guessed_wrong = 0
    for field, units in ((quartic, quartic_units), (octic, octic_units)):
        rows = []
        for u in units.units:
            for k in range(1, 60):
                uk = power(field, u, k)
                if max(abs(c) for c in uk) >= 2 ** 62:
                    break
                rows += [uk, (uk[0] + 1,) + uk[1:]]
        check(field, rows)
        rows = np.array(rows, dtype=np.int64)
        settled = field._float_norms(rows, False)[2]
        with_cofactor = field._float_norms(rows, True)[2]
        assert not (with_cofactor & ~settled).any()
        guessed_wrong += int((settled & ~with_cofactor).sum())
        assert not settled.all()
    assert guessed_wrong > 0


def test_rows_past_the_bound_take_the_kernel(octic, quartic, kernel_rows):
    """Octic coordinates near 2^15 (|N| far past 2^50), a coordinate of
    -2^63 and one past int64 go to the kernel, and come back exact."""
    rng = np.random.default_rng(5)
    near = (2 ** 15 + rng.integers(-3, 4, (4, 8))).tolist()
    assert min(abs(norm(octic, r)) for r in near) > 2 ** 100
    for field, rows in ((octic, near),
                        (quartic, [(-2 ** 63, 0, 0, 0), (-2 ** 63, 1, -1, 2)]),
                        (quartic, [(2 ** 64 + 1, 1, 0, 0), (3, -2 ** 70, 0, 1)])):
        kernel_rows.clear()
        check(field, rows)
        assert sum(len(m) for m in kernel_rows) == 2 * len(rows)  # with and without cofactors


def test_the_cap_holds_whatever_the_bound(octic, monkeypatch):
    """With a bound that settled every row, a product of 2^50 or more
    would still go to the kernel: the cap alone keeps the int64 cast exact."""
    rng = np.random.default_rng(7)
    rows = (2 ** 15 + rng.integers(-3, 4, (6, 8))).tolist()
    monkeypatch.setattr(numberfield, "_FLOAT_NORM_ERROR", math.inf)
    assert not octic._float_norms(np.array(rows), False)[2].any()
    check(octic, rows)


@pytest.mark.parametrize("field_name", ["cubic", "quartic", "octic"])
def test_zero_row(request, field_name, kernel_rows):
    """The zero row has norm 0 and no cofactor: ZeroDivisionError, alone
    or among rows the front settles."""
    field = CUBIC if field_name == "cubic" else request.getfixturevalue(field_name)
    n = field.degree
    zero, one = (0,) * n, (1,) + (0,) * (n - 1)
    kernel_rows.clear()
    assert field.norm_rows([one, zero, one]).tolist() == [1, 0, 1]
    for rows in ([zero], [one, zero, one]):
        with pytest.raises(ZeroDivisionError):
            field.norm_rows(rows, cofactors=True)
    assert [m.shape[0] for m in kernel_rows] == [1, 1, 1]  # the zero row alone, each time


@pytest.mark.parametrize("cofactors", [False, True])
def test_kernel_gets_only_the_open_rows(quartic, kernel_rows, monkeypatch, cofactors):
    """Box rows around rows the front leaves open, in chunks of 4: the
    kernel gets exactly the open rows of each chunk, in order, and no call
    for a chunk the front settles."""
    box = cached_points(quartic, BoxSpec(6.0))[:10].tolist()
    kernel_rows.clear()  # a first scan inverts the reduced basis in the kernel
    far = [[2 ** 15 + 1, 2 ** 15, 3, 2 ** 15], [-2 ** 63, 0, 0, 1]]
    rows = box[:3] + far[:1] + box[3:9] + far[1:] + box[9:]
    monkeypatch.setattr(numberfield, "_STACK_ROWS", 4)
    want = oracle(quartic, rows)
    got = quartic.norm_rows(rows, cofactors=cofactors)
    norms = got[0] if cofactors else got
    assert norms.tolist() == [det for det, _ in want]
    if cofactors:
        assert got[1].tolist() == [adj for _, adj in want]
    # chunks [box, box, box, far], [box] * 4 and [box, box, far, box]
    assert [m.tolist() for m in kernel_rows] == [matrices(quartic, [r]).tolist() for r in far]


@pytest.mark.parametrize("name,R,rows", [
    ("quartic", 12.0, 6163), ("quartic", 10.0, 2970), ("octic", 4.5, 493), ("octic", 3.5, 75)])
def test_benchmark_boxes_never_reach_the_kernel(request, kernel_rows, name, R, rows):
    """Every row of the benchmark's boxes is settled by the front, norms
    and cofactors: the height-12 quartic orbits, the quartic R = 10 box and
    the octic R = 4.5 and R = 3.5 boxes."""
    field = request.getfixturevalue(name)
    points = cached_points(field, BoxSpec(R))
    half = points[:len(points) // 2]  # one row of each pair x, -x, as `cached_orbits` takes
    assert len(half) == rows
    for cofactors in (False, True):
        assert field._float_norms(half, cofactors)[2].all()
    kernel_rows.clear()
    field.norm_rows(half, cofactors=True)
    unit_orbits(field, half)
    count_table(field, BoxSpec(R), 1000)
    assert kernel_rows == []


def test_cached_tables_are_read_only(octic):
    """The tables a field caches are shared by every caller: writing to
    the enclosure table, V and A of the front, or V^-1 and G of its
    cofactors raises."""
    tables = [*octic._table(numberfield.START_PRECISION_BITS), *octic._float_table,
              *octic._cofactor_table[:2]]
    for table in tables:
        with pytest.raises(ValueError):
            table[0, 0] = 0
