"""Coordinate rows enter the exact layer through one checked intake,
`numberfield._coordinate_rows`: every public entry that takes rows refuses
a coordinate that is no integer, or is a bool, and a row of the wrong
length, with ValidationError, and never truncates it.  The cofactors of
`norm_rows`, and the inverses and quotients read from them, are exact
against the scalar elimination oracle, past int64 too."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from nfbounds import numberfield
from nfbounds.cli import load_field_document
from nfbounds.enumeration import BoxSpec, count_by_norm, unit_orbits
from nfbounds.errors import ValidationError
from nfbounds.numberfield import (AlgebraicInt, Polynomial, _rounded, min_product_distance,
                                  parse_field)
from nfbounds.units import build_unit_system
from bareiss_oracle import bareiss, mul, mul_matrix

# each of these returned a wrong answer or an unnamed error on Q(sqrt 5)
# before the intake: (1.5, 0) had norm 1 as a list and 2 as an array
BAD_ROWS = {
    "float": [(1.5, 0)],
    "float-array": np.array([[1.5, 0.0]]),
    "bool": [(True, 1)],
    "string": [("7", 1)],
    "wrong-length": [(1, 0, 0)],
}

ENTRIES = {
    "enclose": lambda f, rows: f.enclose(rows, _rounded),
    "heights": lambda f, rows: f.heights(rows),
    "embed_mp": lambda f, rows: AlgebraicInt(f, tuple(rows[0])).embed_mp(_rounded),
    "norm_rows": lambda f, rows: f.norm_rows(rows),
    "norm_rows-cofactors": lambda f, rows: f.norm_rows(rows, cofactors=True),
    "norm_coords": lambda f, rows: f.norm_coords(rows[0]),
    "count_by_norm": lambda f, rows: count_by_norm(f, rows, BoxSpec(3.0)),
    "min_product_distance": lambda f, rows: min_product_distance(f, rows),
    "inverse_coords_rational": lambda f, rows: f.inverse_coords_rational(rows[0]),
    "divide_exact-numerator": lambda f, rows: f.divide_exact(rows[0], (1, 0)),
    "divide_exact-divisor": lambda f, rows: f.divide_exact((1, 0), rows[0]),
    "unit_orbits": lambda f, rows: unit_orbits(f, rows),
    "build_unit_system": lambda f, rows: build_unit_system(f, rows),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("rows", BAD_ROWS)
def test_rows_that_are_not_integer_coordinates_are_refused(q5, entry, rows):
    with pytest.raises(ValidationError):
        ENTRIES[entry](q5, BAD_ROWS[rows])


def test_every_form_of_integer_rows_gives_the_same_values(q5):
    """Lists of Python integers, int64, int32 and `object` arrays, numpy
    scalars and a single int64 row: one set of values; a coordinate past
    int64 keeps Python integers, and |-2^63| does not wrap."""
    rows = [(1, 0), (2, 1), (-3, 5), (7, -4)]
    want = q5.norm_rows(np.array(rows, dtype=np.int64))
    heights = q5.heights(np.array(rows, dtype=np.int64))
    forms = [rows, [list(r) for r in rows], np.array(rows, dtype=np.int32),
             np.array(rows, dtype=object), [tuple(np.int64(c) for c in r) for r in rows]]
    for form in forms:
        assert q5.norm_rows(form).tolist() == want.tolist()
        assert q5.heights(form).tolist() == heights.tolist()
    assert q5.norm_rows(np.array(rows[1], dtype=np.int64)).tolist() == want[1:2].tolist()
    assert q5.norm_rows([(2 ** 64, 0)]).tolist() == [2 ** 128]
    radii = []  # the enclosure radii of sigma_i(theta)·(-2^63), nonnegative
    q5.enclose(np.array([[0, -2 ** 63]], dtype=np.int64), lambda C, E, bits: radii.append(E) or [1])
    assert (radii[0] >= 0).all()
    assert q5.norm_rows(np.zeros((0, 2), dtype=np.int32)).tolist() == []


def test_unit_orbits_name_their_refusals(q5):
    with pytest.raises(ValidationError, match="nonzero"):
        unit_orbits(q5, [(1, 0), (0, 0)])
    with pytest.raises(ValidationError, match="int64"):
        unit_orbits(q5, [(1, 0), (2 ** 63, 1)])


# coordinates around and far past 2^63
COORDINATE = st.one_of(st.integers(-40, 40), st.integers(-2 ** 66, 2 ** 66),
                       st.sampled_from([2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_cofactors_inverses_and_quotients_match_the_oracle(q5, quartic, octic, data):
    """`norm_rows` returns N(x) and c(x) = adj(M(x))·e_0 exactly, 1/x is
    c(x)/N(x), and x/y is x·c(y)/N(y) when that is integral, else None."""
    field = data.draw(st.sampled_from([q5, quartic, octic]))
    n = field.degree
    row = st.lists(COORDINATE, min_size=n, max_size=n).filter(any)
    xs, y = data.draw(st.lists(row, min_size=1, max_size=4)), data.draw(row)
    e0 = [1] + [0] * (n - 1)
    want = [bareiss(mul_matrix(field, x), e0) for x in xs]
    norms, cofs = field.norm_rows(xs, cofactors=True)
    assert list(zip(norms.tolist(), cofs.tolist())) == want
    if all(-2 ** 63 <= c < 2 ** 63 for x in xs for c in x):
        norms, cofs = field.norm_rows(np.array(xs, dtype=np.int64), cofactors=True)
        assert list(zip(norms.tolist(), cofs.tolist())) == want
    det, adj = want[0]
    assert field.inverse_coords_rational(xs[0]) == [Fraction(c, det) for c in adj]
    det, adj = bareiss(mul_matrix(field, y), e0)
    num = mul(field, xs[0], adj)
    quotient = tuple(c // det for c in num) if all(c % det == 0 for c in num) else None
    assert field.divide_exact(xs[0], y) == quotient
    assert field.divide_exact(mul(field, xs[0], y), y) == tuple(xs[0])


@pytest.mark.parametrize("coeffs", [(-5.7, 0, 1), ("-5", 0, 1), (-5.0, 0, 1), (-5, 0, True)])
def test_polynomial_coefficients_follow_the_integer_rule(coeffs):
    """Each of these became x^2 - 5 before; numpy integers still load."""
    with pytest.raises(ValidationError, match="integers"):
        Polynomial(coeffs)
    with pytest.raises(ValidationError, match="integers"):
        parse_field(list(coeffs))
    poly = Polynomial(tuple(np.array([-5, 0, 1])))
    assert poly == Polynomial((-5, 0, 1)) and all(type(c) is int for c in poly.coeffs)


@pytest.mark.parametrize("coeffs", [None, 5])
def test_polynomial_coefficients_must_be_a_sequence(coeffs):
    with pytest.raises(ValidationError, match="integers"):
        Polynomial(coeffs)
    with pytest.raises(ValidationError, match="integers"):
        parse_field(coeffs)


def test_a_norm_of_size_2_63_keeps_python_integers():
    """N = -2^63 is past int64 for its callers, whose np.abs would wrap it:
    2^31·sqrt(2) in Z[sqrt 2] by the degree-2 closed form, 2^21·theta in
    Z[theta] for x^3 - 3x + 1 by the kernel."""
    quadratic, cubic = parse_field((-2, 0, 1)), parse_field((1, -3, 0, 1))
    assert quadratic.norm_rows([(0, 2 ** 31)]).tolist() == [-2 ** 63]
    assert cubic.norm_rows(np.array([(0, 2 ** 21, 0)])).tolist() == [-2 ** 63]
    assert cubic.norm_rows([(0, 2 ** 21, 0)], cofactors=True)[0].tolist() == [-2 ** 63]
    for field, row in ((quadratic, (0, 2 ** 31)), (cubic, (0, 2 ** 21, 0))):
        assert min_product_distance(field, [row]) == 2 ** 63
        assert unit_orbits(field, np.array([row])).norms.tolist() == [2 ** 63]


def test_one_resultant_per_polynomial(monkeypatch):
    """The squarefree test's resultant is the discriminant's: loading a
    field and reading its discriminant build one Sylvester resultant."""
    calls = []
    real = numberfield._sylvester_resultant

    def counted(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(numberfield, "_sylvester_resultant", counted)
    field, _doc = load_field_document(fixture_path("cyclo32real.json"))
    assert field.poly_discriminant == 2 ** 31
    assert calls == [9]
