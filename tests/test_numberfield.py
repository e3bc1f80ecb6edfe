from __future__ import annotations

import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load_fixture_doc
from nfbounds.errors import (EmptyInput, NotMonic, NotSquarefree, NotTotallyReal,
                             PrecisionTooHigh, ValidationError)
from nfbounds.numberfield import (
    Polynomial,
    _isolate,
    _refine,
    min_product_distance,
    parse_field,
    real_roots,
)
from bareiss_oracle import mul, power
from refine_oracle import _mpf_to_fraction, _refine as oracle_refine

PHI = (1 + math.sqrt(5)) / 2


def test_polynomial_validation():
    with pytest.raises(NotMonic):
        Polynomial((1, 1, 2))
    with pytest.raises(NotSquarefree):
        Polynomial((1, 2, 1))  # (x+1)^2
    with pytest.raises(ValidationError):
        Polynomial((0, 1, 1))  # zero constant coefficient
    with pytest.raises(ValidationError):
        Polynomial((1, 1))  # degree 1


def test_parse_field_golden(q5):
    assert q5.degree == 2
    assert q5.signature == (2, 0)
    assert np.allclose(sorted(q5.embeddings), [1 - PHI, PHI], atol=1e-12)
    assert q5.poly_discriminant == 5


def test_parse_field_quartic_sign_change_oracle(quartic):
    # sign changes of f at consecutive integers isolate all four roots
    f = quartic.min_poly
    values = [f(x) for x in (-2, -1, 0, 1, 2, 3)]
    crossings = sum(1 for u, v in zip(values, values[1:]) if u * v < 0)
    assert crossings == 4
    assert len(quartic.embeddings) == 4
    for lo, hi, root in zip((-2, -1, 0, 2), (-1, 0, 1, 3), quartic.embeddings):
        assert lo < root < hi


def test_parse_field_rejects_complex_roots():
    with pytest.raises(NotTotallyReal):
        parse_field(Polynomial((1, 0, 1)))  # x^2 + 1
    with pytest.raises(NotTotallyReal):
        parse_field(Polynomial((-2, 0, 0, 1)))  # x^3 - 2 has one real root


def test_real_roots_golden():
    roots = [float(r) for r in real_roots(Polynomial((-1, -1, 1)), 1e-12)]
    assert roots == pytest.approx([1 - PHI, PHI], abs=1e-12)


def test_real_roots_octic():
    roots = [float(r) for r in real_roots((2, 0, -16, 0, 20, 0, -8, 0, 1))]
    assert len(roots) == 8
    assert roots == pytest.approx([-r for r in roots[::-1]], abs=1e-12)  # symmetric
    assert roots[-1] == pytest.approx(2 * math.cos(math.pi / 16), abs=1e-12)


def test_real_roots_cubic():
    roots = real_roots((-2, 0, 0, 1))
    assert len(roots) == 1
    assert float(roots[0]) == pytest.approx(2 ** (1 / 3), abs=1e-12)


def test_real_root_count():
    assert len(_isolate((1, 0, 1))) == 0
    assert len(_isolate((-1, -1, 1))) == 2
    assert len(_isolate((2, 0, -16, 0, 20, 0, -8, 0, 1))) == 8


def test_exact_integer_roots_handled():
    # x^2 - x - 2 = (x-2)(x+1) is squarefree with integer roots
    roots = [float(r) for r in real_roots((-2, -1, 1))]
    assert roots == pytest.approx([-1.0, 2.0], abs=0)


def _encloses_a_root(coeffs, r, width):
    """f changes sign across [r - width, r + width], or r is an exact root;
    r and width are Fractions, f is summed exactly."""
    def f(x):
        return sum(c * x ** i for i, c in enumerate(coeffs))

    return f(r) == 0 or f(r - width) * f(r + width) < 0


ROOT_POLYS = {name: tuple(load_fixture_doc(f"{name}.json")["min_poly"])
              for name in ("qsqrt5", "quartic725", "cyclo32real")}
ROOT_POLYS.update({"x2-x-2": (-2, -1, 1), "x2-9": (-9, 0, 1),  # exact integer roots
                   "x2-1000000007": (-1000000007, 0, 1)})  # brackets far wider than the roots
ROOT_CASES = [pytest.param(coeffs, bits, id=f"{name}-{bits}")
              for name, coeffs in ROOT_POLYS.items() for bits in (53, 80, 220, 500, 2000)
              if bits < 2000 or len(coeffs) == 3]


@pytest.mark.parametrize("coeffs, bits", ROOT_CASES)
def test_bisected_roots_match_newton_oracle(coeffs, bits):
    """On each isolating interval, the bisected root's enclosure overlaps the
    Newton oracle's, and f changes sign across it or the root is exact.  The
    enclosure is also relative to the root, not to the isolating interval."""
    intervals = _isolate(coeffs)
    assert len(intervals) == len(coeffs) - 1
    for a, b, k in intervals:
        lo, hi = Fraction(a, 1 << k), Fraction(b, 1 << k)
        width = max(1, abs(lo), abs(hi)) * Fraction(1, 2 ** (bits + 4))
        a, b, k = _refine(coeffs, a, b, k, bits)
        assert Fraction(b - a, 1 << k) <= width
        root = Fraction(a + b, 1 << (k + 1))  # the bracket's midpoint
        want, _ = oracle_refine(coeffs, lo, hi, bits)  # its float half-width underflows
        # both brackets hold the root and are at most `width` wide, so their
        # centres lie within `width` of each other; 2^-20 covers the rounding
        assert abs(root - _mpf_to_fraction(want)) <= width * (1 + Fraction(1, 2 ** 20))
        assert lo <= root <= hi
        assert _encloses_a_root(coeffs, root, width)
        assert _encloses_a_root(coeffs, root, max(1, abs(root)) * Fraction(2, 2 ** (bits + 4)))


@given(st.integers(2, 6).flatmap(lambda n: st.lists(st.integers(-30, 30), min_size=n,
                                                     max_size=n)))
@settings(max_examples=200, deadline=None)
def test_parse_field_roots_are_certified(low):
    """Any small monic polynomial is refused by name or gets sorted roots
    that each enclose a root of f to 2^-80 relative."""
    coeffs = (*low, 1)
    try:
        field = parse_field(coeffs)
    except ValidationError:
        return
    roots = [Fraction(a + b, 1 << (k + 1)) for a, b, k in field.brackets]
    assert len(roots) == field.degree and roots == sorted(set(roots))
    for r in roots:
        assert _encloses_a_root(coeffs, r, max(1, abs(r)) * Fraction(1, 2 ** 80))


def test_enclose_doubles_its_bits_up_to_the_ceiling(q5):
    """A rule that never decides sees every doubling from the start bits
    to the ceiling, then PrecisionTooHigh."""
    seen = []

    def never(C, E, bits):
        seen.append(bits)
        return [None] * len(C)

    with pytest.raises(PrecisionTooHigh):
        q5.enclose([(1, 1)], never)
    assert seen == [80, 160, 320, 640, 1280, 2560, 4096]


def embed(field, x):
    """sigma_i(x) in float, from the embedding matrix."""
    return field.embedding_matrix @ np.array(x, dtype=float)


def test_embed_examples(q5):
    assert np.allclose(sorted(embed(q5, (0, 1))), [1 - PHI, PHI], atol=1e-12)
    assert np.allclose(embed(q5, (1, 0)), [1, 1])
    sqrt5 = (-1, 2)  # 2*theta - 1
    assert np.allclose(sorted(embed(q5, sqrt5)), [-math.sqrt(5), math.sqrt(5)], atol=1e-12)


def test_norm_examples(q5):
    assert q5.norm_coords((0, 1)) == -1
    assert q5.norm_coords((2, 1)) == 5
    # both values to be confirmed by the resultant: a=1,b=1 and a=-1,b=2
    assert q5.norm_coords((1, 1)) == 1
    assert q5.norm_coords((-1, 2)) == -5
    assert q5.norm_coords((0, 0)) == 0


def test_height_examples(q5):
    theta4 = power(q5, (0, 1), 4)
    heights = q5.heights([(1, 0), (0, 1), theta4, (0, 0)])
    assert heights.tolist() == pytest.approx([1.0, PHI, PHI ** 4, 0.0], abs=1e-12)
    assert heights[-1] == 0.0


def test_min_product_distance(q5):
    theta = (0, 1)
    assert min_product_distance(q5, [(1, 0), (2, 1)]) == 1
    assert min_product_distance(q5, [theta, power(q5, theta, 2)]) == 1  # units only
    assert min_product_distance(q5, np.array([[2, 1], [3, 0]])) == 5
    with pytest.raises(EmptyInput):
        min_product_distance(q5, [])
    with pytest.raises(ValidationError):
        min_product_distance(q5, [(0, 0)])
    with pytest.raises(ValidationError):
        min_product_distance(q5, [(1, 2, 3)])


coords2 = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(coords2, coords2)
@settings(max_examples=80, deadline=None)
def test_norm_multiplicative_quadratic(a, b):
    field = parse_field(Polynomial((-1, -1, 1)))
    assert field.norm_coords(mul(field, a, b)) == field.norm_coords(a) * field.norm_coords(b)


coords4 = st.tuples(*[st.integers(-9, 9)] * 4)


@given(coords4, coords4)
@settings(max_examples=40, deadline=None)
def test_norm_multiplicative_quartic(a, b):
    field = parse_field(Polynomial((1, 1, -3, -1, 1)))
    assert field.norm_coords(mul(field, a, b)) == field.norm_coords(a) * field.norm_coords(b)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mul_matrices_match_schoolbook_product(q5, quartic, octic, data):
    """x·y = M(x)·y, the library's one multiplication, against the oracle."""
    field = data.draw(st.sampled_from([q5, quartic, octic]))
    row = st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=field.degree, max_size=field.degree)
    x, y = data.draw(row), data.draw(row)
    got = field._mul_matrices(np.array([x], dtype=object))[0] @ np.array(y, dtype=object)
    assert tuple(got.tolist()) == mul(field, x, y)


@given(coords2)
@settings(max_examples=60, deadline=None)
def test_norm_height_inequalities(a):
    field = parse_field(Polynomial((-1, -1, 1)))
    if not any(a):
        return
    h = field.heights([a])[0]
    n = abs(field.norm_coords(a))
    assert n <= h ** field.degree * (1 + 1e-9)
    assert h >= n ** (1 / field.degree) * (1 - 1e-12)
    assert h >= 1 - 1e-12


@given(coords2, coords2)
@settings(max_examples=60, deadline=None)
def test_embed_additive(a, b):
    field = parse_field(Polynomial((-1, -1, 1)))
    lhs = embed(field, [p + q for p, q in zip(a, b)])
    rhs = embed(field, a) + embed(field, b)
    assert np.allclose(lhs, rhs, atol=1e-9)


@given(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)))
@settings(max_examples=60, deadline=None)
def test_embed_product_matches_norm(a):
    field = parse_field(Polynomial((-1, -1, 1)))
    if not any(a):
        return
    prod = float(np.prod(embed(field, a)))
    assert prod == pytest.approx(field.norm_coords(a), rel=1e-9)


def test_division_and_inverse(q5):
    theta, x = (0, 1), (2, 1)
    assert q5.divide_exact(mul(q5, x, theta), theta) == x
    assert q5.divide_exact(x, (3, 0)) is None
    inv = q5.inverse_coords_rational((2, 1))
    assert inv == [Fraction(3, 5), Fraction(-1, 5)]  # (2+theta)(3-theta) = 5


# -- reference for the adjugate kernel: extended Euclid over Q ---------------


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _euclid_inverse(field, coords):
    """1/x over Q from s*x + t*f = 1, all in Fractions."""
    r0, s0 = [Fraction(c) for c in field.min_poly.coeffs], [Fraction(0)]
    r1, s1 = _trim(Fraction(c) for c in coords), [Fraction(1)]
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    while len(r1) > 1:
        q = [Fraction(0)] * (len(r0) - len(r1) + 1)
        rem = list(r0)
        while len(rem) >= len(r1):
            k = len(rem) - len(r1)
            q[k] = rem[-1] / r1[-1]
            for j, cj in enumerate(r1):
                rem[k + j] -= q[k] * cj
            rem.pop()
        rem = _trim(rem)
        if not rem:
            raise ZeroDivisionError("zero divisor")
        qs = [Fraction(0)] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                qs[i + j] += qi * sj
        s_next = [Fraction(0)] * max(len(s0), len(qs))
        for i, c in enumerate(s0):
            s_next[i] += c
        for i, c in enumerate(qs):
            s_next[i] -= c
        r0, s0, r1, s1 = r1, s1, rem, _trim(s_next) or [Fraction(0)]
    inv = [c / r1[0] for c in s1]
    return inv + [Fraction(0)] * (field.degree - len(inv))


def _euclid_quotient(field, x, y):
    """x / y over Q: x times the reference inverse, reduced mod f."""
    inv = _euclid_inverse(field, y)
    prod = [Fraction(0)] * (2 * field.degree)
    for i, xi in enumerate(x):
        for j, cj in enumerate(inv):
            prod[i + j] += xi * cj
    f, n = field.min_poly.coeffs, field.degree
    for d in range(len(prod) - 1, n - 1, -1):
        lead = prod[d]
        for j in range(n + 1):
            prod[d - n + j] -= lead * f[j]
    return prod[:n]


def _nonzero_coords(data, field, bound=30):
    coords = data.draw(st.lists(st.integers(-bound, bound),
                                min_size=field.degree, max_size=field.degree))
    assume(any(coords))
    return coords


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_adjugate_inverse_matches_euclid(q5, quartic, octic, data):
    field = data.draw(st.sampled_from([q5, quartic, octic]))
    coords = _nonzero_coords(data, field)
    assert field.inverse_coords_rational(coords) == _euclid_inverse(field, coords)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_divide_exact_matches_euclid(q5, quartic, octic, data):
    field = data.draw(st.sampled_from([q5, quartic, octic]))
    x = tuple(_nonzero_coords(data, field))
    y = tuple(_nonzero_coords(data, field, bound=3))
    assert field.divide_exact(mul(field, x, y), y) == x
    ref = _euclid_quotient(field, x, y)
    q = field.divide_exact(x, y)
    if all(c.denominator == 1 for c in ref):
        assert q is not None and list(q) == ref
    else:
        assert q is None


def test_unit_inverses_match_euclid(q5_units, quartic_units, octic_units):
    for us in (q5_units, quartic_units, octic_units):
        field = us.field
        one = (1,) + (0,) * (field.degree - 1)
        units = list(us.units)
        units += [mul(field, u, u) for u in units] + [mul(field, units[0], units[-1])]
        for u in units:
            inv = field.inverse_coords_rational(u)
            assert inv == _euclid_inverse(field, u)
            assert all(c.denominator == 1 for c in inv)
            inv = tuple(int(c) for c in inv)
            assert mul(field, u, inv) == one
            assert field.divide_exact(one, u) == inv


def test_division_by_zero_and_zero_divisors(q5, quartic, octic):
    for field in (q5, quartic, octic):
        zero, one = (0,) * field.degree, (1,) + (0,) * (field.degree - 1)
        with pytest.raises(ZeroDivisionError):
            field.inverse_coords_rational(zero)
        with pytest.raises(ZeroDivisionError):
            field.divide_exact(one, zero)
    # Z[x]/((x^2-1)(x^2-4)) is not a domain: theta - 1 divides zero
    split = parse_field(Polynomial((4, 0, -5, 0, 1)))
    with pytest.raises(ZeroDivisionError):
        split.inverse_coords_rational((-1, 1, 0, 0))


def test_poly_discriminant_all_fixtures(q5, quartic, octic):
    assert q5.poly_discriminant == 5
    assert quartic.poly_discriminant == 725
    assert octic.poly_discriminant == 2 ** 31
    # independent check: prod_{i<j} (r_i - r_j)^2 from the embeddings
    for field in (q5, quartic, octic):
        r = [Fraction(a + b, 1 << (k + 1)) for a, b, k in field.brackets]
        prod = 1
        for i in range(field.degree):
            for j in range(i + 1, field.degree):
                prod *= (r[i] - r[j]) ** 2
        assert float(prod) == pytest.approx(field.poly_discriminant, rel=1e-12)
