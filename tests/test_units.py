from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from nfbounds.enumeration import BoxSpec, enumerate_box
from nfbounds.errors import (DependentUnits, InvariantError, NotAUnit, RegulatorMismatch,
                             ValidationError, WrongRank)
from nfbounds.numberfield import Polynomial, parse_field
from nfbounds.units import _floor_surd, build_unit_system, quadratic_fundamental_unit
from bareiss_oracle import mul, power

GOLDEN_REGULATOR = 0.481211825059603


def floor_surd_by_steps(P: int, D: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) for D a positive nonsquare, by stepping a
    first guess until c <= (P + sqrt(D)) / Q < c + 1 holds exactly."""
    def below_sqrt(x):  # x < sqrt(D), never equal for a nonsquare D
        return x < 0 or x * x < D

    def le(c):  # c <= (P + sqrt(D)) / Q
        return below_sqrt(c * Q - P) if Q > 0 else not below_sqrt(c * Q - P)

    a = (P + math.isqrt(D)) // Q
    while le(a + 1):
        a += 1
    while not le(a):
        a -= 1
    return a


def test_fundamental_unit_golden(q5):
    u = quadratic_fundamental_unit(q5)
    assert u == (0, 1)  # theta itself
    assert abs(q5.norm_coords(u)) == 1
    assert math.log((q5.embedding_matrix @ u)[-1]) == pytest.approx(GOLDEN_REGULATOR, abs=1e-12)


@pytest.mark.parametrize(
    "coeffs,expected,expected_norm",
    [
        ((-2, 0, 1), (1, 1), -1),   # 1 + sqrt2
        ((-3, 0, 1), (2, 1), 1),    # 2 + sqrt3
        ((-7, 0, 1), (8, 3), 1),    # 8 + 3 sqrt7
        ((-3, -1, 1), (1, 1), -1),  # (3 + sqrt13)/2
        ((-61, 0, 1), (29718, 3805), -1),
    ],
)
def test_fundamental_unit_pell(coeffs, expected, expected_norm):
    field = parse_field(Polynomial(coeffs))
    u = quadratic_fundamental_unit(field)
    assert u == expected
    assert all(type(c) is int for c in u)
    assert field.norm_coords(u) == expected_norm


@pytest.mark.parametrize("coeffs", [(-2, 0, 1), (-7, 0, 1), (-5, -3, 1), (-11, 0, 1),
                                    (-1, -1, 1), (-3, -1, 1)])
def test_fundamental_unit_brute_force_oracle(coeffs):
    """No unit of the order lies strictly between 1 and the fundamental one.
    theta is reduced, its expansion periodic from alpha_0, for x^2 - x - 1,
    and not for x^2 - 7 or x^2 - x - 3."""
    field = parse_field(Polynomial(coeffs))
    u = quadratic_fundamental_unit(field)
    top = field.heights([u])[0]
    points = enumerate_box(field, BoxSpec(top + 1e-6))
    strictly_between = [
        p for p, k, sigma in zip(points.tolist(), field.norm_rows(points),
                                 points @ field.embedding_matrix.T)
        if abs(k) == 1 and 1 + 1e-9 < sigma[-1] < top - 1e-9
    ]
    assert strictly_between == []


def test_internal_faults_of_the_unit_search_are_invariant_errors(q5, monkeypatch):
    """A wrong automorph or no candidate above 1 is a bug, not bad input."""
    with monkeypatch.context() as m:
        m.setattr(type(q5), "norm_rows", lambda self, rows: np.array([2]))
        with pytest.raises(InvariantError, match="not a unit"):
            quadratic_fundamental_unit(q5)
    monkeypatch.setattr(type(q5), "enclose", lambda self, rows, rule: [[0.5, 0.5]] * len(rows))
    with pytest.raises(InvariantError, match="no candidate"):
        quadratic_fundamental_unit(q5)


def test_every_quadratic_unit_below_1000_validates():
    """x^2 - d for all 968 nonsquare d in [2, 999]: the continued-fraction
    unit eps = a + b·sqrt(d) validates, its log row is the correctly
    rounded (-log eps, log eps), against 400-bit-plus mpmath, and the
    regulator is that row's own entry, not numpy's 1x1 det.  The small
    conjugate 1/eps cancels in a + b·(-sqrt(d)): at a fixed 104 bits its
    log row failed to sum to zero for 154 of these d (151 and 211 among
    them)."""
    checked = 0
    for d in range(2, 1000):
        if math.isqrt(d) ** 2 == d:
            continue
        field = parse_field(Polynomial((-d, 0, 1)))
        us = build_unit_system(field)
        a, b = us.units[0]
        assert a > 0 and b > 0 and a * a - d * b * b in (1, -1)
        with mpmath.workprec(2 * (a * b).bit_length() + 400):
            log_eps = float(mpmath.log(a + b * mpmath.sqrt(d)))
        assert us.log_matrix.tolist() == [[-log_eps, log_eps]], d
        assert us.regulator == pytest.approx(log_eps, rel=1e-15, abs=0), d
        assert us.regulator == abs(us.log_matrix[0, 0]), d
        checked += 1
    assert checked == 968


def test_build_unit_system_golden(q5):
    us = build_unit_system(q5)
    assert us.regulator == pytest.approx(GOLDEN_REGULATOR, abs=1e-9)
    assert us.w == 2
    assert us.log_volume == pytest.approx(us.regulator * math.sqrt(2), abs=1e-12)
    assert np.abs(us.log_matrix.sum(axis=1)).max() < 1e-9


def test_build_unit_system_quartic(quartic_units):
    # value derived once by unit saturation of the height-10 box and frozen
    assert quartic_units.regulator == pytest.approx(0.8250688479347573, abs=1e-9)
    assert len(quartic_units.units) == 3


def test_build_unit_system_octic(octic_units):
    # sine-quotient basis, cross-checked by saturation of the height-5 box
    assert octic_units.regulator == pytest.approx(123.07773330020712, rel=1e-9)
    assert len(octic_units.units) == 7


def test_unit_square_doubles_regulator(q5):
    theta2 = mul(q5, (0, 1), (0, 1))
    us = build_unit_system(q5, units=[theta2])
    assert us.regulator == pytest.approx(2 * GOLDEN_REGULATOR, abs=1e-9)
    with pytest.raises(RegulatorMismatch):
        build_unit_system(q5, units=[theta2], expected_regulator=GOLDEN_REGULATOR)


def test_units_past_int64_stay_exact():
    """x^2 - 991 has a 99-bit fundamental unit: it is held, validated and
    printed as Python integers."""
    field = parse_field(Polynomial((-991, 0, 1)))
    us = build_unit_system(field)
    (a, b), = us.units
    assert type(a) is int and a.bit_length() == 99
    assert a * a - 991 * b * b == 1
    assert build_unit_system(field, units=[(a, b)]).regulator == us.regulator


def test_regulator_invariance_under_basis_change(quartic, quartic_units):
    u1, u2, u3 = quartic_units.units
    inv = lambda u: [int(c) for c in quartic.inverse_coords_rational(u)]
    variants = [
        [inv(u1), inv(u2), inv(u3)],
        [mul(quartic, u1, u2), u2, u3],
        [u1, mul(quartic, u2, power(quartic, inv(u1), 2)), u3],
    ]
    for units in variants:
        us = build_unit_system(quartic, units=units)
        assert us.regulator == pytest.approx(quartic_units.regulator, abs=1e-9)


def test_norm_invariant_under_unit_multiplication(q5):
    theta = (0, 1)
    for x in [(2, 1), (3, -1), (7, 4)]:
        assert abs(q5.norm_coords(mul(q5, x, theta))) == abs(q5.norm_coords(x))
        assert abs(q5.norm_coords(mul(q5, x, power(q5, theta, 3)))) == abs(q5.norm_coords(x))


def test_build_unit_system_errors(q5, quartic):
    with pytest.raises(NotAUnit):
        build_unit_system(q5, units=[(2, 1)])
    with pytest.raises(WrongRank):
        build_unit_system(quartic)  # needs 3 units, none supplied
    with pytest.raises(WrongRank):
        build_unit_system(q5, units=[(0, 1), power(q5, (0, 1), 2)])
    theta4 = (0, 1, 0, 0)
    with pytest.raises(DependentUnits):
        build_unit_system(quartic, units=[power(quartic, theta4, e) for e in (1, 2, 3)])
    with pytest.raises(ValidationError, match="length 3, expected 2"):
        build_unit_system(q5, units=[(0, 1, 0)])
    assert build_unit_system(q5, units=[np.array([0, 1])]).units == ((0, 1),)


@pytest.mark.parametrize("unit", [(0.9, 1), (True, 1), (0, 1.0)],
                         ids=["float-truncated-to-0", "bool", "integral-float"])
def test_non_integer_unit_coordinates_are_refused(q5, unit):
    """(0.9, 1) would truncate to the unit (0, 1) and (True, 1) would read
    as the unit (1, 1): both must be refused, not validated."""
    with pytest.raises(ValidationError, match="must be integers"):
        build_unit_system(q5, units=[unit])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="finite"):
            build_unit_system(q5, expected_regulator=bad)


def test_floor_surd_randomized_oracle():
    import random

    rng = random.Random(7)
    checked = 0
    with mpmath.workprec(200):
        for _ in range(500):
            D = rng.randrange(2, 10 ** 6)
            if math.isqrt(D) ** 2 == D:
                continue
            P = rng.randrange(-10 ** 6, 10 ** 6)
            Q = rng.choice([-1, 1]) * rng.randrange(1, 10 ** 4)
            got = _floor_surd(P, D, Q)
            expect = int(mpmath.floor((mpmath.mpf(P) + mpmath.sqrt(D)) / Q))
            assert got == expect, (P, D, Q)
            checked += 1
    assert checked > 400


def test_floor_surd_matches_the_stepping_oracle_on_a_grid():
    checked = 0
    for D in range(2, 300):
        if math.isqrt(D) ** 2 == D:
            continue
        for P in range(-40, 41):
            for Q in (*range(-30, 0), *range(1, 31)):
                assert _floor_surd(P, D, Q) == floor_surd_by_steps(P, D, Q), (P, D, Q)
                checked += 1
    assert checked == 282 * 81 * 60
