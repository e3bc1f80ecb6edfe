"""Unit-group handling: fundamental units, log embedding, regulator.

For real quadratic fields the fundamental unit is computed from scratch by
the periodic continued-fraction expansion of theta, entirely in integer
arithmetic.  For higher degree the caller supplies an independent system
of units (fixture data).  Units are coordinate tuples over the power basis,
of Python integers, so they stay exact past int64 (x^2 - 991 has a 99-bit
unit).  The builder validates unit-ness and independence
and cross-checks the resulting regulator against two different minors and,
when available, an expected value.  The log rows are the correctly
rounded log|sigma_j(eps_i)|, decided by `NumberField.enclose` with as many
bits as the cancellation in a small conjugate takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DependentUnits,
    InvariantError,
    NotAUnit,
    RegulatorMismatch,
    ResourceLimitError,
    ValidationError,
    WrongRank,
)
from .numberfield import MAX_PRECISION_BITS, NumberField, _coordinate_rows, _log_abs, _rounded

_MINOR_AGREEMENT = 1e-9
_REGULATOR_RTOL = 1e-6
_DEPENDENCE_FLOOR = 1e-9


# ---------------------------------------------------------------------------
# continued fractions for real quadratic fields


def _floor_surd(P: int, D: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) for integers with D a positive nonsquare.

    P + sqrt(D) lies strictly between the integers P + isqrt(D) and one
    more, so no multiple of Q lies between it and the one of those that
    the division rounds toward: the lower for Q > 0, the upper for Q < 0."""
    return (P + math.isqrt(D) + (Q < 0)) // Q


def quadratic_fundamental_unit(field: NumberField) -> tuple[int, int]:
    """Coordinates of the fundamental unit of Z[theta] for a real
    quadratic field.

    Runs the continued-fraction expansion of theta = a0 + 1/alpha_1 with
    exact integer state (P, Q).  alpha_1 is reduced, as floor(theta) -
    conj(theta) > sqrt(D) - 1 > 1 for D >= 5, so its expansion is purely
    periodic (Galois): the period closes when alpha_1's state comes back,
    and the convergent Moebius matrix G = M_now·M_1^-1 fixes theta, so
    u = G[1][0]*theta + G[1][1] is a unit with |N(u)| = |det G| = 1 and
    minimal period, hence fundamental.  A convergent past
    `MAX_PRECISION_BITS` bits makes the unit too large for `enclose` to
    take its logarithms, and raises ResourceLimitError.  The result is
    normalised so that its image under the largest embedding exceeds 1.
    """
    if field.degree != 2:
        raise ValidationError("continued-fraction unit search requires degree 2")
    c0, c1, _ = field.min_poly.coeffs
    D = c1 * c1 - 4 * c0
    if D <= 0 or math.isqrt(D) ** 2 == D:
        raise ValidationError("discriminant must be a positive nonsquare")
    a0 = _floor_surd(-c1, D, 2)
    P = 2 * a0 + c1
    Q = (D - P * P) // 2
    first = (P, Q)  # alpha_1's state
    # theta = (h1*alpha_j + h0) / (k1*alpha_j + k0), M_j = [[h1, h0], [k1, k0]];
    # only the k row is needed, (1, 0) for M_1 = [[a0, 1], [1, 0]]
    k1, k0 = 1, 0
    while True:
        a = _floor_surd(P, D, Q)
        P = a * Q - P
        Q = (D - P * P) // Q
        k1, k0 = a * k1 + k0, k1
        if (P, Q) == first:
            break
        if k1.bit_length() > MAX_PRECISION_BITS:  # the unit's b is a later k0 >= k1
            raise ResourceLimitError(
                f"the fundamental unit of {field.min_poly} is past {MAX_PRECISION_BITS} "
                "bits, so its logarithms are past the precision ceiling")
    # row 1 of G = M_now·M_1^-1, M_1^-1 = [[0, 1], [1, -a0]]
    u = (k1 - a0 * k0, k0)
    if abs(field.norm_rows([u])[0]) != 1:
        raise InvariantError("internal error: automorph is not a unit")
    # pick the representative with sigma_max > 1 among {u, -u, u^-1, -u^-1}:
    # N(u) = ±1, so ±u^-1 = ±conj(u) = ±((a - c1·b) - b·theta)
    conj = (u[0] - c1 * u[1], -u[1])
    # sigma_max of a unit other than ±1 is at least phi or at most 1/phi in
    # size, so its correctly rounded float compares with 1 as it does
    candidates = (u, (-u[0], -u[1]), conj, (-conj[0], -conj[1]))
    for cand, sigma in zip(candidates, field.enclose(candidates, _rounded)):
        if sigma[-1] > 1:
            return cand
    raise InvariantError("internal error: no candidate exceeds 1")


# ---------------------------------------------------------------------------
# unit systems


@dataclass(frozen=True)
class UnitSystem:
    """An independent system of units with its log-lattice data."""

    field: NumberField
    units: tuple[tuple[int, ...], ...]  # power-basis coordinates, Python integers
    log_matrix: np.ndarray  # r x (r1 + r2), entries log|sigma_j(eps_i)|
    regulator: float
    log_volume: float
    w = 2  # roots of unity: only +-1 in a totally real field


def build_unit_system(field: NumberField, units=None,
                      expected_regulator: float | None = None) -> UnitSystem:
    """Validate a fundamental system of units and compute its regulator.

    ``units`` are coordinate rows over the power basis, exact past int64.
    They may be omitted for degree-2 fields, in which case the
    continued-fraction unit is used.  The regulator is the absolute
    determinant of the minor of the log matrix dropping the last column;
    agreement with the minor dropping the first column is checked as a
    free consistency test.
    """
    r1, r2 = field.signature
    rank = r1 + r2 - 1
    if expected_regulator is not None and not math.isfinite(expected_regulator):
        raise ValidationError(f"expected_regulator must be finite, got {expected_regulator!r}")
    if units is None:
        if field.degree != 2:
            raise WrongRank(
                f"no units supplied and degree {field.degree} > 2; expected {rank} units"
            )
        units = [quadratic_fundamental_unit(field)]
    units = [tuple(u) for u in _coordinate_rows(units, field.degree).tolist()]
    if len(units) != rank:
        raise WrongRank(f"got {len(units)} units, expected rank r1+r2-1 = {rank}")
    for u, k in zip(units, field.norm_rows(units)):
        if abs(k) != 1:
            raise NotAUnit(f"|N{u}| = {abs(k)} != 1")
    # correctly rounded logs: a small conjugate needs the bits its cancellation eats
    A = np.array(field.enclose(units, _log_abs))
    row_sums = np.abs(A.sum(axis=1))
    if row_sums.max() > 1e-8:
        raise NotAUnit(f"log rows do not sum to zero (max {row_sums.max():.2e})")
    # numpy's det goes through exp(log|det|): a 1x1 minor can come back an ulp off
    reg, reg_alt = (abs(m[0, 0]) if rank == 1 else abs(np.linalg.det(m))
                    for m in (A[:, :rank], A[:, 1:]))
    if reg < _DEPENDENCE_FLOOR:
        raise DependentUnits("regulator below 1e-9; units are multiplicatively dependent")
    if abs(reg - reg_alt) > _MINOR_AGREEMENT * max(1.0, reg):
        raise DependentUnits(
            f"minor determinants disagree: {reg!r} vs {reg_alt!r}"
        )
    if expected_regulator is not None:
        if abs(reg - expected_regulator) > _REGULATOR_RTOL * max(1.0, abs(expected_regulator)):
            raise RegulatorMismatch(
                f"computed regulator {reg!r} differs from expected {expected_regulator!r}"
            )
    log_volume = reg * math.sqrt(r1 + r2)
    A.setflags(write=False)
    return UnitSystem(field, tuple(units), A, reg, log_volume)
