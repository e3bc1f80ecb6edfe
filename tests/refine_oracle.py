"""Newton-accelerated root refinement on rational brackets: the root oracle.

Each step probes a Newton candidate in mpmath, converts it to a
`Fraction`, and forces one more exact bisection, with every bracket
update decided by an exact rational sign.  The library refines by plain
bisection on dyadic integer brackets (`numberfield._refine`); the tests
compare the bracket midpoints with the oracle's roots.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from nfbounds.numberfield import _poly_derivative, _poly_eval

# extra mantissa bits of the mpmath working precision
_GUARD_BITS = 24


def _mpf_to_fraction(x):
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * (Fraction(1 << exp) if exp >= 0 else Fraction(1, 1 << -exp))
    return -v if sign else v


def _refine(coeffs, lo, hi, prec_bits):
    """Shrink an isolating interval to relative width 2^-prec_bits.

    Newton steps accelerate plain bisection; every bracket update uses an
    exact rational sign evaluation, so the enclosure stays certified.
    Returns (root as mpf, halfwidth as float).
    """
    if lo == hi:
        with mpmath.workprec(prec_bits + _GUARD_BITS):
            return mpmath.mpf(lo.numerator) / lo.denominator, 0.0
    dcoeffs = _poly_derivative(coeffs)
    sign_lo = 1 if _poly_eval(coeffs, lo) > 0 else -1
    scale = max(1, abs(lo), abs(hi))
    target = Fraction(1, 1 << (prec_bits + 4)) * scale
    with mpmath.workprec(prec_bits + _GUARD_BITS):
        while hi - lo > target:
            x = mpmath.mpf((lo + hi).numerator) / (lo + hi).denominator / 2
            fx = _poly_eval(coeffs, x)
            fpx = _poly_eval(dcoeffs, x)
            cand = None
            if fpx != 0:
                step = x - fx / fpx
                cand = _mpf_to_fraction(step) if mpmath.isfinite(step) else None
            mid = (lo + hi) / 2
            probe = cand if cand is not None and lo < cand < hi else mid
            v = _poly_eval(coeffs, probe)
            if v == 0:
                lo = hi = probe
                break
            if (1 if v > 0 else -1) == sign_lo:
                lo = probe
            else:
                hi = probe
            # a Newton probe may barely move; force geometric progress
            if hi - lo > target:
                mid = (lo + hi) / 2
                v = _poly_eval(coeffs, mid)
                if v == 0:
                    lo = hi = mid
                    break
                if (1 if v > 0 else -1) == sign_lo:
                    lo = mid
                else:
                    hi = mid
        center = (lo + hi) / 2
        root = mpmath.mpf(center.numerator) / center.denominator
        half = float(Fraction(hi - lo) / 2)
    return root, half
