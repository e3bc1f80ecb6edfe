"""Regenerate the packaged field fixtures.

The degree-2 fixture needs no unit data (the library derives the unit by
continued fractions).  For the higher-degree fixtures the fundamental
units are derived here, from scratch, and verified before freezing:

* quartic: enumerate every unit of height <= 10 in the box, then reduce
  the multiplicative group they generate to a basis (log-lattice
  saturation).  Every box unit must reduce to +-1 against the basis.

* octic (maximal real subfield of the 32nd cyclotomic field): the
  sine-quotient units sin(a*pi/32)/sin(pi/32), a odd, expressed exactly
  in the power basis.  Independently, all box units of height <= 5 are
  saturated and the two regulators must agree, which pins the basis as
  fundamental (up to a common index, which the residue cross-check in
  the test suite rules out).

Run:  python tools/make_fixtures.py [outdir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath
import numpy as np

from nfbounds.enumeration import BoxSpec, enumerate_box
from nfbounds.numberfield import Polynomial, _poly_eval, _refine, parse_field

PREC_BITS = 220


def mul(field, x, y):
    """x·y in Z[theta] as a coordinate tuple: M(x)·y, in Python integers."""
    mat = field._mul_matrices(np.array([x], dtype=object))[0]
    return tuple(int(c) for c in mat @ np.array(y, dtype=object))


def power(field, x, e):
    """x^e for e >= 0, by square and multiply."""
    result = (1,) + (0,) * (field.degree - 1)
    while e:
        if e & 1:
            result = mul(field, result, x)
        x = mul(field, x, x)
        e >>= 1
    return result


def saturate(field, units):
    """Basis of the unit group generated by ``units`` (mod torsion), as
    coordinate tuples."""
    n = field.degree
    # the Vandermonde of the rounded roots, not the field's certified table:
    # the unit basis picked below depends on these float logs, and this table
    # picks the one the packaged quartic fixture holds
    V = np.vander(field.embeddings, n, increasing=True)

    def logvec(u):
        return np.log(np.abs(V @ np.array(u, dtype=float)))

    def inv(u):
        return tuple(int(c) for c in field.inverse_coords_rational(u))

    def is_torsion(u):
        return all(c == 0 for c in u[1:]) and abs(u[0]) == 1

    basis = []

    def reduce_elt(u):
        for _ in range(80):
            if is_torsion(u) or not basis:
                return u
            L = np.array([logvec(b) for b in basis])
            t, *_ = np.linalg.lstsq(L.T, logvec(u), rcond=None)
            e = np.round(t).astype(int)
            if not e.any():
                return u
            for b, k in zip(basis, e):
                if k > 0:
                    u = mul(field, u, power(field, inv(b), int(k)))
                elif k < 0:
                    u = mul(field, u, power(field, b, int(-k)))
        return u

    gens, seen = [], set()
    for u in units:
        if u in seen:
            continue
        seen.add(u)
        seen.add(tuple(-c for c in u))
        if not is_torsion(u):
            gens.append(u)
    gens.sort(key=lambda u: float(np.abs(logvec(u)).max()))
    rank = n - 1
    for u in gens:
        r = reduce_elt(u)
        if is_torsion(r):
            continue
        basis.append(r)
        while len(basis) > rank:
            basis.sort(key=lambda b: float(np.abs(logvec(b)).max()))
            last = basis.pop()
            r2 = reduce_elt(last)
            if not is_torsion(r2):
                basis.append(r2)
    bad = [u for u in gens if not is_torsion(reduce_elt(u))]
    if bad:
        raise RuntimeError(f"{len(bad)} box units do not reduce to torsion")
    # sign-normalise for a tidy fixture
    out = []
    for coords in basis:
        for c in coords:
            if c:
                if c < 0:
                    coords = tuple(-v for v in coords)
                break
        out.append(coords)
    return out


def embed_mp(field, u):
    """sigma_i(u) in mpmath, by Horner at the midpoints of the field's
    root brackets refined to the working precision, with 24 guard bits
    over it."""
    coeffs = field.min_poly.coeffs
    brackets = [_refine(coeffs, *bracket, PREC_BITS) for bracket in field.brackets]
    with mpmath.workprec(PREC_BITS + 24):
        roots = [mpmath.ldexp(mpmath.mpf(a + b), -(k + 1)) for a, b, k in brackets]
        return [_poly_eval(u, r) for r in roots]


def regulator_mp(field, units):
    """Regulator at working precision, as a high-precision string."""
    with mpmath.workprec(PREC_BITS):
        rows = []
        for u in units:
            rows.append([mpmath.log(abs(v)) for v in embed_mp(field, u)])
        r = len(units)
        A = mpmath.matrix([row[:r] for row in rows])
        return abs(mpmath.det(A))


def quartic_fixture():
    field = parse_field(Polynomial((1, 1, -3, -1, 1)),
                        label="totally real quartic, discriminant 725")
    pts = enumerate_box(field, BoxSpec(10.0))
    units = [tuple(r) for r in pts[np.abs(field.norm_rows(pts)) == 1].tolist()]
    print(f"quartic: {len(units)} units of height <= 10")
    basis = saturate(field, units)
    reg = regulator_mp(field, basis)
    print(f"quartic regulator: {mpmath.nstr(reg, 20)}")
    return {
        "label": "quartic-725",
        "min_poly": [1, 1, -3, -1, 1],
        "assume_maximal_order": True,
        "roots_of_unity": 2,
        "fundamental_units": [list(b) for b in basis],
        "expected_regulator": float(mpmath.nstr(reg, 17)),
    }


def octic_fixture():
    field = parse_field(Polynomial((2, 0, -16, 0, 20, 0, -8, 0, 1)),
                        label="real subfield of the 32nd cyclotomic field")
    # sine-quotient units: values under the embedding sending theta to
    # 2cos(t*pi/16) are sin(t*a*pi/32)/sin(t*pi/32)
    ts = [1, 3, 5, 7, 9, 11, 13, 15]
    order = np.argsort([2 * np.cos(t * np.pi / 16) for t in ts])
    # the Vandermonde of the rounded roots, as in `saturate`
    V = np.vander(field.embeddings, field.degree, increasing=True)
    units = []
    for a in (3, 5, 7, 9, 11, 13, 15):
        vals = np.array([np.sin(t * a * np.pi / 32) / np.sin(t * np.pi / 32) for t in ts])
        vals = vals[order]  # align with the field's ascending embeddings
        coords = np.linalg.solve(V, vals)
        rounded = np.round(coords).astype(np.int64)
        if not np.allclose(coords, rounded, atol=1e-6):
            raise RuntimeError(f"sine quotient a={a} is not integral in the power basis")
        u = tuple(rounded.tolist())
        if abs(field.norm_coords(u)) != 1:
            raise RuntimeError(f"sine quotient a={a} has |norm| != 1")
        units.append(u)
    reg = regulator_mp(field, units)
    print(f"octic sine-quotient regulator: {mpmath.nstr(reg, 20)}")
    # independent check: saturating the box units must give the same lattice
    pts = enumerate_box(field, BoxSpec(5.0))
    box_units = [tuple(r) for r in pts[np.abs(field.norm_rows(pts)) == 1].tolist()]
    print(f"octic: {len(box_units)} units of height <= 5")
    basis = saturate(field, box_units)
    reg_box = regulator_mp(field, basis)
    print(f"octic saturated regulator:     {mpmath.nstr(reg_box, 20)}")
    with mpmath.workprec(PREC_BITS):
        if abs(reg - reg_box) / reg > mpmath.mpf(10) ** -15:
            raise RuntimeError("sine-quotient and saturated regulators disagree")
    return {
        "label": "cyclo32-real",
        "min_poly": [2, 0, -16, 0, 20, 0, -8, 0, 1],
        "assume_maximal_order": True,
        "roots_of_unity": 2,
        "fundamental_units": [list(u) for u in units],
        "expected_regulator": float(mpmath.nstr(reg, 17)),
    }


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("src/nfbounds/fixtures")
    outdir.mkdir(parents=True, exist_ok=True)
    fixtures = {
        "qsqrt5.json": {
            "label": "qsqrt5",
            "min_poly": [-1, -1, 1],
            "assume_maximal_order": True,
            "roots_of_unity": 2,
            "expected_regulator": 0.48121182505960347,
        },
        "quartic725.json": quartic_fixture(),
        "cyclo32real.json": octic_fixture(),
    }
    for name, payload in fixtures.items():
        path = outdir / name
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
