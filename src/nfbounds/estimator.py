"""Geometric estimate of per-norm point counts and its error profile.

Points of absolute norm k inside the box live on a hyperbolic sheet that
maps, in log-coordinates, onto a hyperplane section of a semi-infinite
corner region.  The section is the base of a simplex-shaped pyramid, so
its (n-1)-volume has the closed form

    vol(S_k) = sqrt(n)/(n-1)! * (n log R - log k)^(n-1),

and the expected number of points on the sheet is the number of unit-orbit
translates (w * a_k, w = 2) times the section volume per fundamental cell
of the unit log-lattice.  That formula lives in one vector helper, `_estimates`:
`section_volume` is its scalar face, and `estimate_counts`,
`add_estimates` and `bounds.geometric_bound` read it.  The a_k come
from the field's memoised series.  A table stores the raw (real-valued)
estimate; the floored integer and the error column f_k =
floor(|n_k - b_k|), which compares the raw estimate with the exact count
as the estimate is read off the smooth curve, are derived from it, and
the profile's `cumulative` gives the share of rows with f_k <= f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .enumeration import BoxSpec, CountTable
from .errors import ValidationError
from .units import UnitSystem
from .zeta import dirichlet_coeffs


def _section_volumes(n: int, R: float, ks: np.ndarray) -> np.ndarray:
    """vol(S_k) at each norm of ks, 0 once k >= R^n."""
    t = n * math.log(R) - np.log(ks.astype(float))
    return np.where(t > 0, np.sqrt(n) / math.factorial(n - 1) * np.maximum(t, 0) ** (n - 1), 0.0)


def _estimates(unit_system: UnitSystem, R: float, ks: np.ndarray,
               a: np.ndarray) -> tuple[float, np.ndarray]:
    """K1 = w sqrt(n) / ((n-1)! covol) and the raw estimates
    w a_k vol(S_k) / covol = K1 a_k (n log R - log k)^(n-1) at the norms ks,
    with covol the covolume of the unit log-lattice."""
    n, w, covol = unit_system.field.degree, unit_system.w, unit_system.log_volume
    K1 = w * math.sqrt(n) / (math.factorial(n - 1) * covol)
    return K1, w * a.astype(float) * _section_volumes(n, R, ks) / covol


def section_volume(n: int, R: float, k: int) -> float:
    """(n-1)-volume of the log-space section for norm k, 0 once k > R^n."""
    if k < 1:
        raise ValidationError("norm must be >= 1")
    if R <= 0:
        raise ValidationError("radius must be positive")
    return float(_section_volumes(n, R, np.array([k]))[0])


def estimate_counts(unit_system: UnitSystem, box: BoxSpec, k_max: int) -> CountTable:
    """Estimate-only table: rows for k <= k_max with a_k != 0 (no exact column)."""
    field = unit_system.field
    a_full = dirichlet_coeffs(field, k_max).a
    ks = np.flatnonzero(a_full)  # a_0 = 0
    _, raw = _estimates(unit_system, box.R, ks, a_full[ks])
    return CountTable(R=box.R, degree=field.degree, cap=int(k_max), ks=ks.astype(np.int64),
                      a=a_full[ks], b=None, n_raw=raw)


def add_estimates(table: CountTable, unit_system: UnitSystem) -> CountTable:
    """Fill the estimate column of an exact count table."""
    _, raw = _estimates(unit_system, table.R, table.ks, table.a)
    return replace(table, n_raw=raw)


@dataclass(frozen=True)
class ErrorProfile:
    """Distribution of the error column over rows with a_k != 0."""

    histogram: dict[int, int]
    cumulative: list[tuple[int, float]]  # (f, share of rows with f_k <= f), f ascending
    max_error: int
    zero_fraction: float
    row_count: int


def error_profile(table: CountTable) -> ErrorProfile:
    if table.f is None or table.b is None:
        raise ValidationError("table lacks estimate or exact columns")
    mask = table.a != 0
    fs = table.f[mask]
    if len(fs) == 0:
        raise ValidationError("no rows with nonzero coefficient")
    values, counts = np.unique(fs, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(values, counts)}
    total = int(counts.sum())
    cum = []
    running = 0
    for v in sorted(hist):
        running += hist[v]
        cum.append((v, running / total))
    return ErrorProfile(
        histogram=hist,
        cumulative=cum,
        max_error=int(values.max()),
        zero_fraction=hist.get(0, 0) / total,
        row_count=total,
    )
