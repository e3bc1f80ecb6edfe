"""Truncated inverse norm power sums and their zeta-function bounds.

Three kinds of statement are computed:

* height-truncated sums S(s, m) over elements, compared against the
  bounded-height ideal sum zeta(s, m) (strict lower bound) and against
  max{b_k} times that sum (upper bound), both valid for class number 1;
  b_k and zeta(s, m) are read off one pass over the box's unit orbits;

* the geometric bound: the estimator sum is expanded binomially in
  log(R^n) - log(k) and each power-of-log sum is majorised by the
  corresponding derivative of the ideal-count series, which is sieved
  here to the cutoff (by default min(max(R^n, 10^4), 10^5)) and shares
  the estimate's formula with `estimator`.  With derivative partial sums
  taken at a cutoff at least the table cap, the chain

      sum n_k_raw / k^s  <=  K1 * sum_m C(n-1,m) (log R^n)^{n-1-m} |D^(m)|

  holds exactly (every dropped term is nonnegative), so a violation
  raises InvariantError;

* the printed leading-term form K1 (log R)^{n-1} zeta(s), which is
  reported but never checked: it is smaller than the m = 0 term of the
  expansion it came from, so it need not dominate anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .enumeration import BoxSpec, CountTable, _norm_cap, cached_orbits
from .errors import InvariantError, ValidationError
from .estimator import _estimates
from .numberfield import NumberField
from .units import UnitSystem
from .zeta import dirichlet_coeffs, zeta_derivative


def norm_sum(table: CountTable, s: int, column: str = "exact") -> float:
    """sum counts_k / k^s over the table rows.

    column: "exact" uses b_k, "estimate" the floored n_k, "estimate_raw"
    the pre-floor estimate.
    """
    if s < 2:
        raise ValidationError("s must be an integer >= 2")
    ks = table.ks.astype(float)
    if column == "exact":
        if table.b is None:
            raise ValidationError("table has no exact counts")
        counts = table.b.astype(float)
    elif column == "estimate":
        if table.n_est is None:
            raise ValidationError("table has no estimate column")
        counts = table.n_est.astype(float)
    elif column == "estimate_raw":
        if table.n_raw is None:
            raise ValidationError("table has no estimate column")
        counts = table.n_raw
    else:
        raise ValidationError(f"unknown column {column!r}")
    with np.errstate(over="ignore"):  # k^s past the float range: the term is 0.0
        return float((counts / ks ** s).sum())


def eve_sum(table: CountTable) -> float:
    """Inverse norm power sum with the wiretap exponent (s = 3)."""
    return norm_sum(table, 3)


def pep_sum(table: CountTable) -> float:
    """Inverse norm power sum with the pairwise-error exponent (s = 2)."""
    return norm_sum(table, 2)


# ---------------------------------------------------------------------------
# the report


@dataclass(frozen=True)
class BoundReport:
    """Everything the bound pipeline can say for one (s, truncation) pair.

    A height report fills the first four values, a geometric one the rest.
    """

    s: int
    m_or_R: float
    norm_sum: float | None = None
    zeta_truncated: float | None = None
    lower_bound: float | None = None
    coefficient_upper_bound: float | None = None
    K1: float | None = None
    geometric_bound_terms: tuple[float, ...] | None = None
    geometric_bound: float | None = None
    leading_term_bound: float | None = None
    estimator_sum: float | None = None
    derivative_tails: tuple[float, ...] | None = None
    zeta_cutoff: int | None = None

    @property
    def degenerate(self) -> bool:
        """Only the unit ideal fits below the height truncation."""
        return self.zeta_truncated <= 1.0

    @property
    def lower_holds(self) -> bool:
        return self.norm_sum > self.zeta_truncated > 1.0

    @property
    def upper_holds(self) -> bool:
        upper = self.coefficient_upper_bound
        return self.norm_sum <= upper + 1e-12 * abs(upper)

    def to_json(self, **extra) -> str:
        payload = asdict(self)
        payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# height-truncated statements (class number 1)


def _height_sums(field: NumberField, s: int, m: float):
    """The distinct norms k of the height-m box, their point counts b_k and
    zeta(s, m), from one pass over the box's unit orbits.

    Every generator of height <= m lies in the box of radius m, so its unit
    orbits are exactly the principal ideals of height <= m: b_k is the total
    size of the orbits of norm k, and zeta(s, m) sums 1/k^s once per orbit.
    The orbits come from exact division, so no unit basis is needed.
    """
    orbits = cached_orbits(field, BoxSpec(float(m)))
    ks, first, per_norm = np.unique(orbits.norms, return_index=True, return_counts=True)
    b = np.diff(orbits.starts[first], append=len(orbits.rows))  # orbits come by norm
    # 1.0 / k**s; past the float range the exactly rounded 1 / k**s, subnormal or 0.0
    terms = [1.0 / p if p.bit_length() < 1024 else 1 / p for p in (k ** s for k in ks.tolist())]
    return ks, b, float(sum(np.repeat(terms, per_norm).tolist()))  # orbit by orbit, in order


def bounded_height_zeta(field: NumberField, s: int, m: float) -> float:
    """Sum of 1/N(I)^s over principal ideals whose minimal-height generator
    has height <= m (class-number-one fields).

    The box is closed up to its boundary tolerance, so an m just below 1
    already counts the unit ideal.
    """
    if s < 2:
        raise ValidationError("evaluation requires integer s >= 2")
    if m <= 0:
        return 0.0
    return _height_sums(field, s, m)[2]


def height_bound_report(field: NumberField, s: int, m: float) -> BoundReport:
    """Both zeta-based statements for the height-m truncation at exponent s.

    Read off the unit orbits of the height-m box, so no Dirichlet
    coefficient is needed.
    """
    if s < 2:
        raise ValidationError("s must be an integer >= 2")
    if m < 1:
        raise ValidationError("height bound m must be >= 1 (no points otherwise)")
    ks, b, zeta_trunc = _height_sums(field, s, m)  # m >= 1: the units are in the box
    with np.errstate(over="ignore"):  # b_k / inf = 0.0 is below the last bit: b_1 >= 2
        total = float((b / ks.astype(float) ** s).sum())
    return BoundReport(
        s=s, m_or_R=m, norm_sum=total,
        zeta_truncated=zeta_trunc, lower_bound=zeta_trunc,
        coefficient_upper_bound=int(b.max()) * zeta_trunc,
    )


full_height_report = height_bound_report


def lower_bound_check(field: NumberField, s: int, m: float) -> tuple[float, float, bool]:
    """(S(s,m), zeta(s,m), verdict S > zeta > 1)."""
    rep = height_bound_report(field, s, m)
    return rep.norm_sum, rep.zeta_truncated, rep.lower_holds


def coefficient_upper_bound(table: CountTable, field: NumberField, s: int) -> float:
    """max{b_k} * zeta(s, m) for the table's own box; checks it dominates."""
    bound = int(table.b.max()) * bounded_height_zeta(field, s, table.R)
    if norm_sum(table, s) > bound * (1 + 1e-12):
        raise ValidationError("coefficient bound failed; table inconsistent with its box")
    return bound


# ---------------------------------------------------------------------------
# geometric bound via series derivatives


def geometric_bound(unit_system: UnitSystem, s: int, R: float,
                    cutoff: int | None = None) -> BoundReport:
    """Binomial-expansion bound on the estimator sum, with the chain check.

    The derivative partial sums run to the series cutoff, by default
    min(max(R^n, 10^4), 10^5).  The left side sums raw estimates over rows
    k <= min(R^n, cutoff); the right side's partial sums can only exceed
    the matching finite sums, so the inequality is exact.  It needs R >= 1:
    below that log(R^n) < 0 and the expansion is no bound.
    """
    if s < 2:
        raise ValidationError("s must be an integer >= 2")
    if R < 1:
        raise ValidationError(f"the geometric bound needs R >= 1, got {R}")
    field = unit_system.field
    n = field.degree
    geo = _norm_cap(field, BoxSpec(R, 0.0), None)  # BoxSpec rejects R = inf, nan
    zeta = dirichlet_coeffs(field, min(max(geo, 10 ** 4), 10 ** 5) if cutoff is None else cutoff)
    cap = min(geo, zeta.cutoff)
    ks = np.arange(1, cap + 1)
    K1, raw = _estimates(unit_system, R, ks, zeta.a[1 : cap + 1])
    with np.errstate(over="ignore"):  # k^s past the float range: the term is 0.0
        lhs = float((raw / ks.astype(float) ** s).sum())
    logRn = n * math.log(R)
    derivs = [zeta_derivative(zeta, mm, s) for mm in range(n)]
    terms = [math.comb(n - 1, mm) * logRn ** (n - 1 - mm) * abs(dv.value)
             for mm, dv in enumerate(derivs)]
    bound = K1 * sum(terms)
    leading = K1 * math.log(R) ** (n - 1) * abs(derivs[0].value)
    if lhs > bound * (1 + 1e-9):
        raise InvariantError(f"binomial-expansion bound violated: {lhs} > {bound}")
    return BoundReport(
        s=s, m_or_R=R, K1=K1,
        geometric_bound_terms=tuple(K1 * v for v in terms),
        geometric_bound=bound,
        leading_term_bound=leading,
        estimator_sum=lhs,
        derivative_tails=tuple(dv.tail_estimate for dv in derivs),
        zeta_cutoff=zeta.cutoff,
    )
