"""Truncated inverse norm power sums and their zeta-function bounds.

Every result is an inverse norm power sum sum_k c_k / k^s over a count
column, taken by `norm_sum`: s = 2 for the pairwise error probability,
s = 3 for the eavesdropper's bound.  Two reports bound it:

* `height_bound_report`: the height-truncated sum S(s, m) over elements,
  compared against the bounded-height ideal sum zeta(s, m) (strict lower
  bound) and against max{b_k} times that sum (upper bound), both valid
  for class number 1; b_k and zeta(s, m) are read off one pass over the
  box's unit orbits;

* `geometric_bound`: the estimator sum is expanded binomially in
  log(R^n) - log(k) and each power-of-log sum is majorised by the
  corresponding derivative of the ideal-count series, which is sieved
  here to the cutoff (by default min(max(R^n, 10^4), 10^5)) and shares
  the estimate's formula with `estimator`.  With derivative partial sums
  taken at a cutoff at least the table cap, the chain

      sum n_k_raw / k^s  <=  K1 * sum_m C(n-1,m) (log R^n)^{n-1-m} |D^(m)|

  holds exactly (every dropped term is nonnegative), so a violation
  raises InvariantError.  The printed leading-term form
  K1 (log R)^{n-1} zeta(s) is reported but never checked: it is smaller
  than the m = 0 term of the expansion it came from, so it need not
  dominate anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .enumeration import BoxSpec, _norm_cap, cached_orbits
from .errors import InvariantError, ValidationError
from .estimator import _estimates
from .numberfield import NumberField
from .units import UnitSystem
from .zeta import dirichlet_coeffs, zeta_derivative


def norm_sum(ks: np.ndarray, counts: np.ndarray, s: int) -> float:
    """The inverse norm power sum sum_k counts_k / k^s over the norms ks:
    s = 2 gives the pairwise error probability, s = 3 the wiretap bound.
    A k^s past the float range leaves its term 0.0."""
    if s < 2:
        raise ValidationError("s must be an integer >= 2")
    with np.errstate(over="ignore"):
        return float((counts / ks.astype(float) ** s).sum())


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


def height_bound_report(field: NumberField, s: int, m: float) -> BoundReport:
    """Both zeta-based statements for the height-m truncation at exponent s:
    S(s, m) = sum b_k / k^s, zeta(s, m), the lower bound S > zeta(s, m) > 1
    and the upper bound max{b_k} zeta(s, m).

    Every generator of height <= m lies in the box of radius m, so its unit
    orbits are exactly the principal ideals of height <= m: zeta(s, m) sums
    1/k^s once per orbit, and b_k is the total size of the orbits of norm
    k, twice their rows, since the memoised table holds one row of each
    pair x, -x.  The orbits come from exact division, so neither a unit
    basis nor a Dirichlet coefficient is needed.
    """
    if s < 2:
        raise ValidationError("s must be an integer >= 2")
    if m < 1:
        raise ValidationError("height bound m must be >= 1 (no points otherwise)")
    orbits = cached_orbits(field, BoxSpec(float(m)))  # m >= 1: the units are in the box
    ks, first, per_norm = np.unique(orbits.norms, return_index=True, return_counts=True)
    b = 2 * np.diff(orbits.starts[first], append=len(orbits.rows))  # orbits come by norm
    # 1.0 / k**s; past the float range the exactly rounded 1 / k**s, subnormal or 0.0
    terms = [1.0 / p if p.bit_length() < 1024 else 1 / p for p in (k ** s for k in ks.tolist())]
    zeta_trunc = float(sum(np.repeat(terms, per_norm).tolist()))  # orbit by orbit, in order
    return BoundReport(
        s=s, m_or_R=m, norm_sum=norm_sum(ks, b, s),  # b_k / inf = 0.0 is below the last bit
        zeta_truncated=zeta_trunc, lower_bound=zeta_trunc,
        coefficient_upper_bound=int(b.max()) * zeta_trunc,
    )


full_height_report = height_bound_report


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
    lhs = norm_sum(ks, raw, s)
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
