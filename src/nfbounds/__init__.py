"""Probability bounds for totally real number-field lattice constellations.

The pipeline: construct the field (`numberfield`), validate or derive its
unit system (`units`), compute ideal-count Dirichlet coefficients
(`zeta`), enumerate box constellations and bucket exact norms
(`enumeration`), estimate per-norm counts geometrically (`estimator`),
bound the inverse norm power sums (`bounds`), and turn them into
error-probability curves (`channel`).
"""

from .enumeration import BoxSpec, CountTable, count_by_norm, count_table, enumerate_box, unit_orbits
from .errors import ResourceLimitError, ValidationError
from .estimator import ErrorProfile, add_estimates, error_profile, estimate_counts, section_volume
from .bounds import (
    BoundReport,
    coefficient_upper_bound,
    eve_sum,
    full_height_report,
    geometric_bound,
    height_bound_report,
    lower_bound_check,
    norm_sum,
    pep_sum,
)
from .channel import PepCurve, eve_probability, pep_curve
from .numberfield import (
    NumberField,
    Polynomial,
    min_product_distance,
    parse_field,
    real_roots,
)
from .units import UnitSystem, build_unit_system, quadratic_fundamental_unit
from .zeta import (
    SplittingType,
    ZetaSeries,
    bounded_height_zeta,
    dirichlet_coeffs,
    splitting_type,
    zeta_derivative,
    zeta_value,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoxSpec",
    "CountTable",
    "ErrorProfile",
    "NumberField",
    "PepCurve",
    "Polynomial",
    "ResourceLimitError",
    "SplittingType",
    "UnitSystem",
    "ValidationError",
    "ZetaSeries",
    "add_estimates",
    "bounded_height_zeta",
    "build_unit_system",
    "coefficient_upper_bound",
    "count_by_norm",
    "count_table",
    "dirichlet_coeffs",
    "enumerate_box",
    "error_profile",
    "estimate_counts",
    "eve_probability",
    "eve_sum",
    "full_height_report",
    "geometric_bound",
    "height_bound_report",
    "lower_bound_check",
    "min_product_distance",
    "norm_sum",
    "parse_field",
    "pep_curve",
    "pep_sum",
    "quadratic_fundamental_unit",
    "real_roots",
    "section_volume",
    "splitting_type",
    "unit_orbits",
    "zeta_derivative",
    "zeta_value",
]
