"""Probability curves over an SNR grid, and the eavesdropper's bound.

Both are inverse norm power sums (`bounds.norm_sum`, s = 2 and s = 3)
scaled by a power of the SNR, so the PEP curves' estimate/exact ratio is
a single SNR-independent constant; the grid only matters for export.
Each value is the product as written while that is a normal float; past
it the product is taken from logs, so a value below the float range is
0.0 and one above it, or a gamma past it, is a ValidationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enumeration import CountTable
from .errors import EmptyGrid, GridTooLarge, ValidationError
from .bounds import norm_sum
from .numberfield import _read_only

# a fixed ceiling: the CSV of 10^5 points takes about a second, of 10^6 about ten
MAX_SNR_POINTS = 100_000


@dataclass(frozen=True)
class PepCurve:
    """The curves over the SNR grid, each a read-only view."""

    snr_db: np.ndarray
    snr_linear: np.ndarray
    pe_estimate: np.ndarray
    pe_exact: np.ndarray
    ratio: float

    def __post_init__(self):
        for name in ("snr_db", "snr_linear", "pe_estimate", "pe_exact"):
            object.__setattr__(self, name, _read_only(getattr(self, name).view()))


def check_snr_grid(snr_db_start: float, snr_db_stop: float, points: int) -> None:
    """Reject an SNR grid with no points, too many, or a non-finite endpoint."""
    if points < 1:
        raise EmptyGrid("SNR grid needs at least one point")
    if points > MAX_SNR_POINTS:
        raise GridTooLarge(f"SNR grid of {points} points exceeds {MAX_SNR_POINTS}")
    if not (math.isfinite(snr_db_start) and math.isfinite(snr_db_stop)):
        raise ValidationError(f"SNR endpoints must be finite, got {snr_db_start}, {snr_db_stop}")


def _in_float_range(direct, log_value, what: str):
    """`direct`, a product as written, wherever it is a normal float, and
    exp(log_value), the same product as a sum of logs, elsewhere: a value
    below the float range comes out 0.0 or subnormal, and one above it is
    a ValidationError."""
    with np.errstate(all="ignore"):
        normal = (np.finfo(float).tiny <= direct) & (direct < np.inf)
        value = np.where(normal, direct, np.exp(log_value))
    if not np.all(np.isfinite(value)):
        raise ValidationError(f"{what} is past the float range")
    return value


def pep_curve(table: CountTable, snr_db_start: float, snr_db_stop: float,
              points: int) -> PepCurve:
    """Pairwise-error curves S / gamma^n from the inverse norm power sums S
    at s = 2 of the exact counts and of the integer estimate."""
    check_snr_grid(snr_db_start, snr_db_stop, points)
    if table.b is None or table.n_est is None:
        raise ValidationError("table needs both exact and estimate columns")
    sum_exact = norm_sum(table.ks, table.b, 2)
    if sum_exact == 0:
        raise ValidationError("the count table has no points, so its norm sums are 0")
    sum_est = norm_sum(table.ks, table.n_est, 2)
    with np.errstate(all="ignore"):
        db = np.linspace(snr_db_start, snr_db_stop, points)
        gamma = 10.0 ** (db / 10.0)
        gamma_n = gamma ** table.degree
        pe_exact = sum_exact / gamma_n
        pe_est = sum_est / gamma_n
        log_gamma_n = table.degree * math.log(10.0) / 10.0 * db
        log_exact, log_est = np.log([sum_exact, sum_est])
    grid = f"the SNR grid {snr_db_start}:{snr_db_stop} dB"
    if not np.all(np.isfinite(gamma)):
        raise ValidationError(f"gamma on {grid} is past the float range")
    return PepCurve(
        snr_db=db, snr_linear=gamma,
        pe_estimate=_in_float_range(pe_est, log_est - log_gamma_n, f"pe_estimate on {grid}"),
        pe_exact=_in_float_range(pe_exact, log_exact - log_gamma_n, f"pe_exact on {grid}"),
        ratio=float(sum_est / sum_exact),
    )


def eve_probability(table: CountTable, gamma_e: float,
                    vol_lambda_b: float = 1.0) -> tuple[float, float]:
    """(S, bound): S the inverse norm power sum at s = 3 of the exact
    counts, and the eavesdropper correct-decision bound
    (1/(4 gamma_e^2))^(n/2) vol S at linear SNR gamma_e."""
    if not (0 < gamma_e < math.inf and 0 < vol_lambda_b < math.inf):
        raise ValidationError(f"gamma_e and vol_lambda_b must be positive and finite, "
                              f"got {gamma_e}, {vol_lambda_b}")
    if table.b is None:
        raise ValidationError("table has no exact counts")
    n, total = table.degree, norm_sum(table.ks, table.b, 3)
    try:
        value = (1.0 / (4.0 * gamma_e ** 2)) ** (n / 2.0) * vol_lambda_b * total
    except (ZeroDivisionError, OverflowError):  # gamma_e^2 left the float range
        value = math.nan
    with np.errstate(divide="ignore"):
        log_value = (np.log(total) + math.log(vol_lambda_b)
                     - n / 2.0 * math.log(4.0) - n * math.log(gamma_e))
    return total, float(_in_float_range(value, log_value,
                                        f"the eavesdropper bound at gamma_e={gamma_e}"))
