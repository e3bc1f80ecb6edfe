"""Probability curves over an SNR grid.

Both curves are inverse norm power sums scaled by gamma^-n, so the
estimate/exact ratio is a single SNR-independent constant; the grid only
matters for export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enumeration import CountTable
from .errors import EmptyGrid, GridTooLarge, ValidationError
from .bounds import norm_sum

# a fixed ceiling: the CSV of 10^5 points takes about a second, of 10^6 about ten
MAX_SNR_POINTS = 100_000


@dataclass(frozen=True)
class PepCurve:
    snr_db: np.ndarray
    snr_linear: np.ndarray
    pe_estimate: np.ndarray
    pe_exact: np.ndarray
    ratio: float


def check_snr_grid(snr_db_start: float, snr_db_stop: float, points: int) -> None:
    """Reject an SNR grid with no points, too many, or a non-finite endpoint."""
    if points < 1:
        raise EmptyGrid("SNR grid needs at least one point")
    if points > MAX_SNR_POINTS:
        raise GridTooLarge(f"SNR grid of {points} points exceeds {MAX_SNR_POINTS}")
    if not (math.isfinite(snr_db_start) and math.isfinite(snr_db_stop)):
        raise ValidationError(f"SNR endpoints must be finite, got {snr_db_start}, {snr_db_stop}")


def pep_curve(table: CountTable, snr_db_start: float, snr_db_stop: float,
              points: int) -> PepCurve:
    """Pairwise-error curves from exact counts and from the integer estimate."""
    check_snr_grid(snr_db_start, snr_db_stop, points)
    if table.b is None or table.n_est is None:
        raise ValidationError("table needs both exact and estimate columns")
    sum_exact = norm_sum(table, 2, "exact")
    if sum_exact == 0:
        raise ValidationError("the count table has no points, so its norm sums are 0")
    sum_est = norm_sum(table, 2, "estimate")
    db = np.linspace(snr_db_start, snr_db_stop, points)
    gamma = 10.0 ** (db / 10.0)
    pe_exact = sum_exact / gamma ** table.degree
    pe_est = sum_est / gamma ** table.degree
    return PepCurve(
        snr_db=db, snr_linear=gamma,
        pe_estimate=pe_est, pe_exact=pe_exact,
        ratio=float(sum_est / sum_exact),
    )


def eve_probability(table: CountTable, gamma_e: float, vol_lambda_b: float = 1.0) -> float:
    """Eavesdropper correct-decision bound at linear SNR gamma_e."""
    if not (0 < gamma_e < math.inf and 0 < vol_lambda_b < math.inf):
        raise ValidationError(f"gamma_e and vol_lambda_b must be positive and finite, "
                              f"got {gamma_e}, {vol_lambda_b}")
    return ((1.0 / (4.0 * gamma_e ** 2)) ** (table.degree / 2.0) * vol_lambda_b
            * norm_sum(table, 3))

