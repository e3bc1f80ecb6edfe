from __future__ import annotations

import math

import numpy as np
import pytest

from nfbounds.channel import MAX_SNR_POINTS, check_snr_grid, eve_probability, pep_curve
from nfbounds.enumeration import BoxSpec, CountTable, count_table
from nfbounds.errors import EmptyGrid, GridTooLarge, ValidationError
from nfbounds.estimator import add_estimates


def single_row_table():
    return CountTable(
        R=1.0, degree=2, cap=1,
        ks=np.array([1], dtype=np.int64), a=np.array([1], dtype=np.int64),
        b=np.array([2], dtype=np.int64), n_raw=np.array([2.0]),
    )


def test_pep_single_row_closed_form():
    curve = pep_curve(single_row_table(), 0.0, 20.0, 21)
    assert np.allclose(curve.pe_exact, 2.0 / curve.snr_linear ** 2, rtol=1e-15)
    assert curve.ratio == 1.0


def test_pep_scaling_law():
    curve = pep_curve(single_row_table(), 0.0, 30.0, 11)  # 3 dB steps: gamma doubles
    halves = curve.pe_exact[1:] / curve.pe_exact[:-1]
    assert np.allclose(halves, halves[0])
    # doubling gamma divides pe by 2^n
    c2 = pep_curve(single_row_table(), 0.0, 0.0, 1)
    c2d = pep_curve(single_row_table(), 10 * math.log10(2), 10 * math.log10(2), 1)
    assert c2.pe_exact[0] / c2d.pe_exact[0] == pytest.approx(4.0, rel=1e-12)


def test_pep_ratio_snr_independent(q5, q5_units):
    table = add_estimates(count_table(q5, BoxSpec(10.0)), q5_units)
    curve = pep_curve(table, 0.0, 40.0, 81)
    ratios = curve.pe_estimate / curve.pe_exact
    assert np.all(np.abs(ratios / curve.ratio - 1) < 1e-12)
    assert np.all(np.diff(curve.pe_exact) < 0)
    assert np.all(np.diff(curve.pe_estimate) < 0)


def test_pep_slope_is_minus_10n_db_per_decade(q5, q5_units):
    table = add_estimates(count_table(q5, BoxSpec(10.0)), q5_units)
    curve = pep_curve(table, 0.0, 40.0, 81)
    slope = np.polyfit(curve.snr_db, 10 * np.log10(curve.pe_exact), 1)[0]
    assert slope == pytest.approx(-table.degree, rel=1e-6)  # dB per dB = -n


def test_pep_past_the_float_range():
    """gamma^2 past the float range: pe from logs, a subnormal where it is
    one and 0.0 below; gamma = 0.0 gives pe past it, a ValidationError."""
    curve = pep_curve(single_row_table(), 1545.0, 3075.0, 2)
    assert list(curve.snr_linear) == pytest.approx([10.0 ** 154.5, 10.0 ** 307.5], rel=1e-15)
    assert curve.pe_exact[0] == pytest.approx(2e-309, rel=1e-9)
    assert curve.pe_exact[1] == 0.0 and curve.pe_estimate[1] == 0.0
    with pytest.raises(ValidationError):
        pep_curve(single_row_table(), -4000.0, -3000.0, 2)
    with pytest.raises(ValidationError):
        pep_curve(single_row_table(), 3090.0, 3090.0, 1)  # gamma = inf


def test_pep_requires_columns_and_grid(q5, q5_units):
    bare = count_table(q5, BoxSpec(10.0))
    with pytest.raises(ValidationError):
        pep_curve(bare, 0, 40, 81)
    table = add_estimates(bare, q5_units)
    with pytest.raises(EmptyGrid):
        pep_curve(table, 0, 40, 0)


def test_snr_grid_ceiling():
    assert MAX_SNR_POINTS == 100_000
    check_snr_grid(0, 40, 100_000)
    with pytest.raises(GridTooLarge):
        check_snr_grid(0, 40, 100_001)


def test_eve_probability_examples(q5):
    t1 = count_table(q5, BoxSpec(1.0))
    assert eve_probability(t1, 1.0, 1.0) == (2.0, pytest.approx(0.5, rel=1e-15))
    assert eve_probability(t1, 2.0, 1.0) == (2.0, pytest.approx(0.5 / 4, rel=1e-15))
    table = count_table(q5, BoxSpec(10.0))
    from nfbounds.bounds import norm_sum

    total = norm_sum(table.ks, table.b, 3)
    assert eve_probability(table, 10.0, 1.0) == (total, pytest.approx(total / 400, rel=1e-15))
    assert eve_probability(table, 20.0, 1.0) == (total, pytest.approx(total / 1600, rel=1e-12))
    with pytest.raises(ValidationError):
        eve_probability(table, -1.0)
