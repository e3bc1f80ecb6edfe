from __future__ import annotations

import math

import numpy as np
import pytest

from nfbounds.enumeration import BoxSpec, CountTable, count_table
from nfbounds.errors import ValidationError
from nfbounds.estimator import (
    add_estimates,
    error_profile,
    estimate_counts,
    section_volume,
)

PHI = (1 + math.sqrt(5)) / 2


def test_section_volume_closed_form():
    assert section_volume(2, 10.0, 1) == pytest.approx(math.sqrt(2) * 2 * math.log(10), rel=1e-15)
    assert section_volume(2, 10.0, 10) == pytest.approx(math.sqrt(2) * math.log(10), rel=1e-15)
    assert section_volume(2, 10.0, 100) == 0.0
    assert section_volume(2, 10.0, 101) == 0.0
    assert section_volume(4, 10.0, 1) == pytest.approx(
        2.0 / 6.0 * (4 * math.log(10)) ** 3, rel=1e-15
    )
    with pytest.raises(ValidationError):
        section_volume(2, 10.0, 0)


def test_estimate_counts_golden(q5, q5_units):
    table = estimate_counts(q5_units, BoxSpec(10.0), 100)
    assert table.ks[0] == 1
    assert table.n_raw[0] == pytest.approx(4 * math.log(10) / q5_units.regulator, rel=1e-12)
    assert table.n_est[0] == 19
    assert 2 not in table.ks  # a_2 = 0 never produces a row
    i = np.searchsorted(table.ks, 100)
    assert table.ks[i] == 100 and table.n_est[i] == 0  # zero section volume at k = R^n


def test_estimates_scale_with_coefficient(q5, q5_units):
    table = estimate_counts(q5_units, BoxSpec(10.0), 100)
    doubled = CountTable(
        R=table.R, degree=table.degree, cap=table.cap,
        ks=table.ks, a=2 * table.a, b=np.zeros_like(table.a),
    )
    redone = add_estimates(doubled, q5_units)
    assert np.allclose(redone.n_raw, 2 * table.n_raw, rtol=1e-12)


def test_estimate_monotone_in_k_along_coefficient_classes(q5, q5_units):
    table = estimate_counts(q5_units, BoxSpec(10.0), 100)
    for value in (1, 2):
        sel = table.a == value
        raw = table.n_raw[sel]
        assert np.all(np.diff(raw) <= 1e-12)


def test_error_column_and_profile(q5, q5_units):
    table = add_estimates(count_table(q5, BoxSpec(10.0)), q5_units)
    assert table.f is not None
    # f is the floor of the raw-estimate discrepancy, always a nonneg integer
    assert np.all(table.f >= 0)
    assert np.array_equal(table.f, np.floor(np.abs(table.n_raw - table.b)).astype(np.int64))
    prof = error_profile(table)
    assert prof.row_count == int((table.a != 0).sum())
    assert prof.max_error <= 2
    assert prof.histogram[1] >= 1
    assert prof.cumulative[-1][1] == pytest.approx(1.0)
    assert prof.cumulative[-1] == (prof.max_error, pytest.approx(1.0))
    assert prof.zero_fraction == prof.histogram.get(0, 0) / prof.row_count
    fracs = [c for _f, c in prof.cumulative]
    assert all(u <= v for u, v in zip(fracs, fracs[1:]))


def test_profile_of_perfect_table(q5, q5_units):
    table = add_estimates(count_table(q5, BoxSpec(10.0)), q5_units)
    perfect = CountTable(
        R=table.R, degree=table.degree, cap=table.cap,
        ks=table.ks, a=table.a, b=table.n_est.astype(np.int64),
        n_raw=table.n_est.astype(float),
    )
    assert np.array_equal(perfect.n_est, table.n_est)
    assert np.array_equal(perfect.f, np.zeros_like(table.ks))
    prof = error_profile(perfect)
    assert prof.zero_fraction == 1.0
    assert prof.max_error == 0


def test_unit_count_accuracy_improves_at_scale(q5, q5_units):
    """Exact unit counts come from the closed form: powers of the golden
    ratio up to R, doubled for the sign."""
    reg = q5_units.regulator
    rel_errors = []
    for R in (10.0, 100.0, 1000.0):
        b1 = 2 * (2 * int(math.log(R) / math.log(PHI)) + 1)
        n1 = 4 * math.log(R) / reg
        rel_errors.append(abs(n1 - b1) / b1)
    # the error does not shrink monotonically (the exact count is a step
    # function of log R), but the large-R runs are several times better
    assert rel_errors[0] < 0.07
    assert max(rel_errors[1:]) < 0.2 * rel_errors[0]


def test_error_profile_requires_columns(q5, q5_units):
    bare = count_table(q5, BoxSpec(10.0))
    with pytest.raises(ValidationError):
        error_profile(bare)


# the rows where |n_k_raw - b_k| = 2·a_k: k = R^2 for an integer R, where the
# section is a point (n_k_raw = 0.0) and the closed box holds ±R, so b_k = 2
EQUALITY_ROWS = {47: [47 ** 2], 76: [], 100: [100 ** 2], 1000: [1000 ** 2]}


@pytest.mark.parametrize("R", sorted(EQUALITY_ROWS))
def test_degree2_estimate_is_within_two_a_k(q5, q5_units, R):
    """|n_k_raw - b_k| <= 2·a_k on every Q(sqrt 5) row: each orbit of norm k
    holds floor(l) or floor(l) + 1 pairs ±u·x, where l = n_k/(w·a_k) is the
    length of its unit interval, so b_k and n_k differ by at most w·a_k = 2·a_k.
    n_k_raw is a float expression of log R, log k and the regulator, a few
    ulps off the exact value, and the bound is tight (the named rows meet it),
    so a row at the bound may read past it by rounding alone: the relative
    slack of 1e-12 forgives that and nothing of the size of a point."""
    table = add_estimates(count_table(q5, BoxSpec(float(R))), q5_units)
    gap = np.abs(table.n_raw - table.b)
    bound = 2.0 * table.a
    assert np.all(gap <= bound * (1 + 1e-12))
    at_bound = gap >= bound * (1 - 1e-12)
    assert table.ks[at_bound].tolist() == EQUALITY_ROWS[R]
    assert table.b[at_bound].tolist() == [2] * len(EQUALITY_ROWS[R])
