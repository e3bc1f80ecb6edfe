from __future__ import annotations

import json
import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from nfbounds import _memo
from nfbounds.bounds import (
    coefficient_upper_bound,
    eve_sum,
    full_height_report,
    geometric_bound,
    height_bound_report,
    lower_bound_check,
    norm_sum,
    pep_sum,
)
from nfbounds.enumeration import (BoxSpec, CountTable, _norm_cap, cached_points,
                                  count_by_norm, count_table, enumerate_box)
from nfbounds.errors import ValidationError
from nfbounds.estimator import add_estimates
from nfbounds.numberfield import NumberField
from nfbounds.zeta import dirichlet_coeffs


def test_norm_sum_examples(q5):
    z1 = dirichlet_coeffs(q5, 1)
    t1 = count_table(q5, BoxSpec(1.0), z1)
    assert norm_sum(t1, 3) == 2.0
    assert norm_sum(t1, 2) == 2.0

    z = dirichlet_coeffs(q5, 100)
    table = count_table(q5, BoxSpec(10.0), z)
    # independent oracle: direct sum over enumerated points
    points = enumerate_box(q5, BoxSpec(10.0))
    oracle = sum(1.0 / abs(q5.norm_coords(r)) ** 3 for r in points.tolist())
    assert norm_sum(table, 3) == pytest.approx(oracle, rel=1e-12)
    assert norm_sum(table, 3) > 18  # dominated by the 18 units
    values = [norm_sum(table, s) for s in (2, 3, 4, 6, 8)]
    assert all(u > v for u, v in zip(values, values[1:]))
    assert all(v >= 18 for v in values)


def test_norm_sum_at_large_s(q5):
    """A k^s past the float range leaves its term 0.0 without a warning."""
    table = count_table(q5, BoxSpec(10.0), dirichlet_coeffs(q5, 100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm_sum(table, 400) == 18.0  # the units; 1/4^400 is below the last bit


def test_eve_pep_aliases(q5):
    z = dirichlet_coeffs(q5, 100)
    table = count_table(q5, BoxSpec(10.0), z)
    assert eve_sum(table) == norm_sum(table, 3)
    assert pep_sum(table) == norm_sum(table, 2)
    assert pep_sum(table) >= eve_sum(table)


def test_lower_bound_check(q5):
    for s in (2, 3):
        s_sum, z_sum, holds = lower_bound_check(q5, s, 10)
        assert holds
        assert s_sum > z_sum > 1
    # degenerate truncation: only the unit ideal fits
    s_sum, z_sum, holds = lower_bound_check(q5, 3, 1)
    assert s_sum == 2.0 and z_sum == 1.0
    assert not holds  # the z > 1 leg fails until a second ideal fits
    rep = height_bound_report(q5, 3, 1)
    assert rep.degenerate


def test_coefficient_upper_bound(q5):
    z1 = dirichlet_coeffs(q5, 1)
    t1 = count_table(q5, BoxSpec(1.0), z1)
    bound = coefficient_upper_bound(t1, q5, 3)
    assert bound == pytest.approx(2.0)  # max b = 2, zeta(3,1) = 1: tight
    # the closed box at R = 1 - 1e-10 still holds the units +-1
    t_edge = count_table(q5, BoxSpec(1 - 1e-10), z1)
    assert coefficient_upper_bound(t_edge, q5, 3) == pytest.approx(2.0)
    z = dirichlet_coeffs(q5, 100)
    table = count_table(q5, BoxSpec(10.0), z)
    bound = coefficient_upper_bound(table, q5, 3)
    assert bound >= norm_sum(table, 3)
    assert bound == pytest.approx(18 * height_bound_report(q5, 3, 10).zeta_truncated)


def test_synthetic_constant_coefficient_table(q5, q5_units):
    z = dirichlet_coeffs(q5, 100)
    table = count_table(q5, BoxSpec(10.0), z)
    c = 6
    synth = CountTable(
        R=table.R, degree=table.degree, cap=table.cap, max_norm=table.max_norm,
        ks=table.ks, a=table.a, b=np.full(len(table.ks), c, dtype=np.int64),
        total_points=c * len(table.ks),
    )
    s = 3
    ssum = norm_sum(synth, s)
    factored = c * float((1.0 / synth.ks.astype(float) ** s).sum())
    assert ssum == pytest.approx(factored, rel=1e-12)


def test_height_report_consistency(q5):
    rep = height_bound_report(q5, 2, 10)
    assert rep.lower_holds and rep.upper_holds
    assert rep.coefficient_upper_bound == 18 * rep.zeta_truncated  # max b_k = 18
    full = full_height_report(q5, 2, 10)
    assert full.norm_sum == rep.norm_sum
    payload = json.loads(full.to_json(label="x"))
    assert payload["label"] == "x"
    assert payload["zeta_truncated"] == rep.zeta_truncated


@pytest.mark.parametrize("name, m", [("q5", 10), ("quartic", 5), ("octic", 3)])
def test_height_table_matches_counts_by_norm(request, monkeypatch, name, m):
    """The report, summed from orbit sizes without a sieve, agrees with the
    per-point counts of the box."""
    field = request.getfixturevalue(name)
    monkeypatch.setattr(_memo, "_entries", OrderedDict())
    with monkeypatch.context() as patched:
        patched.setattr("nfbounds.zeta._primes_upto",
                        lambda N: pytest.fail("the height report sieved"))
        rep = height_bound_report(field, 2, m)
    box = BoxSpec(float(m))
    oracle = count_by_norm(cached_points(field, box),
                           dirichlet_coeffs(field, _norm_cap(field, box, None)), box)
    assert rep.norm_sum == pytest.approx(norm_sum(oracle, 2), rel=1e-12)
    assert rep.coefficient_upper_bound == int(oracle.b.max()) * rep.zeta_truncated


def test_height_report_takes_each_norm_once(quartic, monkeypatch):
    """The orbits and the table share one batch of norms over the box."""
    rows = []
    real_norm_rows = NumberField.norm_rows

    def counted(self, coords, cofactors=False):
        rows.append(len(coords))
        return real_norm_rows(self, coords, cofactors)

    monkeypatch.setattr(NumberField, "norm_rows", counted)
    monkeypatch.setattr(_memo, "_entries", OrderedDict())
    height_bound_report(quartic, 3, 5)
    assert sum(rows) == len(cached_points(quartic, BoxSpec(5.0))) == 372


def test_geometric_bound_golden(q5, q5_units):
    z = dirichlet_coeffs(q5, 10 ** 4)
    rep = geometric_bound(z, q5_units, 2, 5.0)
    expected_k1 = 2 * math.sqrt(2) / q5_units.log_volume
    assert rep.K1 == pytest.approx(expected_k1, rel=1e-12)
    assert rep.K1 == pytest.approx(4.1562, abs=1e-3)
    assert rep.geometric_bound >= rep.estimator_sum
    assert len(rep.geometric_bound_terms) == q5.degree
    # terms reproduce K1 * [(log R^2) * zeta + |D^1 zeta|]
    from nfbounds.zeta import zeta_derivative, zeta_value

    t0 = rep.K1 * (2 * math.log(5.0)) * zeta_value(z, 2).value
    t1 = rep.K1 * abs(zeta_derivative(z, 1, 2).value)
    assert rep.geometric_bound_terms[0] == pytest.approx(t0, rel=1e-12)
    assert rep.geometric_bound_terms[1] == pytest.approx(t1, rel=1e-12)
    # the printed leading-term form is reported but is NOT an upper bound
    # for the expansion's first term (it uses log R, not log R^n)
    assert rep.leading_term_bound < rep.geometric_bound_terms[0]


def test_geometric_bound_chain_cross_fixture(quartic, quartic_units):
    z = dirichlet_coeffs(quartic, 10 ** 4)
    for s in (2, 3):
        rep = geometric_bound(z, quartic_units, s, 5.0)
        assert rep.geometric_bound >= rep.estimator_sum > 0
        assert all(t >= 0 for t in rep.geometric_bound_terms)
        assert math.isfinite(rep.geometric_bound)


def test_geometric_bound_dominates_estimator_sum(q5, q5_units):
    z = dirichlet_coeffs(q5, 10 ** 4)
    rep = geometric_bound(z, q5_units, 2, 5.0)
    table = add_estimates(count_table(q5, BoxSpec(5.0), z), q5_units)
    lhs = norm_sum(table, 2, "estimate_raw")
    assert lhs == pytest.approx(rep.estimator_sum, rel=1e-12)
    assert lhs <= rep.geometric_bound


def test_invalid_exponent(q5, q5_units):
    z = dirichlet_coeffs(q5, 10 ** 4)
    table = count_table(q5, BoxSpec(5.0), z)
    with pytest.raises(ValidationError):
        norm_sum(table, 1)
    with pytest.raises(ValidationError):
        geometric_bound(z, q5_units, 1, 5.0)
    with pytest.raises(ValidationError):
        height_bound_report(q5, 3, 0.5)
