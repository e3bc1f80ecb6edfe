from __future__ import annotations

import json
import math
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from nfbounds import _memo
from nfbounds.bounds import full_height_report, geometric_bound, height_bound_report, norm_sum
from nfbounds.enumeration import (BoxSpec, CountTable, cached_orbits, cached_points,
                                  count_by_norm, count_table, enumerate_box, unit_orbits)
from nfbounds.errors import ValidationError
from nfbounds.estimator import add_estimates
from nfbounds.numberfield import NumberField
from nfbounds.zeta import dirichlet_coeffs


def test_norm_sum_examples(q5):
    t1 = count_table(q5, BoxSpec(1.0))
    assert norm_sum(t1.ks, t1.b, 3) == 2.0
    assert norm_sum(t1.ks, t1.b, 2) == 2.0

    table = count_table(q5, BoxSpec(10.0))
    # independent oracle: direct sum over enumerated points
    points = enumerate_box(q5, BoxSpec(10.0))
    oracle = sum(1.0 / abs(q5.norm_coords(r)) ** 3 for r in points.tolist())
    assert norm_sum(table.ks, table.b, 3) == pytest.approx(oracle, rel=1e-12)
    assert norm_sum(table.ks, table.b, 3) > 18  # dominated by the 18 units
    values = [norm_sum(table.ks, table.b, s) for s in (2, 3, 4, 6, 8)]
    assert all(u > v for u, v in zip(values, values[1:]))
    assert all(v >= 18 for v in values)


def test_norm_sum_at_large_s(q5):
    """A k^s past the float range leaves its term 0.0 without a warning."""
    table = count_table(q5, BoxSpec(10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm_sum(table.ks, table.b, 400) == 18.0  # the units; 1/4^400 is below the last bit


def test_lower_bound_check(q5):
    for s in (2, 3):
        rep = height_bound_report(q5, s, 10)
        assert rep.lower_holds
        assert rep.norm_sum > rep.zeta_truncated > 1
    # degenerate truncation: only the unit ideal fits
    rep = height_bound_report(q5, 3, 1)
    assert rep.norm_sum == 2.0 and rep.zeta_truncated == 1.0
    assert not rep.lower_holds  # the z > 1 leg fails until a second ideal fits


def test_coefficient_upper_bound(q5):
    t1 = count_table(q5, BoxSpec(1.0))
    bound = height_bound_report(q5, 3, t1.R).coefficient_upper_bound
    assert bound == pytest.approx(2.0)  # max b = 2, zeta(3,1) = 1: tight
    table = count_table(q5, BoxSpec(10.0))
    bound = height_bound_report(q5, 3, table.R).coefficient_upper_bound
    assert bound >= norm_sum(table.ks, table.b, 3)
    assert bound == pytest.approx(18 * height_bound_report(q5, 3, 10).zeta_truncated)


def test_synthetic_constant_coefficient_table(q5, q5_units):
    table = count_table(q5, BoxSpec(10.0))
    c = 6
    synth = CountTable(
        R=table.R, degree=table.degree, cap=table.cap,
        ks=table.ks, a=table.a, b=np.full(len(table.ks), c, dtype=np.int64),
    )
    assert synth.total_points == c * len(table.ks)
    s = 3
    ssum = norm_sum(synth.ks, synth.b, s)
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
    oracle = count_by_norm(field, cached_points(field, box), box)
    assert rep.norm_sum == pytest.approx(norm_sum(oracle.ks, oracle.b, 2), rel=1e-12)
    assert rep.coefficient_upper_bound == int(oracle.b.max()) * rep.zeta_truncated


@pytest.mark.parametrize("name, m", [("q5", 10), ("q5", 100), ("quartic", 5), ("quartic", 12),
                                     ("octic", 3)])
def test_height_report_matches_the_orbits_of_the_full_box(request, monkeypatch, name, m):
    """The report reads a table of one row per pair x, -x and counts each
    row twice: its per-norm orbit counts and b_k, and the sums built from
    them, equal those of the unit orbits of the whole box."""
    field = request.getfixturevalue(name)
    monkeypatch.setattr(_memo, "_entries", OrderedDict())
    rep = height_bound_report(field, 2, m)
    box = BoxSpec(float(m))
    full = unit_orbits(field, enumerate_box(field, box))
    half = cached_orbits(field, box)

    def per_norm(orbits):
        ks, first, count = np.unique(orbits.norms, return_index=True, return_counts=True)
        return ks.tolist(), count.tolist(), np.diff(orbits.starts[first],
                                                    append=len(orbits.rows)).tolist()

    ks, orbit_counts, b = per_norm(full)
    assert per_norm(half) == (ks, orbit_counts, [v // 2 for v in b])
    assert all(v % 2 == 0 for v in b)
    zeta_trunc = float(sum(1.0 / k ** 2 for k, c in zip(ks, orbit_counts) for _ in range(c)))
    assert rep.zeta_truncated == zeta_trunc
    assert rep.norm_sum == norm_sum(np.array(ks), np.array(b), 2)
    assert rep.coefficient_upper_bound == max(b) * zeta_trunc


def test_height_report_takes_each_norm_once(quartic, monkeypatch):
    """The orbits and the table share one batch of norms over the box, taken
    once for each pair of points x, -x (the orbit rounds' cofactor calls
    aside)."""
    rows = {False: 0, True: 0}
    real_norm_rows = NumberField.norm_rows

    def counted(self, coords, cofactors=False):
        rows[cofactors] += len(coords)
        return real_norm_rows(self, coords, cofactors)

    monkeypatch.setattr(NumberField, "norm_rows", counted)
    monkeypatch.setattr(_memo, "_entries", OrderedDict())
    height_bound_report(quartic, 3, 5)
    assert 2 * rows[False] == len(cached_points(quartic, BoxSpec(5.0))) == 372


def test_geometric_bound_golden(q5, q5_units):
    z = dirichlet_coeffs(q5, 10 ** 4)
    rep = geometric_bound(q5_units, 2, 5.0, cutoff=10 ** 4)
    expected_k1 = 2 * math.sqrt(2) / q5_units.log_volume
    assert rep.K1 == pytest.approx(expected_k1, rel=1e-12)
    assert rep.K1 == pytest.approx(4.1562, abs=1e-3)
    assert rep.geometric_bound >= rep.estimator_sum
    assert len(rep.geometric_bound_terms) == q5.degree
    # terms reproduce K1 * [(log R^2) * zeta + |D^1 zeta|]
    from nfbounds.zeta import zeta_derivative

    t0 = rep.K1 * (2 * math.log(5.0)) * zeta_derivative(z, 0, 2).value
    t1 = rep.K1 * abs(zeta_derivative(z, 1, 2).value)
    assert rep.geometric_bound_terms[0] == pytest.approx(t0, rel=1e-12)
    assert rep.geometric_bound_terms[1] == pytest.approx(t1, rel=1e-12)
    # the printed leading-term form is reported but is NOT an upper bound
    # for the expansion's first term (it uses log R, not log R^n)
    assert rep.leading_term_bound < rep.geometric_bound_terms[0]


@pytest.mark.parametrize("R, cutoff", [(5.0, 10 ** 4), (150.0, 22500), (400.0, 10 ** 5)])
def test_geometric_bound_default_cutoff(q5_units, R, cutoff):
    """The series is sieved to min(max(R^n, 10^4), 10^5) unless a cutoff is given."""
    rep = geometric_bound(q5_units, 2, R)
    assert rep.zeta_cutoff == cutoff
    assert rep == geometric_bound(q5_units, 2, R, cutoff)


def test_geometric_bound_chain_cross_fixture(quartic, quartic_units):
    for s in (2, 3):
        rep = geometric_bound(quartic_units, s, 5.0, cutoff=10 ** 4)
        assert rep.geometric_bound >= rep.estimator_sum > 0
        assert all(t >= 0 for t in rep.geometric_bound_terms)
        assert math.isfinite(rep.geometric_bound)


def test_geometric_bound_dominates_estimator_sum(q5, q5_units):
    rep = geometric_bound(q5_units, 2, 5.0, cutoff=10 ** 4)
    table = add_estimates(count_table(q5, BoxSpec(5.0)), q5_units)
    lhs = norm_sum(table.ks, table.n_raw, 2)
    assert lhs == pytest.approx(rep.estimator_sum, rel=1e-12)
    assert lhs <= rep.geometric_bound


def test_invalid_exponent(q5, q5_units):
    table = count_table(q5, BoxSpec(5.0))
    with pytest.raises(ValidationError):
        norm_sum(table.ks, table.b, 1)
    with pytest.raises(ValidationError):
        geometric_bound(q5_units, 1, 5.0, cutoff=10 ** 4)
    with pytest.raises(ValidationError):
        height_bound_report(q5, 3, 0.5)
