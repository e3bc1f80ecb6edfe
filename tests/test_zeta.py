from __future__ import annotations

import copy
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddf_oracle import _ddf_type, _rank_mod_p
from sieve_oracle import euler_sieve, splitting_types
from nfbounds import _memo, bounds, enumeration, numberfield, zeta
from nfbounds.bounds import height_bound_report
from nfbounds.enumeration import BoxSpec, cached_orbits, cached_points
from nfbounds.errors import (CutoffTooSmall, InvariantError, NotPrime, ResourceLimitError,
                             ValidationError)
from nfbounds.numberfield import Polynomial, parse_field
from nfbounds.zeta import (
    _fits_int64,
    _is_prime,
    _primes_upto,
    dirichlet_coeffs,
    splitting_type,
    zeta_derivative,
)

PHI = (1 + math.sqrt(5)) / 2


def quadratic_character_coeffs(N: int) -> np.ndarray:
    """a_k = sum over divisors d of k of chi_5(d), the divisor-sum oracle."""
    chi = {0: 0, 1: 1, 2: -1, 3: -1, 4: 1}
    a = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        a[d::d] += chi[d % 5]
    return a


def order_mod_pm32(p):
    """Residue degree of an odd prime in the octic: the order of p mod 32 up to sign."""
    t, cur, o = p % 32, p % 32, 1
    while cur not in (1, 31):
        cur = cur * t % 32
        o += 1
    return o


def test_splitting_examples(q5):
    assert splitting_type(q5, 11).factor_degrees == (1, 1)
    assert not splitting_type(q5, 11).ramified
    assert splitting_type(q5, 2).factor_degrees == (2,)
    ram = splitting_type(q5, 5)
    assert ram.factor_degrees == (1,) and ram.ramified
    for bad in (0, 1, 10, 3 * (2 ** 31 - 1)):
        with pytest.raises(NotPrime):
            splitting_type(q5, bad)


def test_primality_is_proven_or_refused(q5):
    """psi_12 = 399165290221 · 798330580441 passes the strong test to the
    bases 2..37 and fails base 41; psi_13 passes all 13 bases, so past it
    no answer is proven; the Mersenne prime 2^61 - 1 is accepted."""
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    with pytest.raises(NotPrime):
        splitting_type(q5, psi12)
    with pytest.raises(ResourceLimitError, match=str(psi13)):
        splitting_type(q5, psi13)
    assert _is_prime(2 ** 61 - 1)
    assert splitting_type(q5, 2 ** 61 - 1).p == 2 ** 61 - 1


def test_splitting_octic_order_oracle(octic):
    """For this abelian field the residue degree of an odd prime is the
    multiplicative order of p modulo 32 up to sign."""
    for p in (3, 5, 7, 17, 31, 97, 113, 193, 257, 577, 1009):
        st = splitting_type(octic, p)
        f = order_mod_pm32(p)
        assert st.factor_degrees == tuple([f] * (8 // f))
        assert not st.ramified
    st2 = splitting_type(octic, 2)
    assert st2.factor_degrees == (1,) and st2.ramified


def test_splitting_quartic_ramification(quartic):
    # poly discriminant 725 = 5^2 * 29: ramification only at 5 and 29
    ramified = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                if splitting_type(quartic, p).ramified]
    assert ramified == [5, 29]
    for p in (2, 3, 7, 11, 13):
        assert sum(splitting_type(quartic, p).factor_degrees) == 4
    types = splitting_types(quartic, _primes_upto(2000))
    assert [st.p for st in types if st.ramified] == [5, 29]


@pytest.mark.parametrize("name, cutoff", [("q5", 10 ** 5), ("quartic", 10 ** 5),
                                          ("octic", 65536)])
def test_batched_splitting_matches_ddf(name, cutoff, request):
    """Every prime, prime by prime, against distinct-degree factorization."""
    field = request.getfixturevalue(name)
    n = field.degree
    primes = _primes_upto(cutoff).tolist()
    types = splitting_types(field, primes)
    assert [st.p for st in types] == primes
    unramified = 0
    for st in types:
        oracle = _ddf_type(field, st.p)
        assert st == oracle
        unramified += st.p > n and not oracle.ramified
    assert unramified == {"q5": 9590, "quartic": 9588, "octic": 6538}[name]


# real subfields of Q(zeta_k): minimal polynomials of 2 cos(2 pi / k)
REAL_CYCLOTOMIC = {
    7: (-1, -2, 1, 1),
    11: (1, 3, -3, -4, 1, 1),
    13: (-1, 3, 6, -4, -5, 1, 1),
    17: (1, -4, -10, 10, 15, -6, -7, 1, 1),
    21: (1, -8, 8, 6, -6, -1, 1),
    28: (-7, 0, 14, 0, -7, 0, 1),
}


@pytest.mark.parametrize("k", sorted(REAL_CYCLOTOMIC))
def test_real_cyclotomic_splitting_matches_ddf(k):
    """Every prime up to 2,000, including p <= n and the primes dividing k,
    which are the ramified ones (totally so for prime k)."""
    field = parse_field(Polynomial(REAL_CYCLOTOMIC[k]))
    primes = _primes_upto(2000).tolist()
    types = splitting_types(field, primes)
    for st in types:
        assert st == _ddf_type(field, st.p)
    assert [st.p for st in types if st.ramified] == [p for p in primes if k % p == 0]


def _octic_guard_primes():
    """The largest prime that passes the octic's int64 guard and the next one."""
    below = 2 ** 30
    while not _is_prime(below):
        below -= 1
    above = below + 1
    while not _is_prime(above):
        above += 1
    return below, above


def test_int64_guard_boundary(octic, monkeypatch):
    """Both sides of the guard, and a 61-bit prime, go through the Berlekamp
    matrix: in int64 below the guard, in Python integers past it."""
    below, above = _octic_guard_primes()
    assert _fits_int64(8, below) and not _fits_int64(8, above)
    dtypes = []
    real = zeta._berlekamp

    def spy(coeffs, primes, dtype):
        dtypes.append(dtype)
        return real(coeffs, primes, dtype)

    monkeypatch.setattr(zeta, "_berlekamp", spy)
    for p, dtype in ((below, np.int64), (above, object), (2 ** 61 - 1, object)):
        dtypes.clear()
        st = splitting_type(octic, p)
        assert dtypes == [dtype]
        f = order_mod_pm32(p)
        assert st.factor_degrees == tuple([f] * (8 // f)) and not st.ramified
        assert st == _ddf_type(octic, p)


def test_ddf_degree_sum_invariant(quartic, monkeypatch):
    """p = 3 <= n is read from kernel ranks; a rank of 1 for every Q^m - I
    gives three linear factors, too few for a prime that does not divide
    the discriminant 725."""
    monkeypatch.setattr(zeta, "_ranks_mod_p", lambda mats, p: np.ones(len(mats), dtype=np.int64))
    with pytest.raises(InvariantError):
        splitting_type(quartic, 3)


@pytest.mark.parametrize("disc", [725 * 3, 29])
def test_ramification_cross_check(quartic, disc):
    """A wrong discriminant: 3 splits f into distinct factors but would
    divide it; 5 gives a repeated factor but would not divide it."""
    field = copy.copy(quartic)
    field.poly_discriminant = disc
    with pytest.raises(InvariantError):
        splitting_types(field, [2, 3, 5, 7])


@st.composite
def rank_stacks(draw):
    """(mats, primes, most): a stack of n×n integer matrices, one prime of
    {2, 3, 5, 7, 11, 13} each, and an upper bound on each rank.  The kinds
    are zero, a multiple of the identity, a product X·Y through r < n
    columns (rank at most r) and a free matrix."""
    n = draw(st.integers(1, 8))
    entry = st.integers(-40, 40)
    mats, primes, most = [], [], []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["zero", "identity", "deficient", "free"]))
        if kind == "zero":
            m, r = np.zeros((n, n), dtype=np.int64), 0
        elif kind == "identity":
            m, r = draw(entry) * np.eye(n, dtype=np.int64), n
        elif kind == "deficient":
            r = draw(st.integers(0, n - 1))
            x = np.array(draw(st.lists(entry, min_size=n * r, max_size=n * r)), dtype=np.int64)
            y = np.array(draw(st.lists(entry, min_size=n * r, max_size=n * r)), dtype=np.int64)
            m = x.reshape(n, r) @ y.reshape(r, n)
        else:
            m = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)),
                         dtype=np.int64).reshape(n, n)
            r = n
        mats.append(m)
        primes.append(draw(st.sampled_from([2, 3, 5, 7, 11, 13])))
        most.append(r)
    return np.array(mats), np.array(primes), most


@settings(max_examples=300, deadline=None)
@given(rank_stacks())
def test_batched_ranks_match_the_oracle(stack):
    """One elimination along the stack gives each matrix its own rank mod its
    own prime, as the one-matrix elimination does."""
    mats, primes, most = stack
    ranks = zeta._ranks_mod_p(mats, primes)
    assert ranks.tolist() == [_rank_mod_p(m.tolist(), int(p)) for m, p in zip(mats, primes)]
    assert all(r <= bound for r, bound in zip(ranks.tolist(), most))


@pytest.mark.parametrize("traces", [[1, 0], [2, 4], [0, 0]])
def test_frobenius_inversion_invariants(q5, monkeypatch, traces):
    """Q becomes the companion matrix of x^2 - t1 x + e2 mod 11, whose powers
    have traces t1 and t1^2 - 2 e2 = t2.  [1, 0]: 2 * r_2 = 0 - 1 is odd;
    [2, 4]: the sum of d * r_d is 4 > 2; [0, 0]: the sum 0 < 2 reads as
    ramified at 11, which does not divide the discriminant 5."""
    t1, t2 = traces
    e2 = (t1 * t1 - t2) * pow(2, -1, 11) % 11
    companion = [[0, -e2 % 11], [1, t1]]
    monkeypatch.setattr(zeta, "_berlekamp", lambda coeffs, primes, dtype:
                        np.array([companion] * len(primes), dtype=dtype).transpose(1, 2, 0))
    with pytest.raises(InvariantError):
        splitting_type(q5, 11)


def test_frobenius_kernel_rejects_primes_past_int64_guard(octic, monkeypatch):
    """Told that every prime fits, the dispatcher picks int64 past the guard;
    the matrix builder re-checks and refuses."""
    _, above = _octic_guard_primes()
    monkeypatch.setattr(zeta, "_fits_int64", lambda n, p: True)
    with pytest.raises(InvariantError):
        splitting_type(octic, above)


def test_isolate_root_count_invariant(monkeypatch):
    real_sign = numberfield._sign_at
    # a phantom exact root at 0, the first bisection point of x^2 - x - 1
    monkeypatch.setattr(numberfield, "_sign_at",
                        lambda coeffs, a, k: 0 if a == 0 else real_sign(coeffs, a, k))
    with pytest.raises(InvariantError):
        numberfield._isolate((-1, -1, 1))


def test_dirichlet_examples(q5):
    z = dirichlet_coeffs(q5, 100)
    assert [int(z.a[k]) for k in (1, 4, 5, 9, 11)] == [1, 1, 1, 1, 2]
    assert [int(z.a[k]) for k in (2, 3, 7)] == [0, 0, 0]
    assert int(z.a[1]) == 1


def test_dirichlet_series_is_read_only(q5):
    z = dirichlet_coeffs(q5, 100)
    with pytest.raises(ValueError):
        z.a[4] = 999
    assert dirichlet_coeffs(q5, 50).a[4] == 1


def test_dirichlet_character_oracle(q5):
    z = dirichlet_coeffs(q5, 2000)
    assert np.array_equal(z.a[1:], quadratic_character_coeffs(2000)[1:])


def test_dirichlet_multiplicative(q5):
    N = 10 ** 4
    a = dirichlet_coeffs(q5, N).a
    for j in range(2, 101):
        for k in range(j + 1, N // j + 1):
            if math.gcd(j, k) == 1:
                assert a[j * k] == a[j] * a[k]


def cold_coeffs(field, N):
    """dirichlet_coeffs(field, N).a sieved afresh, not sliced from the memo."""
    with _memo._lock:
        _memo._entries.clear()
    return dirichlet_coeffs(field, N).a


# N = 1 and 2; p^2 - 1 and p^2, where p joins the primes up to sqrt(N); more
# than _CHUNK primes past sqrt(N) at 40,000 (4,157 of them); 10^5
SIEVE_CUTOFFS = (1, 2, 3, 4, 8, 9, 48, 49, 960, 961, 40000, 10 ** 5)


@pytest.mark.parametrize("name", ["q5", "quartic", "octic"] + sorted(REAL_CYCLOTOMIC))
def test_sieve_matches_euler_factor_oracle(name, request, monkeypatch):
    """The small-prime loop plus the large-prime scatter against one whole
    Euler factor per prime, at cutoffs where the split moves."""
    if isinstance(name, int):
        field = parse_field(Polynomial(REAL_CYCLOTOMIC[name]))
    else:
        field = request.getfixturevalue(name)
    oracle = euler_sieve(field, max(SIEVE_CUTOFFS))  # a_k does not depend on N
    for N in SIEVE_CUTOFFS:
        assert np.array_equal(cold_coeffs(field, N), oracle[: N + 1]), N
    monkeypatch.setattr(zeta, "_CHUNK", 7)  # small and large primes over many chunks
    assert np.array_equal(cold_coeffs(field, 2000), oracle[:2001])


def test_benchmark_sieves_run_on_int64(q5, quartic, octic, monkeypatch):
    """The benchmark's cold sieves read every chunk on int64, never on the
    Python-integer fallback."""
    dtypes = []
    real = zeta._berlekamp

    def spy(coeffs, primes, dtype):
        dtypes.append(dtype)
        return real(coeffs, primes, dtype)

    monkeypatch.setattr(zeta, "_berlekamp", spy)
    for field, N in ((quartic, 30000), (q5, 50000), (octic, 1000)):
        dtypes.clear()
        cold_coeffs(field, N)
        assert dtypes and set(dtypes) == {np.int64}


def test_sieve_memory_is_bounded(q5):
    """A cold sieve to 10^6 holds little beside its 8 MB output: the Frobenius
    passes and the large-prime scatter keep their temporaries bounded."""
    N = 10 ** 6
    cold_coeffs(q5, 1000)  # warm the lazy set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        a = cold_coeffs(q5, N)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert a.nbytes == 8 * (N + 1)
    assert peak < 2.5 * a.nbytes, peak


def test_zeta_value_golden(q5):
    z = dirichlet_coeffs(q5, 10 ** 4)
    closed = (math.pi ** 2 / 6) * (4 * math.pi ** 2 / (25 * math.sqrt(5)))
    v = zeta_derivative(z, 0, 2)
    assert v.value == pytest.approx(closed, abs=1e-3)
    assert v.value > 1
    v3 = zeta_derivative(z, 0, 3)
    assert 1 < v3.value < 1.05
    # frozen from a 10^6-term partial sum of the character oracle
    assert v3.value == pytest.approx(1.0275480117, abs=1e-6)


def test_zeta_value_decreasing_in_s(q5):
    z = dirichlet_coeffs(q5, 10 ** 4)
    values = [zeta_derivative(z, 0, s).value for s in (2, 3, 4, 5, 6)]
    assert all(u > v for u, v in zip(values, values[1:]))
    assert all(v > 1 for v in values)


def test_zeta_value_cutoff_guard(q5):
    z = dirichlet_coeffs(q5, 100)
    with pytest.raises(CutoffTooSmall):
        zeta_derivative(z, 0, 2)  # hard floor for s = 2
    z2 = dirichlet_coeffs(q5, 10 ** 4)
    with pytest.raises(ValidationError):
        zeta_derivative(z2, 0, 1)


def test_zeta_derivative(q5):
    z = dirichlet_coeffs(q5, 10 ** 4)
    d1 = zeta_derivative(z, 1, 2)
    ks = np.arange(1, z.cutoff + 1, dtype=float)
    oracle = float((z.a[1:] * np.log(ks) / ks ** 2).sum())
    assert d1.value < 0
    assert abs(d1.value) == pytest.approx(oracle, rel=1e-12)
    # doubling the cutoff must not move the value more than the tail estimate
    z_half = dirichlet_coeffs(q5, 5000)
    d_half = zeta_derivative(z_half, 1, 2)
    assert abs(d_half.value - d1.value) <= 2 * d_half.tail_estimate
    assert zeta_derivative(z, 2, 2).value > 0


def test_bounded_height_zeta_small_cases(q5):
    assert height_bound_report(q5, 3, 1).zeta_truncated == 1.0


def test_bounded_height_zeta_orbit_oracle(q5):
    """Brute-force oracle: group box points into ideals by pairwise exact
    division only, then sum norm powers once per group."""
    m = 10
    points = cached_points(q5, BoxSpec(float(m)))
    by_norm: dict[int, list] = {}
    for p, k in zip(points.tolist(), q5.norm_rows(points)):
        by_norm.setdefault(abs(k), []).append(p)
    total = 0.0
    for k, members in by_norm.items():
        groups = []
        for x in members:
            for g in groups:
                if q5.divide_exact(x, g[0]) is not None:
                    g.append(x)
                    break
            else:
                groups.append([x])
        total += len(groups) / k ** 3
    value = height_bound_report(q5, 3, m).zeta_truncated
    assert value == pytest.approx(total, rel=1e-12)
    # spec-level shape: 1 + 1/4^3 + 1/5^3 + 1/9^3 + positive remainder
    base = 1 + 1 / 64 + 1 / 125 + 1 / 729
    assert value > base
    assert value - base < 0.01


def test_bounded_height_zeta_monotone(q5):
    z = dirichlet_coeffs(q5, 10 ** 4)
    full = zeta_derivative(z, 0, 3).value
    values = [height_bound_report(q5, 3, m).zeta_truncated for m in (1, 2, 4, 8, 10)]
    assert all(u <= v + 1e-15 for u, v in zip(values, values[1:]))
    assert all(v <= full for v in values)
    # units have height phi but generate the unit ideal; the first new ideal
    # is (2) at height 2, so the sum leaves 1 exactly there
    assert height_bound_report(q5, 3, PHI + 1e-9).zeta_truncated == 1.0
    assert height_bound_report(q5, 3, 2).zeta_truncated > 1


@pytest.mark.parametrize("k, s, kind", [(2, 400, "normal"), (3, 650, "subnormal"),
                                        (2, 1074, "subnormal"), (2, 1075, "zero"),
                                        (3, 700, "zero")])
def test_bounded_height_zeta_terms_past_the_float_range(q5, monkeypatch, k, s, kind):
    """Where k**s has no float, 1/k^s is rounded exactly: a subnormal stays
    subnormal, and a term below half the least one is 0.0."""
    table = enumeration.OrbitTable(np.zeros((1, 2), dtype=np.int64), np.array([0]), np.array([k]))
    monkeypatch.setattr(bounds, "cached_orbits", lambda field, box: table)
    value = height_bound_report(q5, s, 3).zeta_truncated
    assert value == 1 / k ** s
    assert kind == ("zero" if value == 0 else
                    "subnormal" if value < sys.float_info.min else "normal")


def test_orbit_count_never_exceeds_ideal_count(q5):
    ks, per_norm = np.unique(cached_orbits(q5, BoxSpec(100.0)).norms, return_counts=True)
    counts = dict(zip(ks.tolist(), per_norm.tolist()))
    a = dirichlet_coeffs(q5, 10 ** 4).a
    for k, c in counts.items():
        assert c <= a[k]
    for k in range(1, 21):
        if a[k]:
            assert counts.get(k, 0) == a[k]  # equality well inside the box


def test_dirichlet_multiplicative_quartic(quartic):
    N = 3000
    a = dirichlet_coeffs(quartic, N).a
    for j in range(2, 55):
        for k in range(j + 1, N // j + 1):
            if math.gcd(j, k) == 1:
                assert a[j * k] == a[j] * a[k]
