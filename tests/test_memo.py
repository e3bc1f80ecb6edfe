"""The one memo: hits share the stored object, stored values are frozen,
every entry names its field by the polynomial alone, the table stays
within its bound, concurrent callers agree with a serial run, and no
other module keeps a cache of its own."""

from __future__ import annotations

import ast
import dataclasses
import gc
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import nfbounds
from nfbounds import _memo, enumeration, zeta
from nfbounds.enumeration import BoxSpec, cached_orbits, cached_points
from nfbounds.numberfield import parse_field
from nfbounds.zeta import dirichlet_coeffs


def _clear_memo():
    with _memo._lock:
        _memo._entries.clear()


def test_hits_return_the_frozen_miss_object(quartic):
    box = BoxSpec(3.7)
    points = cached_points(quartic, box)
    assert cached_points(quartic, box) is points
    assert isinstance(points, np.ndarray) and points.dtype == np.int64
    orbits = cached_orbits(quartic, box)
    assert cached_orbits(quartic, box) is orbits
    assert isinstance(orbits, enumeration.OrbitTable) and orbits.rows.dtype == np.int64
    with pytest.raises(dataclasses.FrozenInstanceError):
        orbits.norms = np.ones(len(orbits), dtype=np.int64)
    for array in (points, orbits.rows):
        with pytest.raises(ValueError):
            array[0, 0] = 7
    for array in (orbits.starts, orbits.norms):
        with pytest.raises(ValueError):
            array[0] = 7
    assert 2 * len(orbits.rows) == len(points)  # one row of each pair x, -x


def _retained_bytes(compute):
    """(result, bytes still allocated once compute() has returned)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = compute()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_memoised_points_cost_at_most_64_bytes_each(q5):
    """The memo keeps the box as one int64 array, not an object per point."""
    _clear_memo()
    points, retained = _retained_bytes(lambda: cached_points(q5, BoxSpec(100.0)))
    assert len(points) == 17888
    assert retained <= 64 * len(points)


def test_memoised_orbits_cost_at_most_16_bytes_per_point(q5):
    """The orbits are one table of arrays, not an object per orbit, and
    hold one row of each pair x, -x of the box."""
    _clear_memo()
    points = cached_points(q5, BoxSpec(100.0))
    orbits, retained = _retained_bytes(lambda: cached_orbits(q5, BoxSpec(100.0)))
    assert 2 * len(orbits.rows) == len(points) == 17888
    assert retained <= 16 * len(points)


def test_cached_orbits_calls_unit_orbits_through_the_module(q5, monkeypatch):
    """A benchmark counter wraps enumeration.unit_orbits and reads len() of
    its result as the orbit count, so both must hold.  The memo passes the
    first half of the sorted box, one row of each pair x, -x."""
    _clear_memo()
    rows = cached_points(q5, BoxSpec(10.0))
    orbits = enumeration.unit_orbits(q5, rows)
    assert len(orbits) == len(orbits.starts) == len(np.split(orbits.rows, orbits.starts[1:]))
    calls = []

    def wrapped(field, points):
        calls.append(len(points))
        return orbits

    monkeypatch.setattr(enumeration, "unit_orbits", wrapped)
    assert cached_orbits(q5, BoxSpec(10.0)) is orbits
    assert calls == [len(rows) // 2]


def test_smaller_cutoff_is_a_slice(q5, monkeypatch):
    _clear_memo()
    big = dirichlet_coeffs(q5, 100)
    calls = []
    real = zeta._splitting_counts

    def counting(field, primes):
        calls.append(len(primes))
        return real(field, primes)

    monkeypatch.setattr(zeta, "_splitting_counts", counting)
    small = dirichlet_coeffs(q5, 50)
    assert calls == []
    assert small.cutoff == 50 and np.array_equal(small.a, big.a[:51])
    assert not small.a.flags.writeable
    dirichlet_coeffs(q5, 200)  # a larger cutoff sieves afresh, every prime once
    assert sum(calls) == 46


def test_one_polynomial_is_one_field(q5, monkeypatch):
    """Two parses of one polynomial are equal fields with one hash, and
    the second reuses the series, points and orbits of the first."""
    _clear_memo()
    box = BoxSpec(4.0)
    first = dirichlet_coeffs(q5, 300)
    points, orbits = cached_points(q5, box), cached_orbits(q5, box)
    twin = parse_field(q5.min_poly)
    assert twin is not q5 and twin == q5 and hash(twin) == hash(q5)
    monkeypatch.setattr(zeta, "_splitting_counts", None)  # any sieve would fail
    monkeypatch.setattr(enumeration, "_scan_blocks", None)  # and any box scan
    again = dirichlet_coeffs(twin, 300)
    assert np.shares_memory(again.a, first.a)
    assert again.field is twin
    assert cached_points(twin, box) is points
    assert cached_orbits(twin, box) is orbits


def test_memo_stays_within_its_bound(q5):
    for i in range(_memo.MAX_ENTRIES + 5):
        cached_points(q5, BoxSpec(1.5 + i / 64))
    assert len(_memo._entries) == _memo.MAX_ENTRIES


def test_threads_agree_with_a_serial_run(q5, quartic, octic):
    jobs = [(field, N, R) for field, radii in ((q5, (5.0, 9.0)), (quartic, (3.0, 4.0)),
                                              (octic, (2.5, 3.0)))
            for N in (500, 2000) for R in radii]

    def job(spec):
        field, N, R = spec
        series = dirichlet_coeffs(field, N)
        box = BoxSpec(R)
        orbits = cached_orbits(field, box)
        return (series.a.tolist(), cached_points(field, box).tolist(),
                orbits.rows.tolist(), orbits.starts.tolist(), orbits.norms.tolist())

    _clear_memo()
    serial = [job(spec) for spec in jobs]
    _clear_memo()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(job, jobs * 2, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 2
    assert len(_memo._entries) <= _memo.MAX_ENTRIES


_MEMOISERS = {"lru_cache", "cache"}
_CONTAINERS = {"dict", "OrderedDict", "defaultdict", "WeakValueDictionary"}


def _cache_sites(tree):
    """Line numbers of functools memoisers and of module-level mappings that
    start empty or whose name says cache."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in _MEMOISERS for alias in node.names):
                yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr in _MEMOISERS
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            yield node.lineno
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        empty = isinstance(value, ast.Dict) and not value.keys
        func = value.func if isinstance(value, ast.Call) else None
        built = (isinstance(func, ast.Name) and func.id in _CONTAINERS
                 or isinstance(func, ast.Attribute) and func.attr in _CONTAINERS)
        if empty or built or any("cache" in n.lower() for n in names):
            yield node.lineno


def test_no_cache_outside_the_memo():
    found = []
    for path in sorted(Path(nfbounds.__file__).parent.glob("*.py")):
        if path.name != "_memo.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{line}" for line in _cache_sites(tree)]
    assert not found, f"a cache outside nfbounds._memo: {found}"
