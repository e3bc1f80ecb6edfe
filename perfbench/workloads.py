"""The four workloads: fixed CLI jobs over the packaged fixtures.

Each workload has a few parameter variants (nearby radii and cutoffs that
cost about the same but give different, pinned results) and a tiny variant
for the smoke test.  The seed picks the variant and the job order.  A job
is (job id, CLI arguments); `{doc}` stands for the fixture path, and the
harness appends `--out` (and `--profile-out` for `estimate`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FIXTURES = "src/nfbounds/fixtures"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixture: str
    # True: a fresh worker per job; False: one worker whose caches persist
    fresh_worker: bool
    variants: tuple[tuple[tuple[str, str], ...], ...]
    tiny: tuple[tuple[str, str], ...]


def _session(n, r, r_eve, r_bounds):
    # every job asks for the same sieve cutoff, so whichever runs first
    # sieves and the other five hit the series cache in any order
    box = f"--radius {r} --max-norm {n}"
    return (("zeta-coeffs", f"zeta-coeffs {{doc}} --max {n}"),
            ("counts", f"counts {{doc}} {box}"),
            ("estimate", f"estimate {{doc}} {box}"),
            ("pep", f"pep {{doc}} {box} --snr 0:40:81"),
            ("eve", f"eve {{doc}} --radius {r_eve} --max-norm {n} --gamma 10"),
            ("bounds", f"bounds {{doc}} --s 2 --radius {r_bounds} --cutoff {n}"))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="octic-scan",
        why="degree 8: the 8-dimensional box scan, certify and Bareiss norms do "
            "nearly all the work; the sieve only reaches 1,000, so a zeta change "
            "should not move it",
        fixture="cyclo32real.json",
        fresh_worker=True,
        variants=tuple(
            (("field-info", "field-info {doc}"),
             ("counts", f"counts {{doc}} --radius 4.5 --max-norm {n}"),
             ("enumerate", f"enumerate {{doc}} --radius {r}"))
            for n, r in ((1000, 3.5), (1024, 3.51), (990, 3.49))),
        tiny=(("field-info", "field-info {doc}"),
              ("counts", "counts {doc} --radius 3 --max-norm 200"),
              ("enumerate", "enumerate {doc} --radius 3")),
    ),
    Workload(
        name="quartic-sieve",
        why="per-prime splitting_type takes about 80% of the wall time and the box "
            "is small: a sieve change must move it, a scan change should not",
        fixture="quartic725.json",
        fresh_worker=True,
        variants=tuple(
            (("zeta-coeffs", f"zeta-coeffs {{doc}} --max {n}"),
             ("bounds", f"bounds {{doc}} --s 2 --radius {r}"),
             ("pep", f"pep {{doc}} --radius {r} --snr={snr}"))
            for n, r, snr in ((30000, 10, "0:40:81"), (29989, 10.01, "0:40:81"),
                              (30011, 9.99, "-10:30:81"))),
        tiny=(("zeta-coeffs", "zeta-coeffs {doc} --max 3000"),
              ("bounds", "bounds {doc} --s 2 --radius 4"),
              ("pep", "pep {doc} --radius 4 --snr 0:40:5")),
    ),
    Workload(
        name="quartic-orbits",
        why="the only workload that reaches unit_orbits and the cached_points / "
            "cached_orbits pair (exact division, rational inverses, norms)",
        fixture="quartic725.json",
        fresh_worker=True,
        variants=tuple((("bounds", f"bounds {{doc}} --s 3 --height {m}"),)
                       for m in (12, 12.01, 11.99)),
        tiny=(("bounds", "bounds {doc} --s 3 --height 5"),),
    ),
    Workload(
        name="quadratic-session",
        why="one worker keeps its caches across six jobs: one sieve, then cache "
            "hits; the only workload on the degree-2 paths and long CSV tables",
        fixture="qsqrt5.json",
        fresh_worker=False,
        variants=(_session(50000, 1000, 500, 220),
                  _session(49999, 1001, 501, 221),
                  _session(50021, 999, 499, 219)),
        tiny=_session(10000, 100, 50, 30),
    ),
)}

DEFAULT_SEED = 1


def plan(workload: Workload, seed: int, tiny: bool = False):
    """(variant index, jobs in run order) for this seed; index -1 is tiny."""
    rng = random.Random(seed)
    if tiny:
        index, jobs = -1, list(workload.tiny)
    else:
        index = rng.randrange(len(workload.variants))
        jobs = list(workload.variants[index])
    rng.shuffle(jobs)
    return index, jobs
