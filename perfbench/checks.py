"""Output summaries and their comparison with the pinned expectations.

A summary keeps every exact integer exactly (integer CSV columns as a
SHA-256 digest plus row counts and preamble integers, integer JSON fields
as they are) and floats as values compared at a relative 1e-9.  So a
change that alters a single a_k or b_k, a point count or an orbit count
fails the check, while a change that only reorders a float sum does not.
"""

from __future__ import annotations

import hashlib
import json
import math

REL_TOL = 1e-9

# CSV columns holding exact integers; every other column is a float
INT_COLUMNS = {"k", "a_k", "b_k", "n_k", "f_k", "norm", "f", "count"}


def _is_int_column(name: str) -> bool:
    return name in INT_COLUMNS or (name[:1] == "c" and name[1:].isdigit())


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def summarize_csv(text: str) -> dict:
    lines = text.splitlines()
    preamble = {}
    while lines and lines[0].startswith("#"):
        for tok in lines.pop(0).split()[2:]:
            key, _, value = tok.partition("=")
            preamble[key] = value if key == "label" else _number(value)
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    digest = hashlib.sha256()
    floats = {}
    int_idx = [i for i, h in enumerate(header) if _is_int_column(h)]
    for row in rows:
        digest.update((",".join(row[i] for i in int_idx) + "\n").encode())
    for i, h in enumerate(header):
        if not _is_int_column(h) and rows:
            col = [float(r[i]) for r in rows]
            floats[h] = {"sum": math.fsum(col), "first": col[0], "last": col[-1]}
    return {"preamble": preamble, "header": header, "rows": len(rows),
            "int_sha256": digest.hexdigest(), "floats": floats}


def summarize_output(path) -> dict:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    return summarize_csv(text)


def mismatches(expected, actual, where: str = "") -> list[str]:
    """Every place where actual differs from expected (floats: rel 1e-9)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{where}/{key}: present on one side only")
            else:
                out += mismatches(expected[key], actual[key], f"{where}/{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{where}[{i}]")
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return [f"{where}: {actual!r} is not a number"]
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=1e-300):
            return []
        return [f"{where}: {actual!r} != {expected!r} (rel 1e-9)"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def primes_upto(n: int) -> int:
    """pi(n), by a plain sieve (the cold-sieve splitting_type call count)."""
    if n < 2:
        return 0
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return sum(sieve)


def trace_mismatches(job_id: str, trace: dict, outputs: dict, pinned: dict) -> list[str]:
    """Traced counters that disagree with the job's own results or pins.

    outputs: output name -> summary; pinned: the job's pinned counters.
    """
    out = []
    counters = traced_counters(trace)
    totals = [s["preamble"]["total"] for s in outputs.values()
              if "total" in s.get("preamble", {})]
    if totals and counters["count_table.points"] != sum(totals):
        out.append(f"{job_id}: count_table.points {counters['count_table.points']} "
                   f"!= CSV total {sum(totals)}")
    if job_id == "enumerate" and counters["enumerate_box.points"] != outputs["out"]["rows"]:
        out.append(f"{job_id}: enumerate_box.points {counters['enumerate_box.points']} "
                   f"!= CSV rows {outputs['out']['rows']}")
    csv_rows = sum(s["rows"] for s in outputs.values() if "header" in s)
    if counters["rows_written"] != csv_rows:
        out.append(f"{job_id}: rows_written {counters['rows_written']} != CSV rows {csv_rows}")
    # each cold sieve to N factors every prime <= N once
    sieves = trace["counters"]["fresh_sieves"]
    want = sum(primes_upto(n) for n in sieves)
    if counters["splitting_type.calls"] != want:
        out.append(f"{job_id}: splitting_type.calls {counters['splitting_type.calls']} "
                   f"!= sum of pi(N) over cold sieves {sieves} = {want}")
    for key, value in pinned.items():
        if counters[key] != value:
            out.append(f"{job_id}: traced {key} {counters[key]} != pinned {value}")
    return out


def traced_counters(trace: dict) -> dict:
    """The job's work counters that must agree with results (and are pinned)."""
    names = trace["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    return {"count_table.points": get("enumeration.count_table", "points"),
            "enumerate_box.points": get("enumeration.enumerate_box", "points"),
            "scan_points": trace["counters"]["scan_points"],
            "unit_orbits.orbits": get("enumeration.unit_orbits", "orbits"),
            "add_estimates.rows": get("estimator.add_estimates", "rows"),
            "rows_written": get("cli.write_csv", "rows"),
            "splitting_type.calls": get("zeta.splitting_type", "calls")}
