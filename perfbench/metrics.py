"""Metric names, units and how the per-layer ones come out of the spans.

BENCHMARK.json lists the same names; the smoke test keeps them in step.
Which end-to-end metric each per-layer metric should move, on which
workload, is tabled in perfbench/README.md.
"""

from __future__ import annotations

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_share", "share", "higher"),
)

# spans whose total time (.s), self time (.self_s) or call count (.calls)
# is reported, as "<module>.<function>.<suffix>"
_SPAN_METRICS = (
    ("numberfield.parse_field", "s"),
    ("numberfield.norm_coords", "calls"), ("numberfield.norm_coords", "s"),
    ("numberfield.divide_exact", "calls"), ("numberfield.divide_exact", "s"),
    ("numberfield.inverse_coords_rational", "calls"),
    ("numberfield.inverse_coords_rational", "s"),
    ("units.build_unit_system", "s"), ("units.quadratic_fundamental_unit", "s"),
    ("zeta.splitting_type", "calls"), ("zeta.splitting_type", "s"),
    ("zeta.dirichlet_coeffs", "self_s"), ("zeta.dirichlet_coeffs", "calls"),
    ("zeta.zeta_derivative", "s"),
    ("enumeration.count_table", "self_s"), ("enumeration.enumerate_box", "self_s"),
    ("enumeration.unit_orbits", "self_s"),
    ("enumeration.cached_points", "calls"), ("enumeration.cached_orbits", "calls"),
    ("estimator.add_estimates", "s"), ("estimator.error_profile", "s"),
    ("bounds.full_height_report", "self_s"), ("bounds.geometric_bound", "self_s"),
    ("channel.pep_curve", "s"), ("channel.eve_probability", "s"),
    ("cli.load_field_document", "s"), ("cli.write_csv", "s"),
)
_UNITS = {"s": "s", "self_s": "s", "calls": "count"}

PER_LAYER = tuple(
    [(f"{span}.{suffix}", _UNITS[suffix], "lower") for span, suffix in _SPAN_METRICS]
    + [
        ("zeta.dirichlet_coeffs.hit_ratio", "ratio", "higher"),
        ("zeta.coeffs_sieved", "count", "higher"),
        ("zeta.coeffs_per_s", "1/s", "higher"),
        ("enumeration.count_table.points", "count", "higher"),
        ("enumeration.enumerate_box.points", "count", "higher"),
        ("enumeration.scan_points", "count", "higher"),
        ("enumeration.points_per_s", "1/s", "higher"),
        ("enumeration.rechecks", "count", "lower"),
        ("enumeration.unit_orbits.orbits", "count", "higher"),
        ("enumeration.cached_points.hit_ratio", "ratio", "higher"),
        ("enumeration.cached_orbits.hit_ratio", "ratio", "higher"),
        ("estimator.add_estimates.rows", "count", "higher"),
        ("cli.rows_written", "count", "higher"),
        ("cli.self_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traces: list[dict], traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer values summed over the traced jobs of one run.

    Ratios with a zero base (no such call on this workload) read 0; their
    base is reported beside them (calls, coefficients sieved, scan points).
    """
    values = {}
    for span, suffix in _SPAN_METRICS:
        values[f"{span}.{suffix}"] = sum(t["names"].get(span, {}).get(suffix, 0)
                                         for t in traces)

    def name_sum(span, key):
        return sum(t["names"].get(span, {}).get(key, 0) for t in traces)

    def counter_sum(key):
        return sum(t["counters"][key] for t in traces)

    def hit_ratio(span):
        hits = sum(t["hits"][span][0] for t in traces)
        return _ratio(hits, sum(t["hits"][span][1] for t in traces))

    sieved = sum(sum(t["counters"]["fresh_sieves"]) for t in traces)
    values.update({
        "zeta.dirichlet_coeffs.hit_ratio": hit_ratio("zeta.dirichlet_coeffs"),
        "zeta.coeffs_sieved": sieved,
        "zeta.coeffs_per_s": _ratio(sieved, counter_sum("sieve_s")),
        "enumeration.count_table.points": name_sum("enumeration.count_table", "points"),
        "enumeration.enumerate_box.points": name_sum("enumeration.enumerate_box", "points"),
        "enumeration.scan_points": counter_sum("scan_points"),
        "enumeration.points_per_s": _ratio(counter_sum("scan_points"),
                                           counter_sum("scan_s")),
        "enumeration.rechecks": counter_sum("rechecks"),
        "enumeration.unit_orbits.orbits": name_sum("enumeration.unit_orbits", "orbits"),
        "enumeration.cached_points.hit_ratio": hit_ratio("enumeration.cached_points"),
        "enumeration.cached_orbits.hit_ratio": hit_ratio("enumeration.cached_orbits"),
        "estimator.add_estimates.rows": name_sum("estimator.add_estimates", "rows"),
        "cli.rows_written": name_sum("cli.write_csv", "rows"),
        "cli.self_s": sum(t["job_s"] - t["top_s"] for t in traces),
        "trace.coverage": min(coverage(t) for t in traces),
        "trace.spans": counter_sum("spans"),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    })
    return values


def coverage(trace: dict) -> float:
    """Share of a job's time inside top-level layer spans."""
    return _ratio(trace["top_s"], trace["job_s"])
