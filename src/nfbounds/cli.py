"""Command-line front end.

Subcommands cover the whole pipeline: field construction and unit data
(`field-info`), ideal-count coefficients (`zeta-coeffs`), box enumeration
(`enumerate`), exact per-norm counts (`counts`), the geometric estimate
with its error profile (`estimate`), zeta-function bounds (`bounds`), and
the probability curves (`pep`, `eve`).

Exit codes: 0 success, 2 validation error, 3 budget or cutoff failure.
CSV output uses a header row, UTF-8, '.' decimals, and 15 significant
digits for floats, so repeated runs diff cleanly.  Columns become Python
values a block of rows at a time, and each block is formatted by one `%`
template and written at once, so no table is held as text.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import channel, estimator
from .bounds import full_height_report, geometric_bound
from .enumeration import DEFAULT_BUDGET, BoxSpec, CountTable, count_table, enumerate_box
from .errors import ResourceLimitError, ValidationError
from .numberfield import NumberField, Polynomial, parse_field
from .units import UnitSystem, build_unit_system
from .zeta import dirichlet_coeffs

_HINTS = {
    "SieveTooLarge": "lower --radius, --max-norm, --max or --cutoff",
    "PrecisionTooHigh": "move --radius or --tol off a boundary point",
    "CutoffTooSmall": "raise --cutoff",
    "NotTotallyReal": "the minimal polynomial must have only real roots",
    "NotSquarefree": "the minimal polynomial must be squarefree",
    "NotMonic": "the minimal polynomial must be monic",
    "WrongRank": "supply exactly r1+r2-1 fundamental units in the field document",
    "NotAUnit": "every supplied unit must have |norm| = 1",
    "RegulatorMismatch": "supplied units disagree with expected_regulator",
    "EmptyGrid": "the SNR grid needs at least one point",
    "GridTooLarge": "use fewer --snr points",
}


# rows formatted, joined and written per step: bounds the text alive at once
_CSV_BLOCK = 4096


def _cells(*columns):
    """Rows of plain Python values from equal-length columns (arrays, or
    lists numpy converts without loss), one `.tolist()` per column per
    block of `_CSV_BLOCK` rows: a float64 column gives floats, an integer
    or `object` column Python integers."""
    for s in range(0, len(columns[0]), _CSV_BLOCK):
        yield from zip(*(np.asarray(c[s:s + _CSV_BLOCK]).tolist() for c in columns))


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_csv(header, rows, out: str | None, preamble: str | None = None):
    """Write rows of `_cells` values under the header, one block of
    `_CSV_BLOCK` lines per write, one item drawn from rows per line.  A
    block's line template takes `%.15g` for a float cell and `%s` for any
    other, so floats get 15 significant digits and integers `str`."""
    head = ([preamble] if preamble else []) + [",".join(header)]
    rows = iter(rows)
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("\n".join(head) + "\n")
        while block := list(islice(rows, _CSV_BLOCK)):
            line = ",".join("%.15g" if type(v) is float else "%s" for v in block[0]) + "\n"
            fh.write((line * len(block)) % tuple(chain.from_iterable(block)))


def load_field_document(path: str) -> tuple[NumberField, dict]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"field document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("field document must be a JSON object")
    poly = Polynomial(doc.get("min_poly"))
    if not doc.get("assume_maximal_order", False):
        raise ValidationError(
            "field document must set assume_maximal_order: computations use Z[theta]"
        )
    label = doc.get("label", "")
    # the label goes into the one-line preamble of the counts CSV
    if not isinstance(label, str) or "".join(label.splitlines()) != label:
        raise ValidationError(f"label must be a one-line string, got {label!r}")
    field = parse_field(poly, label=label)
    return field, doc


def unit_system_from_document(field: NumberField, doc: dict) -> UnitSystem:
    units = doc.get("fundamental_units") or []
    if not isinstance(units, list):
        raise ValidationError("fundamental_units must be a list of coordinate lists")
    w = doc.get("roots_of_unity", 2)
    if not isinstance(w, int) or isinstance(w, bool):
        raise ValidationError(f"roots_of_unity must be an integer, got {w!r}")
    if w != 2:
        raise ValidationError(f"totally real fields have w = 2 roots of unity, got {w}")
    regulator = doc.get("expected_regulator")
    if regulator is not None and (not isinstance(regulator, (int, float))
                                  or isinstance(regulator, bool)):
        raise ValidationError(f"expected_regulator must be a number, got {regulator!r}")
    return build_unit_system(
        field,
        units=units or None,
        expected_regulator=regulator,
    )


def _box_and_budget(args) -> tuple[BoxSpec, int]:
    """The box of --radius and --tol and the budget of --budget; an option
    left out takes the library default."""
    tol = BoxSpec.boundary_tolerance if args.tol is None else args.tol
    return BoxSpec(args.radius, tol), DEFAULT_BUDGET if args.budget is None else args.budget


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_field_info(args) -> int:
    field, doc = load_field_document(args.field_doc)
    us = unit_system_from_document(field, doc)
    payload = {
        "label": field.label,
        "min_poly": list(field.min_poly.coeffs),
        "degree": field.degree,
        "signature": list(field.signature),
        "embeddings": [float(v) for v in field.embeddings],
        "poly_discriminant": field.poly_discriminant,
        "fundamental_units": [list(u) for u in us.units],
        "roots_of_unity": us.w,
        "regulator": us.regulator,
        "log_volume": us.log_volume,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_zeta_coeffs(args) -> int:
    field, _doc = load_field_document(args.field_doc)
    series = dirichlet_coeffs(field, args.max)
    ks = np.arange(1, args.max + 1)
    _write_csv(["k", "a_k"], _cells(ks, series.a[ks]), args.out)
    return 0


def cmd_enumerate(args) -> int:
    field, _doc = load_field_document(args.field_doc)
    points = enumerate_box(field, *_box_and_budget(args))
    header = [f"c{i}" for i in range(field.degree)] + ["norm", "height"]

    def rows():  # each block's norms and correctly rounded heights as it is written
        for s in range(0, len(points), _CSV_BLOCK):
            block = points[s:s + _CSV_BLOCK]
            yield from _cells(*block.T, field.norm_rows(block), field.heights(block))

    _write_csv(header, rows(), args.out)
    return 0


def _counts_preamble(field: NumberField, table: CountTable) -> str:
    return ("# nfbounds-counts"
            f" label={field.label} degree={table.degree} R={table.R:.15g}"
            f" cap={table.cap} max_norm={table.max_norm} total={table.total_points}")


def cmd_counts(args) -> int:
    field, _doc = load_field_document(args.field_doc)
    box, budget = _box_and_budget(args)
    table = count_table(field, box, args.max_norm, budget)
    _write_csv(["k", "a_k", "b_k"], _cells(table.ks, table.a, table.b), args.out,
               _counts_preamble(field, table))
    return 0


def _read_counts_csv(path: str, field: NumberField) -> CountTable:
    """The table of a counts CSV, checked against the document's field
    and against its own preamble."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# nfbounds-counts"):
        raise ValidationError("counts CSV lacks the nfbounds-counts preamble")
    try:
        # the label may hold spaces: the five fields after it split off the right
        meta = dict(tok.split("=", 1) for tok in lines[0].rsplit(" ", 5)[1:])
        body = [[int(v) for v in ln.split(",")] for ln in lines[2:] if ln]
        if any(len(r) != 3 for r in body):
            raise ValueError("every row needs exactly the three fields k,a_k,b_k")
        rows = np.array(body, dtype=np.int64).reshape(-1, 3)
        table = CountTable(R=BoxSpec(float(meta["R"])).R, degree=int(meta["degree"]),
                           cap=int(meta["cap"]), ks=rows[:, 0], a=rows[:, 1], b=rows[:, 2])
        stated = {"total": int(meta["total"]), "max_norm": int(meta["max_norm"])}
    except KeyError as exc:
        raise ValidationError(f"counts CSV preamble lacks {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed counts CSV: {exc}") from exc
    if table.degree != field.degree:
        raise ValidationError(f"counts file is for degree {table.degree}, "
                              f"the field document for degree {field.degree}")
    # the a_k column must be the document field's: equal at every listed k,
    # and no nonzero a_k up to the cap left out
    ks = table.ks
    if not np.all((ks >= 1) & (ks <= table.cap)):
        raise ValidationError(f"counts file lists k outside 1..cap={table.cap}")
    if np.any(np.diff(ks) <= 0):
        raise ValidationError("counts file must list each k once, in increasing order")
    if np.any(table.b < 0):
        raise ValidationError(f"counts file lists a negative b_k at k={ks[table.b < 0][0]}")
    a = dirichlet_coeffs(field, max(table.cap, 1)).a
    bad = np.union1d(ks[table.a != a[ks]],
                     np.setdiff1d(np.flatnonzero(a[1:table.cap + 1]) + 1, ks))
    if len(bad):
        raise ValidationError(f"counts file is not for {field.label}: its a_k disagrees "
                              f"with the field document's at k={bad[0]}")
    for key, derived in (("total", table.total_points), ("max_norm", table.max_norm)):
        if stated[key] != derived:
            raise ValidationError(f"counts CSV preamble says {key}={stated[key]}, "
                                  f"its rows give {derived}")
    return table


def cmd_estimate(args) -> int:
    field, doc = load_field_document(args.field_doc)
    us = unit_system_from_document(field, doc)
    if args.from_counts:
        given = [option for option, value in (("--radius", args.radius),
                                              ("--max-norm", args.max_norm),
                                              ("--tol", args.tol), ("--budget", args.budget))
                 if value is not None]
        if given:
            raise ValidationError(f"{' and '.join(given)} build a table: --from-counts reads one")
        table = _read_counts_csv(args.from_counts, field)
    else:
        if args.radius is None:
            raise ValidationError("estimate needs --radius or --from-counts")
        box, budget = _box_and_budget(args)
        table = count_table(field, box, args.max_norm, budget)
    table = estimator.add_estimates(table, us)
    # before any output: a table the profile refuses leaves no file behind
    profile = estimator.error_profile(table) if args.profile_out else None
    rows = _cells(table.ks, table.a, table.b, table.n_raw, table.n_est, table.f)
    _write_csv(["k", "a_k", "b_k", "n_k_raw", "n_k", "f_k"], rows, args.out,
               _counts_preamble(field, table))
    if profile is not None:
        fs, cumulative = zip(*profile.cumulative)
        rows = _cells(fs, [profile.histogram[f] for f in fs], cumulative)
        _write_csv(["f", "count", "cumulative_fraction"], rows, args.profile_out)
    return 0


def cmd_bounds(args) -> int:
    field, doc = load_field_document(args.field_doc)
    us = unit_system_from_document(field, doc)
    if (args.height is None) == (args.radius is None):
        raise ValidationError("bounds needs exactly one of --height or --radius")
    if args.height is not None:
        if args.cutoff is not None:
            raise ValidationError("--cutoff belongs to --radius: --height reads no a_k")
        report = full_height_report(field, args.s, args.height)
    else:
        report = geometric_bound(us, args.s, args.radius, args.cutoff)
    _emit(report.to_json(label=field.label) + "\n", args.out)
    return 0


def cmd_pep(args) -> int:
    field, doc = load_field_document(args.field_doc)
    us = unit_system_from_document(field, doc)
    try:
        start, stop, npts = args.snr.split(":")
        start, stop, npts = float(start), float(stop), int(npts)
    except ValueError as exc:
        raise ValidationError(f"--snr must be START:STOP:POINTS, got {args.snr!r}") from exc
    channel.check_snr_grid(start, stop, npts)
    box, budget = _box_and_budget(args)
    table = estimator.add_estimates(count_table(field, box, args.max_norm, budget), us)
    curve = channel.pep_curve(table, start, stop, npts)
    rows = _cells(curve.snr_db, curve.snr_linear, curve.pe_estimate, curve.pe_exact)
    _write_csv(["snr_db", "gamma", "pe_estimate", "pe_exact"], rows, args.out,
               f"# nfbounds-pep ratio={curve.ratio:.15g}")
    return 0


def cmd_eve(args) -> int:
    field, _doc = load_field_document(args.field_doc)
    box, budget = _box_and_budget(args)
    table = count_table(field, box, args.max_norm, budget)
    eve_sum, value = channel.eve_probability(table, args.gamma, args.vol)
    payload = {
        "label": field.label,
        "gamma_e": args.gamma,
        "vol_lambda_b": args.vol,
        "radius": args.radius,
        "eve_sum": eve_sum,
        "probability_bound": value,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfbounds",
        description="Probability bounds and norm-count estimates for "
                    "totally real number-field lattice constellations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, box=False):
        p.add_argument("field_doc", help="path to the field document (JSON)")
        if box:
            p.add_argument("--tol", type=float,
                           help="boundary tolerance for box membership (default 1e-9)")
            p.add_argument("--budget", type=int,
                           help=f"candidate budget for enumeration (default {DEFAULT_BUDGET})")
        p.add_argument("--out", help="output path (default stdout)")
        return p

    p = common(sub.add_parser("field-info", help="embeddings, discriminant, regulator"))
    p.set_defaults(func=cmd_field_info)

    p = common(sub.add_parser("zeta-coeffs", help="ideal-count coefficients a_k"))
    p.add_argument("--max", type=int, required=True, help="largest k")
    p.set_defaults(func=cmd_zeta_coeffs)

    p = common(sub.add_parser("enumerate", help="all box points with norm and height"), box=True)
    p.add_argument("--radius", type=float, required=True)
    p.set_defaults(func=cmd_enumerate)

    for name, fn, help_text in [
        ("counts", cmd_counts, "exact per-norm counts b_k"),
        ("estimate", cmd_estimate, "geometric estimates n_k and error column"),
        ("pep", cmd_pep, "pairwise-error curve over an SNR grid"),
        ("eve", cmd_eve, "eavesdropper correct-decision bound"),
    ]:
        p = common(sub.add_parser(name, help=help_text), box=True)
        p.add_argument("--radius", type=float, required=(name in ("counts", "pep", "eve")))
        p.add_argument("--max-norm", type=int, default=None,
                       help="keep only rows with k <= this cap")
        if name == "estimate":
            p.add_argument("--from-counts", help="re-ingest a counts CSV")
            p.add_argument("--profile-out", help="write the error histogram CSV here")
        if name == "pep":
            p.add_argument("--snr", required=True, help="grid as START_DB:STOP_DB:POINTS")
        if name == "eve":
            p.add_argument("--gamma", type=float, required=True, help="Eve's SNR (linear)")
            p.add_argument("--vol", type=float, default=1.0, help="Vol of Bob's lattice")
        p.set_defaults(func=fn)

    p = common(sub.add_parser("bounds", help="zeta-function bound report (JSON)"))
    p.add_argument("--s", type=int, required=True, help="exponent (2 = PEP, 3 = wiretap)")
    p.add_argument("--height", type=float, help="height truncation m")
    p.add_argument("--radius", type=float, help="box radius R for the geometric bound")
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        name = type(exc).__name__
        hint = _HINTS.get(name, "check the inputs")
        print(f"error: {name}: {exc} ({hint})", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        name = type(exc).__name__
        hint = _HINTS.get(name, "no option lifts this ceiling")
        if name == "BoxTooLarge":  # name only options that this command takes
            fixes = [f"shrink --{opt}" for opt in ("radius", "height")
                     if getattr(args, opt, None) is not None]
            # no budget helps a norm cap past any float: only a smaller box does
            option, fix = (("budget", "raise --budget") if exc.budget_helps
                           else ("tol", "lower --tol"))
            if hasattr(args, option):
                fixes.append(fix)
            hint = " or ".join(fixes)
        print(f"error: {name}: {exc} ({hint})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
