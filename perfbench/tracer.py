"""Spans and counters recorded around nfbounds, from outside the library.

`install()` replaces each traced function at every module attribute that
binds it (for example `nfbounds.cli.dirichlet_coeffs`,
`nfbounds.bounds.dirichlet_coeffs` and `nfbounds.zeta.dirichlet_coeffs`
all point at one wrapper) and each traced method on its class.  Nothing
under `src/` changes, and nothing is wrapped unless a traced worker calls
`install()`, so untraced runs execute the library untouched.

A span is `[name, start, end, parent_index, info]`, kept in memory for
one job; `summarize()` reduces a job's spans to the per-layer numbers the
benchmark reports.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# modules whose public functions become spans, named "<module>.<function>"
LAYER_MODULES = ("numberfield", "units", "zeta", "enumeration", "estimator",
                 "bounds", "channel")
# cli functions that are layers; the cmd_* bodies and main form the job itself
CLI_FUNCTIONS = {"load_field_document": "cli.load_field_document",
                 "unit_system_from_document": "cli.unit_system_from_document",
                 "build_parser": "cli.build_parser",
                 "_write_csv": "cli.write_csv",
                 "_emit": "cli.emit"}
METHODS = {("numberfield", "NumberField"): ("norm_coords", "inverse_coords_rational",
                                            "divide_exact"),
           ("numberfield", "AlgebraicInt"): ("embed_mp",)}
SCAN_SPANS = ("enumeration.count_table", "enumeration.enumerate_box")
# a call of the key that starts no span of the value did no fresh work
FRESH_WORK = {"zeta.dirichlet_coeffs": "zeta.splitting_type",
              "enumeration.cached_points": "enumeration.enumerate_box",
              "enumeration.cached_orbits": "enumeration.unit_orbits"}


class _CountingRows:
    """Pass-through iterator that counts the CSV rows the CLI writes."""

    def __init__(self, rows):
        self._it = iter(rows)
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._it)
        self.count += 1
        return row


def _result_info(name, result):
    """Work counters read off a traced call's result."""
    if name == "enumeration.count_table":
        return {"points": result.total_points}
    if name == "enumeration.enumerate_box":
        return {"points": len(result)}
    if name == "enumeration.unit_orbits":
        return {"orbits": len(result)}
    if name == "estimator.add_estimates":
        return {"rows": len(result.ks)}
    if name == "zeta.dirichlet_coeffs":
        return {"N": result.cutoff}
    return None


class Tracer:
    """In-memory spans of the current job plus the scan point counter."""

    def __init__(self):
        self.spans: list[list] = []
        self.scan_points = 0
        self._stack: list[int] = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.scan_points = 0

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(rec)
        counting = None
        if name == "cli.write_csv":
            counting = _CountingRows(args[1])
            args = (args[0], counting) + args[2:]
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        rec[4] = ({"rows": counting.count} if counting is not None
                  else _result_info(name, result))
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_scan(self, fn):
        """Count the box points a scan generator yields (no span: it is
        consumed inside the count_table / enumerate_box spans)."""
        def traced(*args, **kwargs):
            for block in fn(*args, **kwargs):
                self.scan_points += len(block)
                yield block

        return traced

    # -- reduction -------------------------------------------------------

    def summarize(self) -> dict:
        """Per-name totals for the spans recorded since the last reset.

        The first span must be the job root (see `call("job", ...)`).  Each
        name gets calls, total seconds `s` (outermost calls only), `self_s`
        and the sums of its result counters (points, orbits, rows)."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        children: dict[int, list[str]] = {}
        for name, start, end, parent, _info in spans:
            if parent >= 0:
                child_s[parent] += end - start
                children.setdefault(parent, []).append(name)
        names: dict[str, dict] = {}
        counters = {"scan_points": self.scan_points, "scan_s": 0.0, "rechecks": 0,
                    "sieve_s": 0.0, "fresh_sieves": [], "spans": len(spans)}
        hits = {name: [0, 0] for name in FRESH_WORK}
        for i, (name, start, end, parent, info) in enumerate(spans[1:], 1):
            dur = end - start
            entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += dur - child_s[i]
            ancestors = []
            p = parent
            while p > 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                entry["s"] += dur
            if name in SCAN_SPANS:
                counters["scan_s"] += dur
            elif name == "numberfield.embed_mp" and any(a in SCAN_SPANS for a in ancestors):
                counters["rechecks"] += 1
            if name in FRESH_WORK:
                hits[name][1] += 1
                if FRESH_WORK[name] not in children.get(i, ()):
                    hits[name][0] += 1
                elif name == "zeta.dirichlet_coeffs":
                    counters["sieve_s"] += dur
                    counters["fresh_sieves"].append(info["N"])
            elif info:
                for key, value in info.items():
                    entry[key] = entry.get(key, 0) + value
        root = spans[0]
        return {"job_s": root[2] - root[1], "top_s": child_s[0], "names": names,
                "counters": counters, "hits": hits}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every nfbounds binding site."""
    import nfbounds.cli as cli

    pkg = "nfbounds"
    targets = {}  # id(original) -> (original, wrapper)
    for short in LAYER_MODULES:
        mod = sys.modules[f"{pkg}.{short}"]
        for attr, fn in _public_functions(mod):
            targets[id(fn)] = (fn, tracer.wrap(f"{short}.{attr}", fn))
    for attr, name in CLI_FUNCTIONS.items():
        fn = getattr(cli, attr)
        targets[id(fn)] = (fn, tracer.wrap(name, fn))
    enumeration = sys.modules[f"{pkg}.enumeration"]
    scan = enumeration._scan_blocks
    targets[id(scan)] = (scan, tracer.wrap_scan(scan))

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == pkg or n.startswith(pkg + "."))]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = targets.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for (short, cls_name), methods in METHODS.items():
        cls = getattr(sys.modules[f"{pkg}.{short}"], cls_name)
        for meth in methods:
            setattr(cls, meth, tracer.wrap(f"{short}.{meth}", getattr(cls, meth)))
