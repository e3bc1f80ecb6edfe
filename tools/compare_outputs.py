"""Compare the benchmark's job outputs of this checkout with another's.

Every variant and the tiny variant of each workload in
`perfbench/workloads.py` runs through `nfbounds.cli.main` of both
checkouts, with the same arguments and each checkout's own fixtures.  A
workload that gives each job a fresh worker gets a fresh process per job
here too; the session workload runs each variant's jobs in one process,
in the listed order.  The workload file is imported, never edited.

Then each job of `BOUNDARY_JOBS` runs in a fresh process on both
checkouts: tolerance 0 at integer radii, where +-R lies exactly on the
boundary of every field, so the scan's closed-box test reaches the
enclosure; the benchmark's tolerance of 1e-9 never does.

Each output file that differs byte for byte, or whose job's exit code
differs, is printed; the exit code is 1 on any difference and 0 when every
output is identical.

Run:  python tools/compare_outputs.py OTHER_CHECKOUT
"""

from __future__ import annotations

import filecmp
import importlib.util
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a child whose working directory is a checkout's root, so that the
# relative fixture paths and `src` are that checkout's
_RUNNER = """
import contextlib, io, json, sys
sys.path.insert(0, "src")
from nfbounds.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""

# (output stem, job arguments), each run in a fresh process
BOUNDARY_JOBS = [
    ("boundary/qsqrt5-enumerate-47", "enumerate {fixtures}/qsqrt5.json --radius 47 --tol 0"),
    ("boundary/qsqrt5-counts-76", "counts {fixtures}/qsqrt5.json --radius 76 --tol 0"),
    ("boundary/quartic-enumerate-5",
     "enumerate {fixtures}/quartic725.json --radius 5 --tol 0"),
    ("boundary/octic-enumerate-3", "enumerate {fixtures}/cyclo32real.json --radius 3 --tol 0"),
]


def _workloads():
    """This checkout's `perfbench/workloads.py`, imported from its path."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _groups(workloads):
    """The jobs of each process, as (output stem, job arguments): one job
    each for a fresh-worker workload, one variant each for a session."""
    for w in workloads.WORKLOADS.values():
        doc = f"{workloads.FIXTURES}/{w.fixture}"
        for index, variant in [*enumerate(w.variants), ("tiny", w.tiny)]:
            jobs = [(f"{w.name}/{index}/{job_id}", args.format(doc=doc)) for job_id, args in variant]
            yield from ([job] for job in jobs) if w.fresh_worker else [jobs]
    for stem, args in BOUNDARY_JOBS:
        yield [(stem, args.format(fixtures=workloads.FIXTURES))]


def _run(checkout: Path, group, outdir: Path) -> dict:
    """Run one process's jobs; {output path relative to outdir: exit code}."""
    argvs, outputs = [], []
    for stem, args in group:
        argv = args.split()
        names = [f"{stem}.out"]
        if argv[0] == "estimate":
            names.append(f"{stem}.profile")
            argv += ["--profile-out", str(outdir / names[1])]
        (outdir / stem).parent.mkdir(parents=True, exist_ok=True)
        argvs.append(argv + ["--out", str(outdir / names[0])])
        outputs.append(names)
    proc = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(argvs)], cwd=checkout,
                          capture_output=True, text=True, check=True)
    codes = json.loads(proc.stdout)
    return {name: code for names, code in zip(outputs, codes) for name in names}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    other = Path(args[0]).resolve()
    differ = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        here_dir, other_dir = Path(tmp, "here"), Path(tmp, "other")
        for group in _groups(_workloads()):
            here = _run(ROOT, group, here_dir)
            there = _run(other, group, other_dir)
            for name, code in here.items():
                a, b = here_dir / name, other_dir / name
                total += 1
                if not (code == there[name] and a.exists() == b.exists()
                        and (not a.exists() or filecmp.cmp(a, b, shallow=False))):
                    differ += 1
                    print(f"differs: {name} (exit {code} here, {there[name]} there)")
    print(f"{differ} of {total} output files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
