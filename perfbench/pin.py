"""Write perfbench/expected.json from the current code.

    python3 perfbench/pin.py

Runs every variant of every workload (and the tiny ones) once untraced,
for the output summaries, and once traced, for the work counters that
must agree with results.  Pins are a statement about the code they were
taken from: review the diff of expected.json before committing it, and
re-pin only when the checked-in outputs are known to be right (the test
suite's oracles pass and the counts match ROADMAP's figures).
"""

from __future__ import annotations

import json
import sys

import checks
from run import EXPECTED, Runner, _job_argv, work_directory
from workloads import WORKLOADS

# counters that do not depend on job order or cache state
PINNED_COUNTERS = ("count_table.points", "enumerate_box.points", "scan_points",
                   "unit_orbits.orbits", "add_estimates.rows", "rows_written")


def pin_variant(workload, jobs, runner: Runner) -> dict:
    pins = {}
    for job_id, args in jobs:
        argv, outputs = _job_argv(job_id, args, workload.fixture, runner.workdir)
        for trace in (False, True):
            result = runner.spawn([argv], trace)["jobs"][0]
            if result["rc"] != 0:
                sys.exit(f"{workload.name} {job_id} failed: {result['stderr']}")
            summaries = {key: checks.summarize_output(path) for key, path in outputs.items()}
            if not trace:
                pins[job_id] = {"outputs": summaries}
            elif summaries != pins[job_id]["outputs"]:
                sys.exit(f"{workload.name} {job_id}: traced output differs")
            else:
                counters = checks.traced_counters(result["trace"])
                pins[job_id]["counters"] = {k: counters[k] for k in PINNED_COUNTERS}
    return pins


def main() -> None:
    expected = {}
    with work_directory("pin") as workdir:
        runner = Runner(workdir)
        for workload in WORKLOADS.values():
            variants = {str(i): v for i, v in enumerate(workload.variants)}
            variants["-1"] = workload.tiny
            expected[workload.name] = {
                index: pin_variant(workload, jobs, runner)
                for index, jobs in variants.items()}
            print(f"pinned {workload.name}", flush=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
