"""Smoke test of the benchmark harness on the tiny variant of each workload.

    python3 -m pytest -q perfbench/tests

Checks that every metric BENCHMARK.json names is printed with its unit,
that no more than one worker is alive at a time, that traced counters
agree with the job results, and that the output checks catch one altered
b_k.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

EXPECTED = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    named = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert named == list(metrics.END_TO_END)
    named = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert named == list(metrics.PER_LAYER)


def _run_tiny_job(workload_name, job_id, tmp_path):
    workload = WORKLOADS[workload_name]
    args = dict(workload.tiny)[job_id]
    argv, outputs = run._job_argv(job_id, args, workload.fixture, tmp_path)
    report = run.Runner(tmp_path).spawn([argv], trace=False)
    assert report["jobs"][0]["rc"] == 0
    return outputs


def test_altered_b_k_is_caught(tmp_path):
    outputs = _run_tiny_job("quadratic-session", "counts", tmp_path)
    pinned = EXPECTED["quadratic-session"]["-1"]["counts"]["outputs"]
    text = outputs["out"].read_text(encoding="utf-8")
    assert checks.mismatches(pinned, {"out": checks.summarize_csv(text)}) == []

    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines) if ln[:1].isdigit() and ln.split(",")[2] != "0")
    k, a_k, b_k = lines[row].split(",")
    lines[row] = f"{k},{a_k},{int(b_k) + 1}"
    altered = checks.summarize_csv("\n".join(lines) + "\n")
    found = checks.mismatches(pinned, {"out": altered})
    assert found and all("int_sha256" in m for m in found)


def test_float_checks_use_relative_tolerance():
    assert checks.mismatches({"x": 1.0}, {"x": 1.0 + 1e-12}) == []
    assert checks.mismatches({"x": 1.0}, {"x": 1.0 + 1e-7})
    assert checks.mismatches({"n": 7}, {"n": 8})


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_traced(name, tmp_path):
    runner = run.Runner(tmp_path)
    wrun, values = run.measure(name, 1, 0.0, True, True, runner, EXPECTED)
    assert wrun.failures == []
    assert set(values) == {m for m, _, _ in metrics.PER_LAYER}

    # one worker at a time: each one was reaped before the next started
    spans = sorted(runner.intervals)
    assert all(end <= nxt for (_, end), (nxt, _) in zip(spans, spans[1:]))

    for (job_id, _), trace in zip(wrun.jobs, wrun.traces):
        counters = checks.traced_counters(trace)
        pinned = EXPECTED[name]["-1"][job_id]
        total = pinned["outputs"]["out"].get("preamble", {}).get("total")
        if total is not None:
            assert counters["count_table.points"] == total
        sieves = trace["counters"]["fresh_sieves"]
        assert counters["splitting_type.calls"] == sum(map(checks.primes_upto, sieves))
        assert metrics.coverage(trace) >= 0.9


def test_octic_radius_5_has_2172_points(tmp_path):
    """The ROADMAP baseline figure: 2,172 points in the octic box of radius 5."""
    argv, outputs = run._job_argv("counts", "counts {doc} --radius 5 --max-norm 1000",
                                  "cyclo32real.json", tmp_path)
    job = run.Runner(tmp_path).spawn([argv], trace=True)["jobs"][0]
    assert job["rc"] == 0
    counters = checks.traced_counters(job["trace"])
    assert counters["scan_points"] == 2172
    total = checks.summarize_output(outputs["out"])["preamble"]["total"]
    assert counters["count_table.points"] == total == 1542


def _result_lines(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(trace):
    proc, lines = _result_lines(["--tiny", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = [(w, m, unit) for w in WORKLOADS
             for m, unit, _ in (metrics.PER_LAYER if trace else metrics.END_TO_END)]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        f"{w}.{m}": unit for w, m, unit in named}
    printed = {tuple(ln.split()[1:3]): ln.split()[-1]
               for ln in lines if ln.startswith("metric ")}
    assert printed == {(w, m): unit for w, m, unit in named}
    env = json.loads(next(ln for ln in lines if ln.startswith("# env "))[6:])
    assert {"nproc", "cpu", "python", "numpy", "mpmath", "git_commit", "seed"} <= set(env)


def test_seed_picks_variant_and_order():
    w = WORKLOADS["quadratic-session"]
    assert plan(w, 5) == plan(w, 5)
    assert len({plan(w, s)[0] for s in range(20)}) == len(w.variants)
    assert len({tuple(j for j, _ in plan(w, s)[1]) for s in range(20)}) > 1


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _result_lines(["--workload", "octic-scan", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not lines or not lines[-1].startswith("{")
