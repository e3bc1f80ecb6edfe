"""Benchmark of the nfbounds command line over the packaged fixtures.

    python3 perfbench/run.py --workload quartic-sieve --seed 7 --seconds 28 --trace 0

Run from the repository root (or any checkout of it).  The load comes
from this one process: it starts one single-threaded worker at a time
(perfbench/worker.py, BLAS threads pinned to 1) and each worker runs
jobs through `nfbounds.cli.main`, the way users run the tool.  Workloads
with a fresh worker per job start one per job; the session workload keeps
one worker, and so its library caches, for all of its jobs.

`--trace 0` repeats the workload's jobs untraced for about `--seconds`
and prints the end-to-end metrics; its times are divided by the run's
CPU slowdown, measured by a gauge loop in the workers (README
"Steadiness").  `--trace 1` first runs the jobs once
more with spans installed around every layer (perfbench/tracer.py), then
untraced, and prints the per-layer metrics, including the tracing
overhead.  Every job output is checked against perfbench/expected.json
(exact integers exactly, floats to 1e-9 relative); traced counters are
also checked against the outputs.  Human-readable lines start with '#'
or 'metric'; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs every workload.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
from workloads import DEFAULT_SEED, FIXTURES, WORKLOADS, plan  # noqa: E402

WORKER = HERE / "worker.py"
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 12         # extra import-only workers per untraced run
# what worker.gauge() takes on an uncontended 2.1 GHz Xeon vCPU; end-to-end
# times are reported at that speed (see README "Steadiness")
GAUGE_REFERENCE_S = 0.015
WORKER_TIMEOUT_S = 170
JSON_OUTPUTS = ("field-info", "bounds", "eve")


class HarnessError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts workers one at a time and keeps what they report."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = _worker_env()
        self.intervals: list[tuple[float, float]] = []   # worker start, reaped
        self.setup_samples: list[float] = []
        self.gauge_samples: list[float] = []
        self.peak_rss_mb = 0.0

    def spawn(self, jobs: list[list[str]], trace: bool) -> dict:
        request = json.dumps({"jobs": jobs, "trace": trace})
        launch = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), repr(launch)], input=request,
                capture_output=True, text=True, cwd=ROOT, env=self.env,
                timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
            raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
        self.intervals.append((launch, time.monotonic()))
        if proc.returncode != 0:
            raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"worker printed no report: {proc.stdout[-500:]!r}") from exc
        self.setup_samples.append(report["setup_s"])
        self.gauge_samples += report["gauge_s"]
        self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])
        return report

    def slowdown(self) -> float:
        """How much slower the CPU ran during this run than the reference."""
        return statistics.median(self.gauge_samples) / GAUGE_REFERENCE_S


@contextlib.contextmanager
def work_directory(name: str):
    """A directory for job outputs inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / name
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()  # only if no other run is using it


def _job_argv(job_id: str, args: str, fixture: str, outdir: Path) -> tuple[list, dict]:
    argv = args.format(doc=f"{FIXTURES}/{fixture}").split()
    ext = "json" if job_id in JSON_OUTPUTS else "csv"
    outputs = {"out": outdir / f"{job_id}.{ext}"}
    if job_id == "estimate":
        outputs["profile"] = outdir / f"{job_id}.profile.csv"
        argv += ["--profile-out", str(outputs["profile"])]
    argv += ["--out", str(outputs["out"])]
    return argv, outputs


class WorkloadRun:
    """One run of one workload: passes over its jobs, checks and metrics."""

    def __init__(self, name: str, seed: int, tiny: bool, runner: Runner, expected: dict):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.variant, self.jobs = plan(self.workload, seed, tiny)
        self.runner = runner
        pins = expected.get(name, {}).get(str(self.variant))
        if pins is None:
            raise HarnessError(f"no pinned results for {name} variant {self.variant}")
        self.pins = pins
        self.walls: dict[str, list[float]] = {job_id: [] for job_id, _ in self.jobs}
        self.attempted = 0
        self.failures: list[str] = []
        self.traces: list[dict] = []
        self.traced_wall_s = 0.0
        self.passes = 0

    def _argv(self):
        return [(job_id, *_job_argv(job_id, args, self.workload.fixture,
                                    self.runner.workdir))
                for job_id, args in self.jobs]

    def run_pass(self, trace: bool) -> None:
        planned = self._argv()
        groups = ([[job] for job in planned] if self.workload.fresh_worker
                  else [planned])
        for group in groups:
            report = self.runner.spawn([argv for _, argv, _ in group], trace)
            for (job_id, _argv, outputs), result in zip(group, report["jobs"]):
                self._record(job_id, outputs, result, trace)
        if not trace:
            self.passes += 1

    def _record(self, job_id, outputs, result, trace) -> None:
        self.attempted += 1
        pinned = self.pins[job_id]
        problems = []
        if result["rc"] != 0:
            problems.append(f"exit {result['rc']}: {result['stderr'].strip()[-300:]}")
        else:
            summaries = {}
            for key, path in outputs.items():
                if path.is_file():
                    summaries[key] = checks.summarize_output(path)
                    path.unlink()
            problems += checks.mismatches(pinned["outputs"], summaries, "outputs")
            if trace and not problems:
                problems += checks.trace_mismatches(job_id, result["trace"], summaries,
                                                    pinned["counters"])
        if problems:
            self.failures.append(f"{job_id}: " + "; ".join(problems[:5]))
        if trace:
            self.traces.append(result["trace"])
            self.traced_wall_s += result["wall_s"]
        else:
            self.walls[job_id].append(result["wall_s"])

    def wall_s(self) -> float:
        return sum(statistics.median(w) for w in self.walls.values())

    def failed(self) -> int:
        return len(self.failures)


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
            runner: Runner, expected: dict) -> tuple[WorkloadRun, dict]:
    run = WorkloadRun(name, seed, tiny, runner, expected)
    start = time.monotonic()
    if trace:
        run.run_pass(trace=True)
    else:
        for _ in range(SETUP_PROBES):
            runner.spawn([], trace=False)
    longest = 0.0
    while True:
        t0 = time.monotonic()
        run.run_pass(trace=False)
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > seconds:
            break
    if trace:
        values = metrics.per_layer(run.traces, run.traced_wall_s, run.wall_s())
    else:
        slowdown = runner.slowdown()
        values = {
            "wall_s": run.wall_s() / slowdown,
            "setup_s": statistics.median(runner.setup_samples) / slowdown,
            "peak_rss_mb": runner.peak_rss_mb,
            "pass_share": 1.0 - run.failed() / run.attempted,
        }
    return run, values


# ---------------------------------------------------------------------------
# reporting


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "mpmath": _version("mpmath"), "git_commit": _git_commit(), "seed": seed}


def report_lines(run: WorkloadRun, values: dict, trace: bool, runner: Runner) -> list[str]:
    w = run.workload
    lines = [f"# workload {w.name} seed={run.seed} variant={run.variant} "
             f"order={[job_id for job_id, _ in run.jobs]} "
             f"workers={'one per job' if w.fresh_worker else 'one for all jobs'}"]
    for job_id, walls in run.walls.items():
        lines.append(f"# job {job_id}: median {statistics.median(walls):.4f} s over "
                     f"{len(walls)} untraced passes (min {min(walls):.4f}, max {max(walls):.4f})")
    if trace:
        lines.append(f"# traced wall {run.traced_wall_s:.4f} s, untraced wall "
                     f"{run.wall_s():.4f} s (median of {run.passes}), "
                     f"overhead {values['trace.overhead_s']:.4f} s")
        for (job_id, _), t in zip(run.jobs, run.traces):
            largest = sorted(t["names"].items(), key=lambda kv: -kv[1]["s"])[:4]
            lines.append(f"# traced job {job_id}: {t['job_s']:.4f} s, coverage "
                         f"{metrics.coverage(t):.4f}; largest spans " + ", ".join(
                             f"{name} {v['s']:.4f} s ({v['calls']} calls)"
                             for name, v in largest))
    else:
        samples = runner.setup_samples
        lines.append(f"# setup_s median of {len(samples)} worker starts "
                     f"(min {min(samples):.4f}, max {max(samples):.4f}); "
                     f"wall_s sums per-job medians of {run.passes} passes")
        gauges = runner.gauge_samples
        lines.append(f"# measured wall_s {run.wall_s():.4f} s, setup_s "
                     f"{statistics.median(samples):.4f} s; both divided by slowdown "
                     f"{runner.slowdown():.4f} = median gauge {statistics.median(gauges):.5f} s "
                     f"(of {len(gauges)}) / {GAUGE_REFERENCE_S} s")
        lines.append(f"# failed_share {run.failed() / run.attempted:g} share "
                     f"({run.failed()} of {run.attempted} jobs)")
    for name, value in values.items():
        lines.append(f"metric {w.name} {name} = {value!r} {metrics.UNITS[name]}")
    for failure in run.failures:
        lines.append(f"# FAILED {failure}")
    return lines


def result_object(runs_values: list[tuple[WorkloadRun, dict]], prefix: bool) -> dict:
    out_metrics = {}
    for run, values in runs_values:
        for name, value in values.items():
            key = f"{run.workload.name}.{name}" if prefix else name
            out_metrics[key] = {"value": value, "unit": metrics.UNITS[name]}
    attempted = sum(run.attempted for run, _ in runs_values)
    failed = sum(run.failed() for run, _ in runs_values)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out_metrics}


def _preflight() -> dict:
    needed = [ROOT / "src" / "nfbounds" / "cli.py", EXPECTED]
    needed += dict.fromkeys(ROOT / FIXTURES / w.fixture for w in WORKLOADS.values())
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise HarnessError("missing " + ", ".join(missing)
                           + " (run from the root of an nfbounds checkout)")
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measuring time per workload (at least one pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the tiny variant of each workload (smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        expected = _preflight()
        print("# env " + json.dumps(environment(args.seed)), flush=True)
        results = []
        with work_directory(str(os.getpid())) as workdir:
            for name in names:
                runner = Runner(workdir)
                run, values = measure(name, args.seed, args.seconds, bool(args.trace),
                                      args.tiny, runner, expected)
                results.append((run, values))
                print("\n".join(report_lines(run, values, bool(args.trace), runner)),
                      flush=True)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result_object(results, prefix=len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
