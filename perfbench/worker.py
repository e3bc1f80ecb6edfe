"""One benchmark worker: import nfbounds, run CLI jobs in order, report.

Started by run.py as `python3 perfbench/worker.py LAUNCH_TIME` with the
request as JSON on stdin: {"jobs": [[arg, ...], ...], "trace": bool}.
LAUNCH_TIME is the parent's `time.monotonic()` just before the start, so
`setup_s` covers interpreter start plus `import nfbounds`.  The jobs share
this process, so library caches persist from one job to the next.  The
report is one JSON object on stdout.
"""

# nfbounds is imported before anything else the worker needs, so setup_s
# is interpreter start plus `import nfbounds` and nothing more
import sys
import time

_launch = float(sys.argv[1])

import nfbounds.cli as cli  # noqa: E402

_setup_s = time.monotonic() - _launch

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def gauge() -> float:
    """Seconds for a fixed piece of pure-Python work (integer arithmetic and
    dict stores, like the sieve and scan loops): how fast this CPU is
    right now.  Host contention changes that by 1.5x from one minute to the
    next, and run.py divides it out of the end-to-end times."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - t0


def _run_job(argv, tracer):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                tracer.reset()
                rc = tracer.call("job", cli.main, argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed job, reported with its traceback
            rc = 1
            traceback.print_exc()
        wall = time.perf_counter() - t0
    job = {"rc": rc, "wall_s": wall, "stderr": err.getvalue()[-4000:]}
    if tracer is not None:
        job["trace"] = tracer.summarize()
    return job


def main():
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        import tracer as tracing  # perfbench/tracer.py, next to this file

        tracer = tracing.Tracer()
        tracing.install(tracer)
    gauges = [gauge()]
    jobs = []
    for argv in request["jobs"]:
        jobs.append(_run_job(argv, tracer))
        gauges.append(gauge())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"setup_s": _setup_s, "gauge_s": gauges, "peak_rss_mb": rss_kb / 1024.0,
               "jobs": jobs}, sys.stdout)


if __name__ == "__main__":
    main()
