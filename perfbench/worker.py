"""One workload round in a fresh process: set-up, the timed job list, checks.

Started by run.py, one process at a time; prints one JSON line.  Set-up is
timed from before numpy and berkpot are imported, so every round pays the
cold caches and lazy set-up a command-line user pays on every run.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]
"""

import argparse
import collections
import json
import os
import resource
import shutil
import sys
import tempfile
import time

T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import berkpot  # noqa: E402,F401
import berkpot.cli  # noqa: E402,F401


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import workloads
    from berkpot import battery

    setup, make_jobs, check = workloads.WORKLOADS[args.workload]
    battery.standard_battery()
    ctx = setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="round-", dir=os.path.join(HERE, "out"))
    try:
        jobs = make_jobs(ctx, args.seed, workdir)
        latencies = []
        start = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            try:
                job.out = job.call()
            except Exception as exc:  # a failed job is counted, the round goes on
                job.error = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        for job in jobs:
            if job.error:
                job.fail(job.attempts)
        check(ctx, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # failures the library reported, by message, and those the checks named
    errors = collections.Counter(job.error for job in jobs if job.error)
    for job in jobs:
        errors.update(job.reasons)
        if job.name == "sweep_equilibrium" and not job.error:
            errors.update(r.error for r in job.out.rows if r.error)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_ms": [1e3 * t for t in latencies],
        "attempted": sum(job.attempts for job in jobs),
        "failed": sum(job.failures for job in jobs),
        "wrong": sum(job.wrong for job in jobs),
        "errors": dict(errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.save(os.path.join(HERE, "out", f"spans-{args.workload}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
