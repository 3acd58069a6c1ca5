"""berkpot benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload arch-potential --seed 1 --seconds 20 --trace 0

Runs fresh worker processes one at a time (one round of the workload's
fixed job list each) until --seconds have passed, then prints one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics of traced
rounds with --trace 1.  The full result, with every round and the machine
details, goes to perfbench/out/<workload>-seed<n>-trace<t>.json.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("arch-potential", "hybrid-sweep", "padic-skeleton")
SETUP_SAMPLES = 9          # set-up is a median over this many process starts
TAIL_BEYOND = 10           # the tail percentile keeps this many jobs above it
DEADLINE_S = 150           # start no round that would end after this
ROUND_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

LAYER_UNITS = (("calls", "count"), ("self_s", "s"), ("overhead_s", "s"), ("exact_frac", "ratio"))


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"  # np.roots goes through LAPACK: keep it single-threaded
    return env


def run_worker(workload: str, seed: int, *extra, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = pct / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(jobs_per_round: int) -> float:
    """Highest percentile with TAIL_BEYOND jobs of one round above it; a
    round with fewer than 2 * TAIL_BEYOND jobs reports its median instead."""
    return max(50.0, 100.0 * (1 - TAIL_BEYOND / jobs_per_round))


def run_rounds(workload: str, seed: int, seconds: float, trace: bool):
    """Worker rounds until `seconds` have passed; with trace, untraced and
    traced rounds alternate, at least one of each."""
    start = time.perf_counter()
    rounds = {False: [], True: []}
    longest = {False: 0.0, True: 0.0}
    kinds = [False, True] if trace else [False]
    k = 0
    while True:
        traced = kinds[k % len(kinds)]
        elapsed = time.perf_counter() - start
        first = len(rounds[traced]) == 0
        if not first and (elapsed >= seconds or elapsed + longest[traced] > DEADLINE_S):
            break
        extra = ("--trace",) if traced else ()
        t0 = time.perf_counter()
        rounds[traced].append(run_worker(workload, seed, *extra,
                                         timeout=ROUND_TIMEOUT_S - elapsed))
        longest[traced] = max(longest[traced], time.perf_counter() - t0)
        k += 1
    return rounds[False], rounds[True]


def end_to_end(workload: str, seed: int, rounds: list) -> tuple[dict, dict]:
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "--setup-only", timeout=60)["setup_s"])
    jobs_per_round = len(rounds[0]["latencies_ms"])
    tail_pct = tail_percentile(jobs_per_round)

    def per_round(pct):
        # per round, then the median: one slow round cannot own the tail
        return statistics.median(percentile(r["latencies_ms"], pct) for r in rounds)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_ms": (per_round(50), "ms"),
        "job_tail_ms": (per_round(tail_pct), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "rounds": len(rounds),
        "jobs_per_round": jobs_per_round,
        "tail_percentile": round(tail_pct, 3),
        "tail_note": ("" if tail_pct > 50 else
                      f"fewer than {2 * TAIL_BEYOND} jobs per round: job_tail_ms is the median"),
        "setup_samples": setups,
        "wall_s_rounds": [r["wall_s"] for r in rounds],
        "failed_frac": failed / attempted,
    }
    return metrics, details


def per_layer(untraced: list, traced: list) -> dict:
    names = traced[0]["layers"].keys()
    metrics = {}
    for name in names:
        unit = next((u for suffix, u in LAYER_UNITS if name.endswith(suffix)), "count")
        metrics[name] = (statistics.median(r["layers"][name] for r in traced), unit)
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "berkpot")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "berkpot", "__init__.py")):
        print(f"no berkpot sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        untraced, traced = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(untraced, traced)
            details = {"traced_rounds": len(traced),
                       "traced_peak_rss_mb": [r["peak_rss_mb"] for r in traced]}
        else:
            metrics, details = end_to_end(args.workload, args.seed, untraced)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    rounds = traced or untraced
    summary = {
        "correct": all(r["wrong"] == 0 for r in untraced + traced),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = dict(summary, workload=args.workload, trace=args.trace, details=details,
                wrong=sum(r["wrong"] for r in rounds),
                errors=rounds[0]["errors"],
                environment=environment(args.seed, rounds[0]["numpy"]))
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
