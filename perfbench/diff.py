"""Compare two sets of benchmark results by workload and metric name.

    python3 perfbench/diff.py OLD NEW

OLD and NEW are result files written by run.py (perfbench/out/*.json) or
directories of them, e.g. the out directories of two commits.  For every
(workload, metric) the medians over each set's files are compared; with an
end-to-end bound from BENCHMARK.json, a change worse than the bound is
marked WORSE.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """(workload, metric) -> list of values over the result files."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    values = defaultdict(list)
    for name in files:
        with open(name, encoding="utf-8") as fh:
            result = json.load(fh)
        if "workload" not in result:
            continue
        for metric, entry in result["metrics"].items():
            values[result["workload"], metric].append(entry["value"])
    return values


def declared() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    meta = declared()
    print(f"{'workload':16s} {'metric':46s} {'old':>12s} {'new':>12s} {'change':>8s}  n")
    for key in sorted(set(old) & set(new)):
        a, b = statistics.median(old[key]), statistics.median(new[key])
        change = (b - a) / abs(a) if a else float("inf") if b != a else 0.0
        info = meta.get(key[1], {})
        worse = change if info.get("better") == "lower" else -change
        flag = "WORSE" if "bound" in info and worse > info["bound"] else ""
        print(f"{key[0]:16s} {key[1]:46s} {a:12.6g} {b:12.6g} {change:+8.2%}  "
              f"{len(old[key])}/{len(new[key])} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
