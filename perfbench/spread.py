#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload engine-paper --seeds 1 2 3 4 5

For every metric: the median of the runs, the quartiles as
statistics.quantiles(values, n=4) gives them, and the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  A spread above a third of its bound is flagged: such a
metric cannot separate a change of that size from host noise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr[-2000:])
            print("seed %d: run failed (rc=%d)" % (seed, out.returncode))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: output check failed" % seed)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    flagged = 0
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of its bound"
            flagged += 1
        print("%-34s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f%s%s" % (
            name, med, q1, q3, spread,
            "" if bound is None else "  bound %.2f" % bound, flag))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
