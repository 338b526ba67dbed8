"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Run from the root of a checkout.  Runs the benchmark command of
BENCHMARK.json once per seed on each workload (all by default), with
run_seconds from that file, then prints per metric the median, the
quartiles from statistics.quantiles(values, n=4), and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.  The last line is a JSON summary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name in names:
        values = {m: [] for m in bounds}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        summary[name] = {"runs": args.runs, "failed": failed}
        for m, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / statistics.median(vals)
            summary[name][m] = {"median": statistics.median(vals),
                                "q1": q1, "q3": q3, "spread": share,
                                "values": vals}
            print("%-10s %-12s median %10.4f  q1 %10.4f  q3 %10.4f  "
                  "spread %.4f  bound %.2f%s" % (
                      name, m, statistics.median(vals), q1, q3, share,
                      bounds[m], "" if share < bounds[m] / 3 else "  WIDE"))
        sys.stdout.flush()
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
