#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py [--runs 10] [--sets 1] [--first-seed 1] [WORKLOAD ...]

Runs each workload once per seed (untraced), `--sets` times over the same
seeds, and prints per set and metric the median and the distance between
the first and third quartiles as a share of the median
(statistics.quantiles, n=4), against the metric's bound in BENCHMARK.json.
The benchmark is steady when every spread, setup_s's included, is below a
third of its bound, and, with two or more sets, when no later set's median
is worse than the first set's by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_set(spec, wl, seeds, log_dir, tag):
    """Metric name -> the values of one run per seed; None if a run is incorrect."""
    values = {m["name"]: [] for m in spec["end_to_end"]}
    correct = True
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed",
               str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True).stdout
        if log_dir:
            os.makedirs(log_dir, exist_ok=True)
            with open(os.path.join(log_dir, "%s_%s%d.txt" % (wl, tag, seed)), "w") as f:
                f.write(out)
        result = json.loads(out.strip().split("\n")[-1])
        if not result["correct"]:
            print("%s seed %d: correct is false" % (wl, seed))
            correct = False
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    return values, correct


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--log-dir", help="keep each run's full output here")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    steady = True
    for wl in workloads:
        first = {}
        for k in range(args.sets):
            values, correct = run_set(spec, wl, seeds, args.log_dir,
                                      "set%d_" % k if args.sets > 1 else "")
            steady = steady and correct
            print("%s (%d runs, set %d)" % (wl, args.runs, k + 1))
            for m in spec["end_to_end"]:
                v = values[m["name"]]
                med = statistics.median(v)
                q = statistics.quantiles(v, n=4)
                share = (q[2] - q[0]) / med if med else float("inf")
                ok = share < m["bound"] / 3
                line = "  %-12s median %-12.6g spread %6.2f%%  bound %4.0f%%" % (
                    m["name"], med, 100 * share, 100 * m["bound"])
                if k == 0:
                    first[m["name"]] = med
                else:
                    # How much worse than the first set's median, in the
                    # metric's own direction.
                    worse = (med - first[m["name"]]) / first[m["name"]]
                    if m["better"] == "higher":
                        worse = -worse
                    ok = ok and worse <= m["bound"]
                    line += "  vs set 1 %+6.2f%% worse" % (100 * worse)
                steady = steady and ok
                print(line + ("  ok" if ok else "  WIDE"))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
