#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the harness and the repository's libraries from source (Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload, and passes its
output through. The last line is one JSON object with the keys correct,
attempted, failed and metrics, built from the harness's own last line:
the metrics BENCHMARK.json lists for the run's mode (end_to_end untraced,
per_layer traced), in its order and with its units.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Cold-start processes per untraced in-process run: at least MIN_COLD_STARTS,
# more while they have taken under COLD_START_SECONDS, at most MAX_COLD_STARTS,
# so a workload with a short set-up gets more samples for the same time.
# svc_mix takes its set-up samples from the rounds of its measured run.
MIN_COLD_STARTS, MAX_COLD_STARTS = 2, 8
COLD_START_SECONDS = 4.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", out, "--target", target, "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, target)


def run_harness(cmd, deadline):
    """Runs the harness and returns its stdout and its last line, parsed."""
    # Its own process group, so a timeout can stop the harness together with the
    # router and workers it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        sys.exit("perfbench: harness exited with %d" % proc.returncode)
    return stdout, json.loads(stdout.rstrip("\n").split("\n")[-1])


def result(spec, trace, runs):
    """The benchmark's result line from the harness runs (cold starts, then
    the measured run): metrics in BENCHMARK.json's order and units."""
    values = dict(runs[-1]["values"])
    setups = [v for r in runs for v in r["samples"].get("setup_s", [])]
    if setups:
        values["setup_s"] = statistics.median(setups)
    correct = all(r["correct"] for r in runs)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif trace or not correct:
            # A layer this workload does not exercise, or a run cut short by a
            # failure that correct already reports.
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            sys.exit("perfbench: the harness did not measure %s" % m["name"])
    return {"correct": correct,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if not args.workload:
        ap.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build("perfbench")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    runs = []
    # setup_s is the median over several cold starts: processes that set up
    # once and exit, and the measured run's own set-ups.
    cold = not args.trace and args.workload != "svc_mix"
    t0 = time.monotonic()
    while cold and len(runs) < MAX_COLD_STARTS and (
            len(runs) < MIN_COLD_STARTS or time.monotonic() - t0 < COLD_START_SECONDS):
        stdout, r = run_harness(cmd + ["--setup-only", "1"], deadline)
        if not r["correct"]:
            sys.stdout.write(stdout)
        print("cold start %d: setup %s s" % (len(runs) + 1, r["samples"].get("setup_s")))
        runs.append(r)
    stdout, r = run_harness(cmd, deadline)
    runs.append(r)
    sys.stdout.write(stdout)
    print(json.dumps(result(spec, args.trace, runs)))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
