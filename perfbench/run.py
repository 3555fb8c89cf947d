#!/usr/bin/env python3
"""The vdt benchmark: builds vdt_perfbench from this checkout and runs it.

One run (run from the root of the checkout):

    python3 perfbench/run.py --workload glove --seed 1 --seconds 44 --trace 0

builds the library and vdt_perfbench into .bench_build/cmake (first run only),
runs one workload, and passes its output through; the last stdout line is the
JSON result. With --trace 1 the run reports per-layer metrics and writes its
spans to .bench_trace/.

Steadiness mode runs a workload once per seed and prints the median and
quartiles of every metric, plus the failed share:

    python3 perfbench/run.py --steady --workload glove --seeds 1-10 --seconds 44

With --trace 1 it also makes one traced run per seed and reports the tracing
overhead of every end-to-end metric (traced median over untraced median).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "vdt_perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TRACED_PREFIX = "traced-end-to-end: "


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds vdt_perfbench; False when either fails."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at %s: not a vdt checkout" % ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "vdt_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def run_once(workload, seed, seconds, trace, echo=True):
    """One run; returns (exit code, parsed result or None, output lines)."""
    work_dir = os.path.join(ROOT, ".bench_work", "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir,
           "--trace-dir", os.path.join(ROOT, ".bench_trace")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 3, None, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None and set(result) != RESULT_KEYS:
        result = None
    if echo:
        for line in lines[:-1] if result is not None else lines:
            print(line)
    code = proc.returncode
    if code == 0 and result is None:
        log("the run printed no result line")
        code = 4
    return code, result, lines


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    """Runs every seed and prints median, quartiles and spread per metric."""
    modes = [0, 1] if args.trace else [0]
    runs = {mode: [] for mode in modes}
    for seed in parse_seeds(args.seeds):
        for mode in modes:
            code, result, lines = run_once(args.workload, seed, args.seconds,
                                           mode, echo=False)
            if code != 0 or result is None:
                log("seed %d trace %d failed with exit code %d"
                    % (seed, mode, code))
                return 1
            for line in lines:
                if line.startswith(TRACED_PREFIX):
                    result["traced_e2e"] = {
                        k: v["value"] for k, v in
                        json.loads(line[len(TRACED_PREFIX):]).items()}
            runs[mode].append(result)
            print("seed %d trace %d: %s" % (seed, mode, json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()})),
                flush=True)
    for mode in modes:
        results = runs[mode]
        print("\n%s, %d runs of %s s (trace %d)" % (
            args.workload, len(results), args.seconds, mode))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("failed share per run: %s" % shares)
        print("%-34s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3",
                                            "spread"))
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print("%-34s %14.6g %14.6g %14.6g %8.4f" % (name, q1, med, q3,
                                                        spread))
    if args.trace:
        print("\ntracing overhead (traced median / untraced median - 1):")
        for name in sorted(runs[0][0]["metrics"]):
            plain = statistics.median(
                r["metrics"][name]["value"] for r in runs[0])
            traced = [r.get("traced_e2e", {}).get(name) for r in runs[1]]
            traced = [v for v in traced if v is not None]
            if traced and plain:
                print("%-34s %+8.2f%%" % (
                    name, 100.0 * (statistics.median(traced) / plain - 1.0)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="run every seed of --seeds and summarise")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    if not build():
        return 1
    if args.steady:
        return steady(args)
    code, result, _ = run_once(args.workload, args.seed, args.seconds,
                               args.trace)
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
