#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

One run of one workload (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

The last stdout line is the run's JSON result; the exit code is non-zero
when a correctness gate or a serve validity check fails.

Every workload, untraced and traced, on the default seed (the one command):

    python3 perfbench/run.py [--seed N]

Spread report: N runs of one workload on one seed, each end-to-end
metric's median and quartiles, flagged when its spread exceeds the bound in
BENCHMARK.json; deterministic metrics must repeat exactly. --vary-seed
gives run k the seed N+k instead, the way the acceptance protocol runs:

    python3 perfbench/run.py --spread 5 --workload serve [--vary-seed]

The benchmark is built from source on first use into .bench_build/ at the
repository root (or $CARGO_TARGET_DIR when set).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LEDGER = json.loads((BENCH_DIR / "ledger.json").read_text())
WORKLOADS = [w["name"] for w in LEDGER["workloads"]]
RUN_TIMEOUT_S = 175
# Metrics that are a pure function of the seed: on one seed they must
# repeat exactly, run after run.
DETERMINISTIC = ["latency_rr", "cost_rr", "model_wmape", "primary_frac"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: program sources (src/) not found next to perfbench/")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j3", "--target",
                  "perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build failed: " + " ".join(step))
            sys.exit(2)
    return out / "perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """One benchmark run: (exit code, parsed last line or None, stdout)."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s")
        return 3, None, ""
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stdout


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def all_workloads(binary, seed, seconds):
    """The one command: every workload, untraced then traced."""
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.monotonic()
            code, result, _ = run_once(binary, workload, seed, seconds, trace)
            ok = code == 0 and result is not None and result["correct"]
            failures += 0 if ok else 1
            print(f"\n== {workload} trace={trace} seed={seed} "
                  f"({time.monotonic() - start:.1f} s) "
                  f"{'ok' if ok else 'FAILED (exit %d)' % code}")
            if result is None:
                continue
            print(f"   attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:32s} {metric['value']:16.6f} "
                      f"{metric['unit']}")
    print(f"\nperfbench: {failures} failed run(s)")
    return 1 if failures else 0


def spread_report(binary, workload, runs, seed, seconds, vary_seed):
    """N runs of one workload; median, quartiles and spread per metric."""
    bounds = {m["name"]: m["bound"] for m in bench_spec()["end_to_end"]}
    results = []
    for k in range(runs):
        run_seed = seed + k if vary_seed else seed
        code, result, _ = run_once(binary, workload, run_seed, seconds, 0)
        if code != 0 or result is None or not result["correct"]:
            print(f"run {k} (seed {run_seed}) FAILED (exit {code})")
            return 1
        results.append(result)
    flagged = 0
    print(f"\n{workload}: {runs} runs, "
          f"{'seeds %d..%d' % (seed, seed + runs - 1) if vary_seed else 'seed %d' % seed}")
    print(f"  {'metric':24s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        flag = ""
        if name != "setup_s" and spread > bound:
            flag = "  SPREAD > BOUND"
        if (not vary_seed and name in DETERMINISTIC
                and len(set(values)) != 1):
            flag += "  NOT DETERMINISTIC"
        flagged += 1 if flag else 0
        print(f"  {name:24s} {q1:12.5g} {median:12.5g} {q3:12.5g} "
              f"{spread:7.3f} {bound:6.2f}{flag}")
    if not vary_seed and workload != "serve":
        counts = {(r["attempted"], r["failed"]) for r in results}
        if len(counts) != 1:
            print("  attempted/failed differ across runs of one seed")
            flagged += 1
    print(f"  {flagged} metric(s) flagged")
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        default=LEDGER["seeds"]["default"])
    parser.add_argument("--seconds", type=float,
                        default=bench_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="N")
    parser.add_argument("--vary-seed", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.spread:
        if not args.workload:
            parser.error("--spread needs --workload")
        return spread_report(binary, args.workload, args.spread, args.seed,
                             args.seconds, args.vary_seed)
    if not args.workload:
        return all_workloads(binary, args.seed, args.seconds)
    code, result, stdout = run_once(binary, args.workload, args.seed,
                                    args.seconds, args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
