#!/usr/bin/env python3
"""Steadiness check: run one workload R times and report each end-to-end
metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --workload convolve_n64 --runs 10

Run from the repository root. Each run uses the command, run length and
bounds of BENCHMARK.json, with seeds 1, 2, ..., R. The
spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A spread above a third of the bound is
marked "wide"; above the bound, "OVER". setup_s is reported but not held to
its bound, which limits how far the median may move between two sets of
runs instead.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    defs = bench["end_to_end"]
    values = {d["name"]: [] for d in defs}
    shares = []
    for seed in range(1, args.runs + 1):
        res = run_once(bench, args.workload, seed)
        if not res["correct"]:
            print(f"seed {seed}: correct is false", file=sys.stderr)
        shares.append(res["failed"] / res["attempted"])
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds} s, failed share "
          f"{sorted(set(shares))}")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for d in defs:
        v = values[d["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = d["bound"]
        mark = ""
        if d["name"] != "setup_s":
            mark = "OVER" if spread > bound else ("wide" if spread > bound / 3 else "ok")
        print(f"{d['name']:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{bound:>6} {mark}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "values": values}))


if __name__ == "__main__":
    main()
