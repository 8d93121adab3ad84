#!/usr/bin/env python3
"""Steadiness report: run one workload with seeds 1..10 and print, per
metric, the median, the quartiles and the quartile spread next to the
bound that BENCHMARK.json fixes.

    python3 sccbench/steady.py --workload NAME [--trace 0|1]

Run from the repository root. Spread is (q3 - q1) / median with the
quartiles of Python's statistics.quantiles(values, n=4). A metric is
steady when its spread is within a third of its bound. Exits 1 if a run
fails, is incorrect, or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = str(bench["run_seconds"])
    group = "per_layer" if a.trace == "1" else "end_to_end"
    declared = {m["name"]: m for m in bench[group]}

    values = {name: [] for name in declared}
    ok = True
    for seed in SEEDS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               a.workload, "--seed", str(seed), "--seconds", seconds,
               "--trace", a.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        if set(result["metrics"]) != set(declared):
            print(f"seed {seed}: metrics differ from BENCHMARK.json")
            ok = False
        ok &= result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()
                         if k in values))
        for k, v in result["metrics"].items():
            if k in values:
                values[k].append(v["value"])

    print(f"\n{a.workload}, seeds {SEEDS[0]}-{SEEDS[-1]}, trace {a.trace}")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = declared[name].get("bound")
        verdict = ""
        if bound is not None:
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
        b = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.3f} {b}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
