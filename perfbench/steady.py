#!/usr/bin/env python3
"""Steadiness report for the benchmark described by BENCHMARK.json.

Runs two sets. Each set runs every workload once per round, interleaved
(A B C D A B C D ...), so machine drift hits each workload alike, with a
new seed each round (set 1 uses seeds 1, 2, ...; set 2 uses 1001, 1002,
...). For each end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (quartile
distance over the median) and the spread as a share of the metric's bound.
Then it prints how far each median moved between the sets, against the
same bound.

Run from the repository root:

    python3 perfbench/steady.py --rounds 10
    python3 perfbench/steady.py --rounds 5 --workloads serve
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        print(f"FAILED: {workload} seed {seed}: exit {proc.returncode}", flush=True)
        return None, wall
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.stderr.write(proc.stderr[-2000:])
        print(f"FAILED: {workload} seed {seed}: correct={res['correct']} failed={res['failed']}", flush=True)
    return res, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(bench, workloads, rounds, seed0):
    values = {w: {} for w in workloads}
    for r in range(rounds):
        for w in workloads:
            res, wall = run_once(bench["command"], w, seed0 + r, bench["run_seconds"])
            if res is None:
                continue
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"round {r + 1}/{rounds} {w:14s} seed {seed0 + r}: {wall:5.1f} s wall, "
                  f"{res['attempted']} ops", flush=True)
    return values


def report(bounds, values):
    worst = (0.0, "")
    for w, metrics in values.items():
        print(f"\n{w}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            med, q1, q3, sp = spread(vals)
            share = sp / bounds[name]
            worst = max(worst, (share, f"{w} {name}"))
            print(f"  {name:16s} {med:12.4f} {q1:12.4f} {q3:12.4f} {sp:8.4f} {bounds[name]:6.2f} {share:12.3f}")
    print(f"\nworst spread/bound: {worst[0]:.3f} ({worst[1]}; target below 0.333)")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    sets = []
    for s in range(2):
        print(f"== set {s + 1}/2", flush=True)
        values = run_set(bench, workloads, args.rounds, 1 + 1000 * s)
        report(bounds, values)
        sets.append(values)

    print("\nmedian drift from set 1 to set 2 (positive = worse)")
    worst = (0.0, "")
    for w in workloads:
        for name, vals in sets[0][w].items():
            a, b = statistics.median(vals), statistics.median(sets[1][w][name])
            drift = (b - a) / a if better[name] == "lower" else (a - b) / a
            share = abs(drift) / bounds[name]
            worst = max(worst, (share, f"{w} {name}"))
            flag = "OK" if abs(drift) <= bounds[name] else "OUTSIDE BOUND"
            print(f"  {w:14s} {name:16s} {drift:+8.4f}  {share:6.3f} of bound  {flag}")
    print(f"\nworst |drift|/bound: {worst[0]:.3f} ({worst[1]})")


if __name__ == "__main__":
    main()
