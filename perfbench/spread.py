#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload in BENCHMARK.json this runs the benchmark command once
per seed, reads the JSON result on the last line of its output, and prints
per metric the median and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the median.
A spread above the metric's bound or a run that is not correct makes the
exit status 1; a spread above a third of the bound is marked.

With --against FILE, the medians are also compared with those saved by an
earlier --save FILE: a median worse than the saved one by more than the
bound is reported (the check a held-out seed must pass).

Run from the repository root:

    python3 perfbench/spread.py --seeds 11-20 [--workloads a,b] [--trace 1]
        [--save out.json] [--against out.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="11-20")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    medians = {}
    for workload in names:
        values = {m: [] for m in bounds}
        for seed in seed_list(args.seeds):
            result = run_once(bench, workload, seed, args.trace)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: not correct ({result['failed']} failed)")
                ok = False
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={e['value']:.6g}" for n, e in result["metrics"].items()), flush=True)
        medians[workload] = {}
        print(f"\n{workload}: {'metric':<26} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            medians[workload][name] = med
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = " SPREAD ABOVE BOUND"
                ok = False
            elif bound is not None and spread > bound / 3:
                flag = " spread above a third of the bound"
            before = earlier.get(workload, {}).get(name)
            if bound is not None and before:
                worse = (med - before) / before if better[name] == "lower" else (before - med) / before
                flag += f" vs saved {before:.6g} ({100 * worse:+.1f}% worse)"
                if worse > bound:
                    flag += " BEYOND BOUND"
                    ok = False
            shown = f"{bound:.2f}" if bound is not None else "-"
            print(f"{'':<{len(workload) + 1}} {name:<26} {med:>14.6g} {spread:>8.4f} {shown:>6}{flag}")
        print()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
