#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same build.

    python3 perfbench/steady.py

Set A uses seeds 1..10 and set B seeds 1001..1010; runs alternate
A, B (B, A on odd rounds) for every workload of BENCHMARK.json, untraced,
at its run_seconds. For every workload and end-to-end metric it prints
each set's median and quartiles (Python's statistics.quantiles, n=4),
the spread (Q3 - Q1) / median, and the gap between the two medians in
the metric's worse direction, as a share of set A's median, next to the
metric's bound. It also compares the share of failed operations between
the sets. Exit 1 when a spread or a gap exceeds its bound, or the
failure shares differ.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEEDS = {"A": [1 + i for i in range(RUNS)],
         "B": [1001 + i for i in range(RUNS)]}


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d failed (exit %d)"
                 % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    sets = ["A", "B"]
    results = {w: {s: [] for s in sets} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            order = sets if i % 2 == 0 else list(reversed(sets))
            for s in order:
                r = run_once(w, SEEDS[s][i], bench["run_seconds"])
                results[w][s].append(r)
                print("%s %s seed %d done" % (w, s, SEEDS[s][i]),
                      file=sys.stderr)

    ok = True
    print("| workload | metric | bound | A median [Q1, Q3] | A spread |"
          " B median [Q1, Q3] | B spread | gap |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        shares = {s: sum(r["failed"] for r in results[w][s])
                  / sum(r["attempted"] for r in results[w][s]) for s in sets}
        if len(set(shares.values())) != 1:
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = "| %s | %s | %.2f |" % (w, name, bound)
            meds = {}
            for s in sets:
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                med, q1, q3, spread = stats(vals)
                meds[s] = med
                row += " %.6g [%.6g, %.6g] | %.3f |" % (med, q1, q3, spread)
                if spread > bound:
                    ok = False
            sign = 1.0 if m["better"] == "lower" else -1.0
            gap = sign * (meds["B"] - meds["A"]) / meds["A"]
            row += " %+.3f |" % gap
            if gap > bound:
                ok = False
            print(row)
        print("| %s | failed share | | %s |" % (
            w, " / ".join("%s %.6g" % (s, shares[s]) for s in sets)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
