#!/usr/bin/env python3
"""Perf smoke gate for single-thread hot paths and modeled-time series.

Compares a fresh BENCH_<name>.json (written by a bench binary that must
run with --threads=1 so the gate measures per-core speed, not
parallelism) against a checked-in baseline. Wall-time series fail if the
summed time regresses more than the threshold; modeled-time series fail
if any case moves in either direction.

The checked-in baselines (bench/baselines/) hold PRE-optimization
numbers, so each gate enforces "the rewrite's win never quietly erodes":
even on a CI machine ~2x slower than the box that recorded the baseline,
a healthy build clears it, while losing the optimized path trips it.

Gated series (selected with --key):
  checking_seconds_by_k  (default) — Table 3 similarity checking, vs the
                         pre-columnar/SIMD baseline
  lp_seconds_by_case     — Table 5 joint-LP solve time, vs the
                         dense-tableau baseline
  p99_by_load            — serving-loop p99 QCT by offered load. These
                         are modeled virtual-time seconds (host- and
                         build-independent), so every load point must
                         match the baseline within a relative 1e-6, in
                         both directions: a model change that moves the
                         tail up or collapses it trips the gate
  flow_events_by_load    — shuffle flow-simulation events summed over the
                         served queries, by offered load (same bench
                         run). A deterministic work counter, gated
                         exactly like p99_by_load: a change to the flow
                         simulator's event structure trips it

Usage:
  perf_smoke.py CURRENT_JSON BASELINE_JSON [--threshold 0.20] [--key KEY]

Exit status: 0 pass, 1 regression, 2 usage/malformed input.
"""

import argparse
import json
import sys

# Modeled-time series and work counters: deterministic, so gated per
# case and two-sided.
EXACT_KEYS = {"p99_by_load", "flow_events_by_load"}
EXACT_REL_TOL = 1e-6


def load_rows(path, key):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perf_smoke: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    rows = doc.get(key)
    if not isinstance(rows, dict) or not rows:
        print(f"perf_smoke: {path} has no {key} rows", file=sys.stderr)
        sys.exit(2)
    return doc, {str(k): float(v) for k, v in rows.items()}


def sort_keys(keys):
    """Numeric order when every key parses as an int, else lexicographic."""
    try:
        return sorted(keys, key=int)
    except ValueError:
        return sorted(keys)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional regression of a wall-time "
                        "sum (default 0.20)")
    parser.add_argument("--key", default="checking_seconds_by_k",
                        help="JSON field holding the case -> seconds map")
    args = parser.parse_args()

    current_doc, current = load_rows(args.current, args.key)
    _, baseline = load_rows(args.baseline, args.key)

    threads = current_doc.get("threads")
    if threads != 1:
        print(f"perf_smoke: current run used threads={threads}; the gate "
              "requires a --threads=1 run", file=sys.stderr)
        sys.exit(2)

    shared = sort_keys(set(current) & set(baseline))
    if not shared:
        print("perf_smoke: no common cases between current and baseline",
              file=sys.stderr)
        sys.exit(2)

    width = max(len(k) for k in shared)
    print(f"{'case':>{width}} {'baseline (s)':>14} {'current (s)':>14} "
          f"{'ratio':>8}")
    for k in shared:
        ratio = current[k] / baseline[k] if baseline[k] > 0 else float("inf")
        print(f"{k:>{width}} {baseline[k]:>14.6f} {current[k]:>14.6f} "
              f"{ratio:>8.2f}")

    if args.key in EXACT_KEYS:
        unmatched = sorted(set(baseline) ^ set(current))
        drifted = [k for k in shared
                   if abs(current[k] - baseline[k]) >
                   EXACT_REL_TOL * abs(baseline[k])]
        if unmatched or drifted:
            print(f"perf_smoke: FAIL — {args.key} differs from baseline "
                  f"(relative tolerance {EXACT_REL_TOL:g}); drifted: "
                  f"{drifted}, unmatched cases: {unmatched}", file=sys.stderr)
            sys.exit(1)
        print(f"perf_smoke: PASS — every case within relative "
              f"{EXACT_REL_TOL:g} of baseline")
        sys.exit(0)

    base_total = sum(baseline[k] for k in shared)
    cur_total = sum(current[k] for k in shared)
    limit = base_total * (1.0 + args.threshold)
    print(f"total  baseline={base_total:.6f}s  current={cur_total:.6f}s  "
          f"limit={limit:.6f}s (threshold {args.threshold:.0%})")

    if cur_total > limit:
        print(f"perf_smoke: FAIL — single-thread {args.key} regressed "
              f"{cur_total / base_total - 1.0:+.1%} vs baseline",
              file=sys.stderr)
        sys.exit(1)
    print("perf_smoke: PASS")
    sys.exit(0)


if __name__ == "__main__":
    main()
