#!/usr/bin/env python3
"""Steadiness check: repeat one workload and report, for every end-to-end
metric, its median and quartile spread next to the metric's bound.

Run from the repository root:

    python3 omegabench/steady.py --workload sweep-natural --runs 10

Two sets of runs (A and B) are interleaved, and each pair alternates which
set goes first, so order or warmth shows up as a difference between the
sets rather than hiding inside one. Every run uses its own seed. The spread
is (Q3 - Q1) / median with Python's ``statistics.quantiles(values, n=4)``.
A metric passes when its spread stays below a third of its bound in both
sets and the two sets' medians differ by no more than the bound, in either
direction. The deterministic counts must be identical in every run.

A second table shows the same metrics by the clock, before the host speed
index divides them, for comparison; it has no verdict.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run failed: seed {seed}, exit {proc.returncode}")
    parsed = [json.loads(l) for l in lines]
    result = parsed[-1]
    counts = next(p["counts"] for p in parsed if "counts" in p)
    clock = next(p for p in parsed if "clock" in p)
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"seed {seed}: incorrect result {result}")
    return result, counts, clock, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(a, b, better):
    """How much worse b's median is than a's, as a share of a's."""
    ma, mb = statistics.median(a), statistics.median(b)
    return (mb - ma) / ma if better == "lower" else (ma - mb) / ma


def table(defs, sets, title, verdicts):
    print(title)
    header = f"{'metric':<18} {'bound':>6} " + " ".join(
        f"{n + ' median':>14} {n + ' spread':>9}" for n in sets)
    print(header + f" {'B worse by':>10}" + ("  verdict" if verdicts else ""))
    ok = True
    for d in defs:
        name, bound = d["name"], d["bound"]
        row = f"{name:<18} {bound:>6.3f} "
        problems = []
        for s, values in sets.items():
            sp = spread(values[name])
            row += f"{statistics.median(values[name]):>14.6g} {sp:>9.4f} "
            if sp >= bound / 3:
                problems.append(f"{s} spread >= bound/3")
        w = worse_by(sets["A"][name], sets["B"][name], d["better"])
        row += f"{w:>+10.4f}"
        if abs(w) > bound:
            problems.append("A and B differ by more than the bound")
        if verdicts:
            row += "  " + ("ok" if not problems else "; ".join(problems))
            ok &= not problems
        print(row)
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seed0", type=int, default=1)
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    defs = bench["end_to_end"]
    names = [d["name"] for d in defs]
    normalised = {s: {n: [] for n in names} for s in "AB"}
    clock = {s: {n: [] for n in names} for s in "AB"}
    factors = {s: [] for s in "AB"}
    all_counts = []
    for i in range(opts.runs):
        for s in ("AB" if i % 2 == 0 else "BA"):
            seed = opts.seed0 + 2 * i + (ord(s) - ord("A"))
            result, counts, c, elapsed = run_once(bench["command"], opts.workload,
                                                  seed, bench["run_seconds"])
            for n in names:
                normalised[s][n].append(result["metrics"][n]["value"])
                clock[s][n].append(c["clock"][n])
            factors[s].append(c["speed_factor"])
            all_counts.append(counts)
            print(f"run {i + 1:2d}{s} seed {seed:4d}: {elapsed:6.1f} s wall, "
                  f"{result['attempted']} attempted, {result['failed']} failed, "
                  f"speed factor {c['speed_factor']:.3f}", flush=True)

    ok = table(defs, normalised, "normalised (the published figures):", True)
    table(defs, clock, "by the clock (for comparison, no verdict):", False)
    for s in "AB":
        print(f"set {s} speed factors: median {statistics.median(factors[s]):.3f}, "
              f"range {min(factors[s]):.3f}-{max(factors[s]):.3f}")
    identical = all(c == all_counts[0] for c in all_counts)
    print(f"deterministic counts identical across all {len(all_counts)} runs: "
          f"{'yes' if identical else 'NO'}")
    ok &= identical
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
