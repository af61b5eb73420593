#!/usr/bin/env python3
"""A/B two builds of the `perf` ledger binary in alternating pairs.

  ledger_ab.py --base <perf-bin> --change <perf-bin> --workload <w>
               [--workload <w> ...] --pairs N
               [--seeds 1,2,3] [--seconds 20] [--trace 0] [--out-dir DIR]

Build each commit's `perf` once into its own target directory, then hand
both binaries here; the script refuses (exit 2) two paths to one file or
two byte-identical files, which would read as "no change". For every
workload the script runs N pairs, the base first on odd pairs and the
change first on even ones, each run appending its result line
(`perf --out`) to `DIR/base.jsonl` or `DIR/change.jsonl`; pair i uses
seed `seeds[i % len(seeds)]` on both sides. It then

  * calls `<change> --check DIR/base.jsonl DIR/change.jsonl` (bounds and
    exact-metric agreement, read from ./BENCHMARK.json — run this from
    the repository root), and
  * prints, per workload and metric — the end-to-end metrics with
    `--trace 0`, the `ms` entries of `per_layer` with `--trace 1` (which
    layer a saving lands in; layers a workload never enters are left out)
    — each side's median and quartiles and the pair wins, and applies the
    rule for claiming a gain: the change wins at least nine tenths of the
    pairs (ties count for neither) and the medians differ by more than the
    base's own interquartile distance. The `spread` column is each side's
    q3 - q1 (`statistics.quantiles(v, n=4)`, as the perf README measures
    spread) as a share of the *base's* median, marked `WIDE` when either
    passes the metric's bound (end-to-end metrics only; layers have none):
    beyond that the runs vary too much to tell the sides apart. A side's
    spread scales with its level, so a change that raises `triples_per_s`
    by 40 % reads 1.4x the base's spread at equal noise; cycle ten seeds
    (`--seeds 1,2,...,10`) to see what ten-seed sets see.

Exit status is that of `--check`. Timings on shared runners are noise:
this is a tool for a quiet box, not a CI gate. Standard library only.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys


def run(binary, workload, seed, args, out):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def report(metrics, base_runs, change_runs):
    """Per-side medians/quartiles and pair wins for runs paired by position."""
    fmt = lambda q1, m, q3: f"{q1:.4g}/{m:.4g}/{q3:.4g}"
    print(f"{'workload':<16} {'metric':<26} {'base q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'change':>8} {'wins':>7}  {'spread b/c':>12}  gain?")
    for workload in dict.fromkeys(r["workload"] for r in base_runs):
        pairs = [(a, b) for a, b in zip(base_runs, change_runs) if a["workload"] == workload]
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            a = [p[0]["metrics"][name]["value"] for p in pairs]
            b = [p[1]["metrics"][name]["value"] for p in pairs]
            if not any(a) and not any(b):
                continue
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            better = (bm < am) if lower else (bm > am)
            gain = better and wins * 10 >= len(pairs) * 9 and abs(bm - am) > a3 - a1
            change = (bm - am) / am * 100 if am else 0.0
            spread_a, spread_b = (spread(v) / am * 100 if am else 0.0 for v in (a, b))
            bound = metric.get("bound", float("inf")) * 100
            wide = " WIDE" if max(spread_a, spread_b) > bound else ""
            print(f"{workload:<16} {name:<26} {fmt(a1, am, a3):>30} {fmt(b1, bm, b3):>30} "
                  f"{change:>+7.1f}% {wins:>3}/{len(pairs):<3}  {spread_a:>4.1f}/{spread_b:>4.1f}%{wide}"
                  f"  {'GAIN' if gain else '-'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="perf binary built from the parent commit")
    ap.add_argument("--change", required=True, help="perf binary built from the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", default="1", help="comma-separated; pair i uses seeds[i %% len]")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out-dir", default="ledger_ab")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for binary in (args.base, args.change):
        if not os.path.isfile(binary):
            ap.error(f"{binary}: no such file")
    if os.path.samefile(args.base, args.change) or filecmp.cmp(args.base, args.change, shallow=False):
        print(f"ledger_ab.py: --base {args.base} and --change {args.change} are the same binary; "
              "build each commit into its own target directory", file=sys.stderr)
        sys.exit(2)
    seeds = [int(s) for s in args.seeds.split(",")]

    os.makedirs(args.out_dir, exist_ok=True)
    files = {side: os.path.join(args.out_dir, f"{side}.jsonl") for side in ("base", "change")}
    for path in files.values():
        open(path, "w").close()
    sides = {"base": args.base, "change": args.change}
    for workload in args.workload:
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run(sides[side], workload, seeds[i % len(seeds)], args, files[side])
            print(f"{workload}: pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    check = subprocess.run([args.change, "--check", files["base"], files["change"]])
    print()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] if args.trace == 0 else [
        m for m in spec["per_layer"] if m["unit"] == "ms"]
    load = lambda path: [json.loads(line) for line in open(path) if line.strip()]
    report(metrics, load(files["base"]), load(files["change"]))
    sys.exit(check.returncode)


if __name__ == "__main__":
    main()
