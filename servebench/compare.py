#!/usr/bin/env python3
# Copyright 2026 MixQ-GNN Authors
"""Collects sets of benchmark runs and compares them (python3 stdlib only).

  collect: run one workload once per seed, keeping each run's stdout
      python3 servebench/compare.py collect --out .bench_build/runs/base \\
          --workload wire-pruned --seeds 1-10 [--seconds 10] [--trace 0]

  report: per workload and metric, the median, quartiles and spread
  (quartile distance / median) of one set; with a second set, also the
  change of the median, flagging every end-to-end metric whose change is
  worse than its bound in BENCHMARK.json
      python3 servebench/compare.py report .bench_build/runs/base [.bench_build/runs/new]

A run file is any file whose last line is the harness's JSON result and
which contains its "# workload NAME ..." line. Exit status of `report` is 1
when a run is incorrect or a metric regressed past its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    os.makedirs(args.out, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        path = os.path.join(args.out, f"{args.workload}-seed{seed}.out")
        if os.path.exists(path):
            continue
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        with open(path + ".tmp", "w") as f:
            f.write(result.stdout)
        os.rename(path + ".tmp", path)
        print(f"{path}: exit {result.returncode}", file=sys.stderr)
    return 0


def read_set(directory):
    """{workload: [result dict, ...]} for every run file in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        workload = next((l.split()[2] for l in lines if l.startswith("# workload ")), None)
        if workload is None or not lines:
            continue
        try:
            runs.setdefault(workload, []).append(json.loads(lines[-1]))
        except json.JSONDecodeError:
            print(f"{path}: no result line", file=sys.stderr)
    return runs


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def report(args):
    spec = load_benchmark()
    sets = [read_set(d) for d in args.sets]
    status = 0
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        runs = [s.get(workload, []) for s in sets]
        for i, rs in enumerate(runs):
            failed = [r for r in rs if not r.get("correct")]
            share = {(r["failed"], r["attempted"]) for r in rs}
            print(f"  set {i}: {len(rs)} runs, {len(failed)} incorrect, "
                  f"failed/attempted {sorted(share)[:3]}")
            if failed:
                status = 1
        names = sorted({m for rs in runs for r in rs for m in r["metrics"]})
        for name in names:
            cells = []
            meds = []
            for rs in runs:
                values = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                if not values:
                    cells.append("-")
                    meds.append(None)
                    continue
                med, q1, q3, spread = summarize(values)
                meds.append(med)
                cells.append(f"median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                             f"spread {spread:.3f}")
            m = spec.get(name, {})
            line = f"  {name:32s} " + " | ".join(cells)
            bound = m.get("bound")
            if bound is not None:
                line += f" (bound {bound})"
            if len(meds) == 2 and None not in meds and meds[0]:
                change = (meds[1] - meds[0]) / abs(meds[0])
                worse = change if m.get("better") == "lower" else -change
                line += f" change {change:+.3f}"
                if bound is not None and worse > bound:
                    line += "  REGRESSION"
                    status = 1
            print(line)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", default="10")
    c.add_argument("--trace", default="0", choices=["0", "1"])
    r = sub.add_parser("report")
    r.add_argument("sets", nargs="+")
    args = parser.parse_args()
    return collect(args) if args.mode == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
