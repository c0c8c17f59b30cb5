#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the command in BENCHMARK.json once per seed on each workload and
reports, for every end-to-end metric, the median of the per-run values and
their spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric is
steady when its spread stays below a third of its bound.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10 [--workloads campaign,sweep]
                                [--trace 0] [--out perfbench/work/results.json]

Each run's last stdout line (the JSON result) is kept in --out together
with host details, so two sets can be compared afterwards.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def steal_jiffies():
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:9]]
    return vals[7], sum(vals)


def spread(values):
    """Quartile distance over the median of per-run values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    table = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    seeds = parse_seeds(args.seeds)

    record = {"nproc": os.cpu_count(), "seeds": seeds, "trace": args.trace, "runs": {}}
    steal0 = steal_jiffies()
    failed = False
    for w in workloads:
        runs = []
        for seed in seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", args.trace]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                failed = True
                continue
            result = json.loads(lines[-1])
            result["elapsed_s"] = elapsed
            runs.append(result)
            print(f"{w} seed {seed}: {elapsed:.1f} s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        record["runs"][w] = runs
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs, longest {max(r['elapsed_s'] for r in runs):.1f} s")
        for m in table:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if args.trace != "0" or len(values) < 2:
                print(f"  {m['name']:<28} median {statistics.median(values):.6g}")
                continue
            s = spread(values)
            steady = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            print(f"  {m['name']:<20} median {statistics.median(values):<14.6g} spread {s:.4f} "
                  f"bound {m['bound']} {steady}")
        print()
    steal1 = steal_jiffies()
    record["steal_frac"] = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    print(f"host steal during the set: {record['steal_frac']:.4f}; nproc {record['nproc']}")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
