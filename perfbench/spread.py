#!/usr/bin/env python3
"""Spread report for the dscts benchmark.

Runs one workload N times with consecutive seeds and prints, for every
metric, the median, the quartiles (statistics.quantiles, n=4), the
quartile spread (q3 - q1) / median and the max relative spread
(max - min) / median, next to the metric's bound in BENCHMARK.json.
With --holdout it then runs one more seed and prints how far each metric
lands from the median, as a share of it.

    python3 perfbench/spread.py --workload xl-eco --runs 10 --seconds 20
    python3 perfbench/spread.py --workload serve-http --runs 5 --holdout 99

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--holdout", type=int, help="seed of one extra run compared with the median")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        started = time.monotonic()
        res = run_once(args.workload, seed, seconds, args.trace)
        took = time.monotonic() - started
        timed = " ".join(f"{name}={m['value']:.4g}" for name, m in res["metrics"].items()
                         if m["unit"] in ("s", "ms", "1/s"))
        print(f"seed {seed}: {took:.0f} s, attempted {res['attempted']} failed {res['failed']} {timed}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/med':>8} {'bound':>6}")
    medians = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        medians[name] = med
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(vs) - min(vs)) / med if med else float("nan")
        b = bounds.get(name)
        flag = ""
        if b is not None and name != "setup_s" and iqr == iqr:
            flag = "  over bound" if iqr > b else ("  over bound/3" if iqr > b / 3 else "")
        print(f"{name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {iqr:8.4f} {rng:8.4f} {b if b is not None else '':>6}{flag}")

    if args.holdout is not None:
        res = run_once(args.workload, args.holdout, seconds, args.trace)
        print(f"\nheld-out seed {args.holdout}: value and its distance from the median")
        for name, m in res["metrics"].items():
            med = medians.get(name)
            dev = (m["value"] - med) / med if med else float("nan")
            print(f"{name:28} {m['value']:12.4f} {dev:+8.4f}")


if __name__ == "__main__":
    main()
