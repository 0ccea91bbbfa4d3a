#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/steady.py --workloads tcp_fanin_256B,tcp_bulk_16KiB \
        --seeds 1-10 [--trace 0] [--seconds N] [--out runs.jsonl]

Run from the repository root. For every workload, prints each metric's
median over the seeds and its spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the
median, and how much CPU time the host stole during each run. End-to-end spreads are compared with a third of the metric's
bound in BENCHMARK.json; `setup_s` is exempt from the spread check.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = open(args.out, "a") if args.out else None
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        steals = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{run.stderr}")
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            steal = [l.split(":")[1].strip() for l in lines if l.startswith("# cpu time stolen")]
            steals.append(steal[0] if steal else "?")
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                out.flush()
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({len(seeds_of(args.seeds))} seeds, trace {args.trace})")
        print(f"  cpu stolen by the host, run by run: {' '.join(steals)}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                ratio = spread / bound
                worst = max(worst, ratio)
                flag = "  OK" if ratio < 1 / 3 else ("  WIDE" if ratio < 1 else "  OVER")
            print(f"  {name:<34} median {med:>14.4f}  spread {spread:7.2%}{flag}")
    print(f"worst end-to-end spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
