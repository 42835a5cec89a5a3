#!/usr/bin/env python3
"""Runs one workload under several seeds and reports, per metric, the
median and the spread (IQR / median, quartiles as Python's
statistics.quantiles(values, n=4) gives them) next to the bound in
BENCHMARK.json.

    python3 perfbench/spread.py --workload gnp_engine --seeds 1-10 [--trace 0|1]

Each run's result line is kept in <target>/perfbench-work/spread/.
Exits nonzero if a run fails or, for --trace 0, a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_dir = os.path.join(ROOT, target, "perfbench-work", "spread")
    os.makedirs(out_dir, exist_ok=True)

    results = []
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        path = os.path.join(out_dir, f"{args.workload}-t{args.trace}-{seed}.json")
        with open(path, "w") as f:
            f.write(lines[-1] + "\n")
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}", flush=True)

    ok = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag, ok = "  OVER BOUND", False
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:28s} median {med:14.4f}  spread {spread:6.3f}  bound {shown}{flag}")
    sys.exit(0 if ok or args.trace == "1" else 1)


if __name__ == "__main__":
    main()
