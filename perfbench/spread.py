#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads infer_batch serve_http --seeds 1 2 3 4 5

For every end-to-end metric (or per-layer metric, with --trace 1) it
prints the median, the quartiles by `statistics.quantiles(n=4)`, and
the spread: the inter-quartile distance as a share of the median. A
metric is steady when its spread is below a third of its bound in
BENCHMARK.json. Every result line is appended to --out when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed")
            line = done.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            steady &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name) if args.trace == "0" else None
            verdict = ""
            if bound is not None:
                ok = name == "setup_s" or spread < bound / 3
                steady &= ok
                verdict = f"bound {bound:<5} {'ok' if ok else 'WIDE'}"
            print(f"  {name:32s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:8.4f}  {verdict}", flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
