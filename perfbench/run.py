#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Run from the repository root:

    python3 perfbench/run.py --workload infer_batch --seed 1 --seconds 10 --trace 0

Workloads: infer_batch, serve_http, train_stream. `--trace 0` measures
the end-to-end metrics, `--trace 1` the per-layer ledger (a separate,
traced run). The benchmark is built with cargo into `$CARGO_TARGET_DIR`
(default `.bench_build`). The next-to-last line of standard output is
the full run record; the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run fails (non-zero exit, no result line) when the build fails, the
workload errors, or the metrics disagree with BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Leaves the harness enough of a 180 s budget to report.
RUN_TIMEOUT_S = 170
SOURCES = ("crates", "vendor", "perfbench", "Cargo.toml", "Cargo.lock")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def provenance():
    """(rev, dirty, source digest): dirty is None outside a git checkout."""
    rev = (git("rev-parse", "HEAD") or "").strip() or "unknown"
    status = git("status", "--porcelain") if rev != "unknown" else None
    dirty = None if status is None else ("1" if status.strip() else "0")
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files += [os.path.join(base, n) for n in sorted(names)]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return rev, dirty, digest.hexdigest()


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def expected_metrics(trace):
    """Name -> unit from BENCHMARK.json, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    have = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and want != have:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, extra {extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    rev, dirty, source = provenance()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--rev", rev, "--source", source]
    if dirty is not None:
        cmd += ["--dirty", dirty]
    env = dict(os.environ)
    if args.workload == "serve_http":
        # The daemon spawns a thread per connection. With glibc's default
        # arena count, how many arenas those threads touch depends on
        # timing, and peak RSS wanders by a fifth from run to run. (One
        # arena for every workload would slow parallel training by a
        # quarter.)
        env["MALLOC_ARENA_MAX"] = "1"

    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{args.workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("no output")
    check_result(lines[-1], args.trace == "1")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
