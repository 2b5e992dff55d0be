#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 benchmark/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds `benchmark/` (a Cargo package of its
own) in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`),
runs one workload with the program's environment pinned, and prints the
benchmark's report. The last line of standard output is the result as one
JSON object. Provenance (nproc, git commit, `rustc -V`, seed) is printed
before it and appended, with the result, to `<target>/bench-results.jsonl`.
A traced run writes its spans to `<target>/bench-spans/`.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["serve-warm", "serve-exec", "serve-wire", "train"]
# Settings the program reads from the environment; a run must not inherit them.
PINNED_ENV = ["FOSS_WORKERS", "FOSS_TIER", "FOSS_FAULTS", "FOSS_EXEC", "FOSS_SCALE"]
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed, workload, trace):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "rustc": command_output(["rustc", "-V"]) or "unknown",
    }


def parse_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target

    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(ROOT, "benchmark", "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    argv = [
        os.path.join(target, "release", "foss-e2e-bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans_dir = os.path.join(target, "bench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        argv += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.tsv")]
    started = time.monotonic()
    try:
        ran = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = ran.stdout.strip().splitlines()
    result = parse_result(lines[-1]) if lines else None
    if result is None:
        sys.stdout.write(ran.stdout)
        print(f"run.py: {args.workload} exited {ran.returncode} without a result", file=sys.stderr)
        return ran.returncode or 1

    prov = provenance(args.seed, args.workload, args.trace)
    prov["run_s"] = round(time.monotonic() - started, 3)
    with open(os.path.join(target, "bench-results.jsonl"), "a") as out:
        out.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(prov))
    print(lines[-1])
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
