#!/usr/bin/env python3
"""Repeat the benchmark over seeds and judge its noise against its bounds.

    python3 benchmark/spread.py --workloads serve-exec train --seeds 1 2 3 4 5 --out a.json
    python3 benchmark/spread.py --compare a.json b.json

The first form runs `benchmark/run.py` untraced once per (workload, seed),
saves every result to `--out`, and prints for each end-to-end metric of
`BENCHMARK.json` its median and its spread: the distance between the first
and third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median. A spread passes when it is below the metric's bound (`setup_s` is
exempt) and is steady when below a third of it. The second form compares the
medians of two saved sets and fails when the second is worse than the first
by more than a metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative
    when it is better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def regressed(base, new, better, bound):
    return worse_by(base, new, better) > bound


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=1200)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}, correct={result['correct']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def report_spreads(spec, runs):
    ok = True
    for workload, by_seed in runs.items():
        print(f"{workload} ({len(by_seed)} seeds)")
        for m in spec["end_to_end"]:
            values = [metrics[m["name"]] for metrics in by_seed.values()]
            s = spread(values) if len(values) >= 2 else 0.0
            gated = m["name"] != "setup_s"
            verdict = "steady" if s < m["bound"] / 3 else ("within bound" if s < m["bound"] else "TOO NOISY")
            if gated and s >= m["bound"]:
                ok = False
            print(f"  {m['name']:<16} median {statistics.median(values):>14.4f} {m['unit']:<6}"
                  f" spread {s:7.2%} bound {m['bound']:.0%}  {verdict if gated else verdict + ' (not gated)'}")
    return ok


def compare(spec, base, new):
    ok = True
    for workload in base:
        print(workload)
        for m in spec["end_to_end"]:
            b = statistics.median(r[m["name"]] for r in base[workload].values())
            n = statistics.median(r[m["name"]] for r in new[workload].values())
            bad = regressed(b, n, m["better"], m["bound"])
            ok &= not bad
            print(f"  {m['name']:<16} {b:>14.4f} -> {n:>14.4f}  worse by {worse_by(b, n, m['better']):7.2%}"
                  f" (bound {m['bound']:.0%}) {'REGRESSED' if bad else 'ok'}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in load_spec()["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(spec, *sets) else 1
    runs = {}
    for workload in args.workloads:
        runs[workload] = {}
        for seed in args.seeds:
            runs[workload][str(seed)] = run_once(workload, seed, args.seconds)
            print(f"  ran {workload} seed {seed}", file=sys.stderr)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(runs, f, indent=1)
    return 0 if report_spreads(spec, runs) else 1


if __name__ == "__main__":
    sys.exit(main())
