#!/usr/bin/env python3
"""Steadiness report for the serving benchmark.

Runs the benchmark several times per workload, each run with another seed,
and reports for every end-to-end metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median,
against the bound BENCHMARK.json fixes. Traced runs add the per-layer
medians, `trace.overhead_pct` among them.

    python3 servebench/steadiness.py --runs 10 --trace-runs 3 \
        --out servebench/STEADINESS.json

Run from the repository root. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1]), wall


def summarize(values, bound=None):
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
        "values": values,
    }
    if bound is not None:
        out["bound"] = bound
        out["spread_within_third_of_bound"] = out["spread"] is not None and out["spread"] < bound / 3
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=3)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {"command": bench["command"], "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs, traced, host, walls = [], [], None, []
        for i in range(args.runs):
            seed = args.seed_base + i
            info, result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: checks failed: {info['failures']}")
            host = host or info["host"]
            runs.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for i in range(args.trace_runs):
            seed = args.seed_base + i
            info, result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"], 1)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} traced: checks failed: {info['failures']}")
            traced.append((info, result))
            walls.append(wall)
        entry = {
            "host": host,
            "runs": args.runs,
            "seeds": [args.seed_base + i for i in range(args.runs)],
            "run_wall_s_max": max(walls),
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in runs], bounds.get(name))
                for name in runs[0]["metrics"]
            },
        }
        if traced:
            entry["traced_runs"] = len(traced)
            entry["per_layer_median"] = {
                name: statistics.median(r["metrics"][name]["value"] for _, r in traced)
                for name in traced[0][1]["metrics"]
            }
            entry["trace.overhead_pct"] = summarize(
                [r["metrics"]["trace.overhead_pct"]["value"] for _, r in traced]
            ) if len(traced) >= 2 else traced[0][1]["metrics"]["trace.overhead_pct"]["value"]
        report["workloads"][workload] = entry
        spreads = ", ".join(
            f"{k} {v['spread']:.3f}/{v.get('bound')}" for k, v in entry["end_to_end"].items())
        print(f"{workload}: spread/bound {spreads}", flush=True)
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
