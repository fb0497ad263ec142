#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

From the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs `run.py` once per workload of BENCHMARK.json and seed 1-10, one run at
a time, with the `run_seconds` of BENCHMARK.json, then one traced run per
workload.  For every workload × end-to-end metric it records the ten
values, their median and quartiles (`statistics.quantiles(values, n=4)`)
and the spread: the distance between the quartiles as a share of the
median.  A run that
exits non-zero stops the script with that run's stderr.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"machine": f"{platform.machine()} Linux, "
                      f"Python {platform.python_version()}",
           "run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in bench["workloads"]:
        name = workload["name"]
        results = [run(name, seed, seconds, 0) for seed in SEEDS]
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            metrics[m["name"]] = dict(unit=m["unit"], better=m["better"],
                                      bound=m["bound"], **summary(values))
            print(f"{name:8s} {m['name']:24s} median "
                  f"{metrics[m['name']]['median']:12.6g} spread "
                  f"{metrics[m['name']]['spread']:.4f} bound {m['bound']}",
                  flush=True)
        traced = run(name, SEEDS[0], seconds, 1)
        out["workloads"][name] = {
            "why": workload["why"],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": metrics,
            "traced_seed": SEEDS[0],
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
