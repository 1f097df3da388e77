#!/usr/bin/env python3
"""Run the benchmark over several seeds and report, per workload and
metric, the median and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 --workload tight-joins
    python3 perfbench/spread.py --seeds 1-10 --out spread.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    status = 0
    for name in names:
        runs = []
        for seed in seed_range(args.seeds):
            result = run_once(spec, name, seed, 0)
            if not result["correct"]:
                status = 1
            runs.append(result)
            print(f"{name} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary[name] = {}
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            summary[name][metric] = stats
            flag = "" if metric == "setup_s" or stats["spread"] <= bound / 3 else (
                "  ABOVE BOUND" if stats["spread"] > bound else "  above bound/3")
            print(f"  {metric:16s} median {stats['median']:.6g}  spread {stats['spread']:.4f}"
                  f"  bound {bound}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
