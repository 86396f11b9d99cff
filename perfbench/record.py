#!/usr/bin/env python3
"""Record a benchmark baseline: every workload over several seeds.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline_seed.json

Runs ``perfbench/run.py`` untraced once per seed and workload, then once
traced per workload (first seed), from the current directory, with the
run length and workloads of BENCHMARK.json.  Writes, per workload and
end-to-end metric, the median, the quartiles (``statistics.quantiles``,
n = 4) and the spread (q3 - q1) / median; and the traced run's per-layer
metrics and, for figure_sweeps, its large-P (P = 32 / 256 / 1024) layer-time table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    out = json.loads(res.stdout.strip().splitlines()[-1])
    out["run_wall_s"] = time.perf_counter() - t0
    print(f"{workload} seed {seed} trace {trace}: {out['run_wall_s']:.1f} s, "
          f"{out['attempted']} calls, {out['failed']} failed", file=sys.stderr, flush=True)
    return out


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    record = {
        "run_seconds": seconds,
        "seeds": seeds,
        "host": {"cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(), "python": platform.python_version()},
        "workloads": {},
    }
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        traced = run_once(name, seeds[0], seconds, 1)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "run_wall_s": summarize([r["run_wall_s"] for r in runs]),
            "end_to_end": {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        trace_file = Path(".perfbench_out") / f"trace-{name}-seed{seeds[0]}.json"
        table = json.loads(trace_file.read_text()).get("table")
        if table:
            entry["layer_table"] = table
        record["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
