"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 perfbench/spread.py --workloads campaign,queries,chains \\
        --seeds 1-10 --seconds 20 [--out perfbench/out/spread.json]

Runs `run.py --workload W --seed N --seconds S --trace 0` once per workload
and seed, one run at a time, and prints for every end-to-end metric the
median, the quartiles and the spread: the distance between the quartiles
(statistics.quantiles, n=4) as a share of the median.  Exits non-zero if a
run fails or prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), wall


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="campaign,queries,chains")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", help="write the figures here as JSON")
    args = ap.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in seed_list(args.seeds):
            result, wall = one_run(workload, seed, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            runs.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f} s  " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {name: {"unit": runs[0]["metrics"][name]["unit"],
                          **summary([r["metrics"][name]["value"] for r in runs])}
                   for name in runs[0]["metrics"]}
        report[workload] = {"attempted_per_run": runs[0]["attempted"],
                            "failed": sum(r["failed"] for r in runs),
                            "run_wall_s": {"median": statistics.median(walls),
                                           "max": max(walls)},
                            "metrics": metrics}
        for name, m in metrics.items():
            print(f"  {workload:9s} {name:18s} median {m['median']:.6g} {m['unit']:4s} "
                  f"spread {m['spread']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
