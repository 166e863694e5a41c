"""Benchmark for sigmagroups: three workloads, each run with tracing off for
the end-to-end metrics, or traced for the per-layer metrics.

    python3 perfbench/run.py --workload campaign|queries|chains \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the benchmark imports the package from the
checkout's `src/` and the brute-force oracles from `tests/oracles.py`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are a readable table
with each metric's unit and sample count.  The exit code is 0 only when every
correctness check passed.  Run artifacts (the campaign report, spans and the
per-layer tables) go to `perfbench/out/`.

Every timing is taken on one CPU and given in reference seconds: scaled by
the host's speed, sampled on that CPU around and during the work
(common.Speedometer).
`setup_s` is the median of SETUP_REPEATS fresh interpreters that import the
package and make the workload's inputs, half of them before the workload runs
and half after it.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time

import common
from common import Outcome, Sample, Speedometer, run_forked

WORKLOADS = ("campaign", "queries", "chains")
SETUP_REPEATS = 4

# the end-to-end metrics every workload reports with tracing off
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_s_p50": ("s", "lower"),
    "latency_s_p90": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "cpu_s_per_op": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate the workload's inputs, then exit")
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int, seconds: float, repeats: int,
                  speedo: Speedometer) -> list[float]:
    """Fresh interpreter to inputs ready, repeats times, in reference seconds."""
    spans = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
                       check=True, stdout=subprocess.DEVNULL)
        spans.append((t0, time.perf_counter()))
        speedo.sample()
    return [speedo.scaled(t0, t1) for t0, t1 in spans]


def measure(workload: str, seed: int, seconds: float) -> Outcome:
    """The workload with tracing off, with setup_s added to its metrics."""
    module = importlib.import_module(workload)
    speedo = Speedometer()
    setup_times = measure_setup(workload, seed, seconds, SETUP_REPEATS // 2, speedo)
    out = module.run(seed, seconds, speedo)
    setup_times += measure_setup(workload, seed, seconds, SETUP_REPEATS - len(setup_times),
                                 speedo)
    out.metrics = {"setup_s": Sample(statistics.median(setup_times), "s", len(setup_times)),
                   **out.metrics}
    out.speed = speedo.mean()
    return out


def print_outcome(workload: str, seed: int, out: Outcome) -> None:
    alias_of = {metric: name for name, metric in out.aliases.items()}
    print(f"workload {workload}  seed {seed}  correct {out.correct}  "
          f"error_rate {out.failed}/{out.attempted} {out.base}")
    if out.speed is not None:
        print(f"  host speed {out.speed:.3f} of reference (mean of speed samples); "
              f"timings below are in reference seconds")
    print(f"  {'metric':34s} {'value':>14s}  {'unit':5s} {'samples':>7s}  also known as")
    for name, s in out.metrics.items():
        print(f"  {name:34s} {s.value:14.6f}  {s.unit:5s} {s.samples:7d}  "
              f"{alias_of.get(name, '')}")
    for line in out.problems[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)


def result_line(out: Outcome) -> str:
    return json.dumps({
        "correct": out.correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {k: {"value": s.value, "unit": s.unit} for k, s in out.metrics.items()}})


def run_all(args) -> int:
    """Every workload with tracing off, each in a child forked from this
    process before it imported sigmagroups; prints the end-to-end metrics of
    all three under their per-workload names."""
    rows, correct = [], True
    for workload in WORKLOADS:
        res = run_forked(measure, workload, args.seed, args.seconds)
        if not res.ok:
            print(f"{workload}: no result ({res.value})", file=sys.stderr)
            correct = False
            continue
        out = res.value
        print_outcome(workload, args.seed, out)
        correct = correct and out.correct
        rows.append((f"{workload}.setup_s", out.metrics["setup_s"]))
        rows.append((f"{workload}.peak_rss_mib", out.metrics["peak_rss_mib"]))
        rows.append((f"{workload}.error_rate",
                     Sample(out.failed / out.attempted, "ratio", out.attempted)))
        rows += [(name, out.metrics[metric]) for name, metric in out.aliases.items()]
    print("all workloads, end-to-end metrics by per-workload name:")
    for name, s in rows:
        print(f"  {name:26s} {s.value:14.6f}  {s.unit:5s} n={s.samples}")
    print(json.dumps({"correct": correct, "metrics": {
        name: {"value": s.value, "unit": s.unit, "samples": s.samples} for name, s in rows}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.checkout_is_complete():
        print("run from the root of a sigmagroups checkout: src/sigmagroups and "
              "tests/oracles.py are required", file=sys.stderr)
        return 2
    common.use_checkout()
    common.pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        importlib.import_module(args.workload).setup(args.seed, args.seconds)
        return 0
    if args.trace:
        out = importlib.import_module(args.workload).traced(args.seed, args.seconds)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    print_outcome(args.workload, args.seed, out)
    print(result_line(out))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
