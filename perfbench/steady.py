"""Steadiness check: run each workload several times and report the spread.

    python3 perfbench/steady.py [--workload chsh ...] [--runs 10] [--trace 1]

Runs every workload of BENCHMARK.json, or the ones named, one run after
another.  Each run is ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace X`` with its own seed (S = 1, 2, ...) and T the
``run_seconds`` of BENCHMARK.json; each run's ops attempted and failed are
printed as it ends.  For every end-to-end metric it then
prints the median, the quartiles (``statistics.quantiles`` with n=4), the
spread (q3 - q1) / median and that spread as a share of the metric's bound.
The benchmark counts as steady when every spread but that of ``setup_s`` is
below a third of its bound.  It also prints the share of failed ops.  With
``--trace 1`` every run uses seed 1, and it prints every per-layer
metric instead and checks that each one that is not a time repeats exactly
across the runs.  ``--runs 1`` runs every workload once and prints its
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], spec: dict, trace: int) -> bool:
    """Print the figures of one workload's runs; True when they are steady."""
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{workload}: {len(results)} runs, failed share {shares}, "
          f"correct {all(r['correct'] for r in results)}")
    steady = all(r["correct"] for r in results) and len(shares) == 1
    if trace:
        for metric in spec["per_layer"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            repeats = len(set(values)) == 1
            note = "" if metric["unit"] == "s" else ("repeats" if repeats else "VARIES")
            steady &= metric["unit"] == "s" or repeats
            print(f"  {name:42s} median {statistics.median(values):<14.6g} "
                  f"{metric['unit']:9s} {note}")
        return steady
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'spread/bound':>12s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        if len(values) < 2:
            print(f"  {name:14s} {values[0]:12.6g}  {metric['unit']}")
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        share = spread / metric["bound"]
        if name != "setup_s":
            steady &= share < 1 / 3
        print(f"  {name:14s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {metric['bound']:6.2f} {share:12.2f}  {metric['unit']}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for i in range(args.runs):
            seed = 1 if args.trace else 1 + i
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)
        steady &= summarize(workload, results, spec, args.trace)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
