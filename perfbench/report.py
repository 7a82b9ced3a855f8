"""Traced split of a workload's op time, and the tracing overhead.

    python3 perfbench/run.py --workload chsh --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload chsh --seed 1 --seconds 15 --trace 1
    python3 perfbench/report.py --workload chsh --seed 1

Reads the result and trace files that those two runs leave in perfbench/out/
and prints, per exkit module, the self time of its traced functions as a
share of the traced op time (what no traced function covers is the
benchmark's own call overhead), the heaviest functions, and the tracing
overhead: traced over untraced ``op_median_s``, minus one.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
TOP = 8  # heaviest functions listed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    plain = json.loads((OUT / f"result-{args.workload}-seed{args.seed}.json").read_text())
    traced = json.loads((OUT / f"trace-{args.workload}-seed{args.seed}.json").read_text())
    # Span times are wall time (a CPU-time clock read costs a system call, and
    # a round makes up to a million spans), so the split is over wall time.
    op_time = sum(op["wall_s"] for op in traced["ops"])
    functions = traced["functions"]
    by_module: dict[str, float] = {}
    for key, stat in functions.items():
        module = key.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + stat["self_s"]

    print(f"{args.workload} seed {args.seed}: {traced['rounds']} traced rounds, "
          f"{len(traced['ops'])} ops, {op_time:.2f} s of traced op wall time")
    for module, seconds in sorted(by_module.items(), key=lambda kv: -kv[1]):
        print(f"  {module:12s} {seconds / op_time:7.1%}")
    print(f"  {'(untraced)':12s} {1 - sum(by_module.values()) / op_time:7.1%}")
    print("heaviest functions by self time:")
    for key, stat in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])[:TOP]:
        print(f"  {key:40s} {stat['self_s'] / op_time:7.1%}  {stat['calls'] // traced['rounds']} calls/round")
    overhead = traced["op_median_s"] / plain["op_median_s"] - 1
    print(f"op_median_s untraced {plain['op_median_s']:.3f} s, traced "
          f"{traced['op_median_s']:.3f} s: tracing overhead {overhead:+.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
