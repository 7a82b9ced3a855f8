"""Self-test of the benchmark harness, on tiny inputs (about ten seconds).

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced run of a single
round on tiny inputs and checks that:

* every op passes its checks and the metrics are exactly those that
  BENCHMARK.json names, with the same units;
* the untraced run replaces no exkit name (``run.run`` also compares every
  attribute of every exkit module before and after the rounds);
* the traced run wrapped names in more than one exkit namespace (copies bound
  by ``from .x import f`` included), and afterwards every one of them is the
  original function again.

It also checks that the traced count of enumeration candidates (the
``class_size`` calls made by ``enumerate_types``) equals the loop's closed
formula (``oracle.candidates``) for three relations.

Last, it copies the benchmark without the exkit sources into a scratch
directory and checks that the command fails there and prints no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_run(name: str, traced: bool, spec: dict) -> list[str]:
    problems = []
    result, detail = run.run(name, seed=1, seconds=0, traced=traced, setups=1, tiny=True)
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"result {result} ({detail['problems']})")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    got = {key: m["unit"] for key, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    leftovers = tracer.traced_leftovers()
    if leftovers:
        problems.append(f"names left wrapped: {leftovers}")
    if not traced:
        if detail.get("replaced"):
            problems.append(f"untraced run replaced {detail['replaced']}")
        return problems
    replaced = detail["replaced"]
    namespaces = {name.rsplit(".", 1)[0] for name in replaced}
    if len(namespaces) < 2:
        problems.append(f"traced run wrapped names in {sorted(namespaces)} only")
    originals = tracer.traced_functions()
    for qualified in replaced:
        module, attr = qualified.rsplit(".", 1)
        bound = getattr(sys.modules[module], attr)
        if hasattr(bound, tracer.WRAPPED_MARK) or bound not in originals.values():
            problems.append(f"{qualified} was not restored")
    return problems


def check_candidates() -> list[str]:
    relations = sys.modules["exkit.relations"]
    alphabet = sys.modules["exkit.core"].Alphabet
    problems = []
    for kind, relation, d, n in [("exchangeable", relations.EXCHANGEABLE, 3, 4),
                                 ("markov", relations.MARKOV, 3, 4),
                                 ("lmarkov", relations.LMarkov(2), 2, 5)]:
        spans = tracer.Tracer(run.OBSERVERS)
        spans.install()
        try:
            sys.modules["exkit.relations"].enumerate_types(relation, alphabet(d), n)
        finally:
            spans.restore()
        counted = spans.counters.get("candidates", 0)
        expected = oracle.candidates(kind, getattr(relation, "ell", 1), d, n)
        if counted != expected:
            problems.append(f"{kind} d={d} n={n}: {counted} candidates counted, formula {expected}")
    return problems


def check_without_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=HERE / "out", prefix="bare-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "classes", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"without src/ the command exited {done.returncode} with output {lines[-1:]}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in WORKLOADS:
        for traced in (False, True):
            problems = check_run(name, traced, spec)
            failures += bool(problems)
            label = f"{name} {'traced' if traced else 'untraced'}"
            print(f"{'FAIL' if problems else 'ok'}   {label}", *problems, sep="\n  ")
    problems = check_candidates()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok'}   traced candidates match the formula", *problems, sep="\n  ")
    problems = check_without_sources()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok'}   refuses to run without src/", *problems, sep="\n  ")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
