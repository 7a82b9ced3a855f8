"""exkit benchmark: certificate latency and throughput on four workloads.

    python3 perfbench/run.py --workload flexible --seed 1 --seconds 15 --trace 0

Runs one workload in this single-threaded process against the exkit sources
in ``src/`` of the checkout that holds this file.  Set-up (a fresh import of
exkit and one small warm-up op) is done SETUPS times and its median is
``setup_s``; the benchmark's own input generation is not timed.  Then whole
rounds of the workload's ops run until they have taken ``--seconds``, every
distinct output is checked, and the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with no exkit name replaced.
Times are the process's CPU time (``time.process_time``): the ops are
single-threaded, CPU-bound and in-process, and on a shared virtual machine
their wall time also counts spells in which the host runs something else.
The host's speed also swings by tens of percent within seconds, so
``reference_work`` is timed before the first set-up and op and after each
one, and every time is scaled to the host speed at which that reference
takes REFERENCE_S (see ``at_reference_speed``).  Each op's time is its
median over the rounds; ``op_median_s`` is the median of those over a
round's ops, and ``classes_per_s`` is the classes of one round over their
sum.  ``--trace 1`` wraps exkit's module functions (see
tracer.py) for the rounds and reports the per-layer metrics: self times in
seconds and counts, each per round, and ratios.  Every run also writes its
record, with each op's time, to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer as spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 9  # set-ups per run; setup_s is their median

# CPU time of reference_work on the 2-core machine of the README's figures;
# times are reported at the host speed at which reference_work takes this.
REFERENCE_S = 0.080

END_TO_END = {
    "setup_s": "s",
    "op_median_s": "s",
    "classes_per_s": "classes/s",
    "peak_rss_mb": "MB",
}


def _self(*keys):
    return lambda t, r: sum(t.stats[k].self_time for k in keys if k in t.stats) / r


def _self_layer(layer, exclude=()):
    return lambda t, r: sum(s.self_time for k, s in t.stats.items()
                            if k.startswith(layer + ".") and k not in exclude) / r


def _calls(key):
    return lambda t, r: _per_round(t.stats[key].calls if key in t.stats else 0, r)


def _counter(name):
    return lambda t, r: _per_round(t.counters.get(name, 0), r)


def _ratio(num, den):
    def value(t, r):
        d = den(t, 1)
        return num(t, 1) / d if d else 0.0
    return value


def _per_round(total, rounds):
    # Every round runs the same operations, so counts divide exactly.
    return total // rounds if total % rounds == 0 else total / rounds


# name -> (unit, value from the tracer and the number of rounds)
PER_LAYER = {
    "reduction.pi_calls": ("count", _calls("reduction.pi_value")),
    "reduction.pi_s": ("s", _self("reduction.pi_value")),
    "reduction.pi_nonzero_ratio": ("ratio", _ratio(_counter("pi_nonzero"), _calls("reduction.pi_value"))),
    "reduction.fidelity_calls": ("count", _calls("reduction.fidelity_sq_from_pairs")),
    "reduction.fidelity_s": ("s", _self("reduction.fidelity_sq_from_pairs", "reduction.fidelity_squared")),
    "reduction.fidelity_pairs": ("count", _counter("fidelity_pairs")),
    "reduction.fidelity_pairs_nonzero_ratio": ("ratio", _ratio(_counter("fidelity_pairs_nonzero"), _counter("fidelity_pairs"))),
    "reduction.fidelity_exact_ratio": ("ratio", _ratio(_counter("fidelity_exact"), _calls("reduction.fidelity_sq_from_pairs"))),
    "reduction.verify_self_s": ("s", _self("reduction.verify_flexible_reduction")),
    "intervals.sqrt_bounds_calls": ("count", _calls("intervals.sqrt_bounds")),
    "intervals.sqrt_bounds_s": ("s", _self("intervals.sqrt_bounds")),
    "intervals.bits_final": ("bits", lambda t, r: t.counters.get("bits_final", 0)),
    "intervals.escalations": ("count", _counter("escalations")),
    "games.support_classes": ("count", _counter("support_classes")),
    "games.bound_support_ratio": ("ratio", _ratio(_counter("support_classes"), _counter("bound_fidelities"))),
    "relations.enumerate_s": ("s", _self("relations.enumerate_types")),
    "relations.candidates": ("count", _counter("candidates")),
    "relations.classes": ("count", _counter("classes")),
    "relations.accept_ratio": ("ratio", _ratio(_counter("classes"), _counter("candidates"))),
    "relations.class_size_calls": ("count", _calls("relations.class_size")),
    "relations.class_size_s": ("s", _self("relations.class_size")),
    "relations.representative_calls": ("count", _calls("relations.representative")),
    "relations.representative_s": ("s", _self("relations.representative")),
    "graphs.trajectory_count_calls": ("count", _calls("graphs.trajectory_count")),
    "graphs.trajectory_count_s": ("s", _self("graphs.trajectory_count")),
    "graphs.bareiss_calls": ("count", _calls("graphs._bareiss_det")),
    "graphs.bareiss_s": ("s", _self("graphs._bareiss_det")),
    "graphs.euler_walk_s": ("s", _self("graphs.eulerian_trajectories")),
    "relations.type_of_calls": ("count", _calls("relations.type_of")),
    "relations.type_of_s": ("s", _self("relations.type_of")),
    "reduction.check_exchangeable_s": ("s", _self("reduction.check_exchangeable")),
    "reduction.decompose_s": ("s", _self("reduction.decompose")),
    "reduction.alpha_tight_calls": ("count", _calls("reduction.alpha_tight")),
    "reduction.alpha_tight_s": ("s", _self("reduction.alpha_tight")),
    "reduction.alpha_analytic_s": ("s", _self("reduction.alpha_analytic")),
    "cli.command_self_s": ("s", _self_layer("cli")),
    "serialize.to_json_s": ("s", _self_layer("serialize", exclude=("serialize.dumps",))),
    "serialize.dumps_s": ("s", _self("serialize.dumps")),
    "serialize.output_bytes": ("bytes", _counter("output_bytes")),
    "core.marginal_s": ("s", _self("core.marginal")),
    "core.project_word_calls": ("count", _calls("core.project_word")),
    "conditional.verify_self_s": ("s", _self("conditional.verify_conditional_reduction")),
    "games.classical_value_s": ("s", _self("games.classical_value")),
    "games.parallel_game_s": ("s", _self("games.parallel_game")),
    "games.sequential_game_s": ("s", _self("games.sequential_game")),
    "games.tensor_strategy_s": ("s", _self("games.tensor_strategy")),
    "games.symmetrize_s": ("s", _self("games.symmetrize_strategy")),
    "games.joint_weight_s": ("s", _self("games.joint_weight")),
    "games.bound_self_s": ("s", _self("games.definetti_upper_bound")),
}


# -- counts derived from arguments and results (computed outside exkit) -------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _on_pi(t, args, kwargs, result):
    if result:
        t.count("pi_nonzero")


def _on_fidelity(t, args, kwargs, result):
    if t.parent() == "games.definetti_upper_bound":
        t.count("bound_fidelities")
    pairs = _arg(args, kwargs, 0, "pairs")
    t.count("fidelity_pairs", len(pairs))
    t.count("fidelity_pairs_nonzero", sum(1 for r, m in pairs if r and m))
    t.count("fidelity_exact", result.lo == result.hi)


def _on_sqrt(t, args, kwargs, result):
    bits = _arg(args, kwargs, 1, "bits")
    t.counters["bits_final"] = max(t.counters.get("bits_final", 0), bits)


def _on_escalate(t, args, kwargs, result):
    if result is not None:
        t.count("escalations")


def _on_class_size(t, args, kwargs, result):
    # The enumeration loop sizes every candidate it visits.
    if t.parent() == "relations.enumerate_types":
        t.count("candidates")


def _on_enumerate(t, args, kwargs, result):
    t.count("classes", result.N)


def _on_check_exchangeable(t, args, kwargs, result):
    # Classes carrying the played weight W of a game bound.
    if t.parent() != "games.definetti_upper_bound":
        return
    w, relation = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "relation")
    kind = ("exchangeable",) if type(relation).__name__ == "Exchangeable" else ("markov",)
    factors = (w.alphabet.size,)
    t.count("support_classes", len({oracle.type_of(word, kind, factors) for word in w.support()}))


def _on_dumps(t, args, kwargs, result):
    t.count("output_bytes", len(result.encode()))


OBSERVERS = {
    "reduction.pi_value": _on_pi,
    "reduction.fidelity_sq_from_pairs": _on_fidelity,
    "intervals.sqrt_bounds": _on_sqrt,
    "intervals.escalate_bits": _on_escalate,
    "relations.class_size": _on_class_size,
    "relations.enumerate_types": _on_enumerate,
    "reduction.check_exchangeable": _on_check_exchangeable,
    "serialize.dumps": _on_dumps,
}


# -- the run ----------------------------------------------------------------------


def import_exkit() -> None:
    """Import exkit afresh from the checkout's src/, dropping earlier copies."""
    for name in [m for m in sys.modules if m == "exkit" or m.startswith("exkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    for name in ("exkit", "exkit.cli", "exkit.serialize"):
        module = importlib.import_module(name)
        if not Path(module.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"{name} was imported from {module.__file__}, not from src/")


def reference_work() -> Fraction:
    """Fixed pure-Python work of the kind exkit does (tuples, dicts, small
    Fractions); its CPU time gauges the host's current speed."""
    table: dict = {}
    for word in itertools.product(range(3), repeat=10):
        key = tuple(sorted(word))
        table[key] = table.get(key, 0) + 1
    total = Fraction(0)
    for key, count in table.items():
        p = Fraction(1)
        for letter in key:
            p *= Fraction(letter + 1, 10)
        total += p * count
    return total


def reference_time() -> float:
    t0 = process_time()
    reference_work()
    return process_time() - t0


def at_reference_speed(cpu: float, before: float, after: float) -> float:
    """CPU time ``cpu`` scaled by REFERENCE_S over the mean of the reference
    times taken just before and just after it."""
    return cpu * 2 * REFERENCE_S / (before + after)


class Record(NamedTuple):
    op: object
    time: float  # CPU seconds at the reference speed
    cpu: float
    wall: float
    index: int | None  # of the output among the op's distinct outputs
    error: str | None


def measure(workload, seconds: float) -> tuple[list[Record], dict, int, list]:
    """Whole rounds until the ops have taken ``seconds`` of wall time.

    Returns one record per op, for every op the distinct outputs it
    returned, the number of rounds and the reference times.  An output equal
    to an earlier one of the same op is dropped, so the memory held does not
    grow with the number of rounds.
    """
    references = [reference_time()]
    records = []
    outputs: dict = {}
    busy = 0.0
    rounds = 0
    while True:
        for op in workload.round_ops(rounds):
            w0, c0 = perf_counter(), process_time()
            try:
                output, error = op.run(), None
            except Exception as err:  # an op that raises is counted as failed
                output, error = None, f"{type(err).__name__}: {err}"
            cpu, wall = process_time() - c0, perf_counter() - w0
            busy += wall
            index = None
            if error is None:
                seen = outputs.setdefault(op, [])
                index = next((i for i, prior in enumerate(seen) if prior == output), len(seen))
                if index == len(seen):
                    seen.append(output)
                del output  # hold no reference while the next op runs
            references.append(reference_time())
            scaled = at_reference_speed(cpu, references[-2], references[-1])
            records.append(Record(op, scaled, cpu, wall, index, error))
        rounds += 1
        if busy >= seconds:
            return records, outputs, rounds, references


def _typical_times(records: list[Record]) -> dict:
    times: dict = {}
    for r in records:
        times.setdefault(r.op.label, []).append(r.time)
    return {label: statistics.median(values) for label, values in times.items()}


def run(name: str, seed: int, seconds: float, traced: bool, setups: int = SETUPS,
        tiny: bool = False) -> tuple[dict, dict]:
    """One run; returns the result line and the detail written to out/."""
    if not (ROOT / "src" / "exkit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no exkit sources under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workload = WORKLOADS[name](seed, Path(tmp), tiny)
        warmup = workload.warmup_op()
        setup_times = []
        setup_references = [reference_time()]
        for _ in range(setups):
            # Each import leaves the previous copy of exkit behind as garbage;
            # collecting it here keeps that cost out of the next set-up.
            gc.collect()
            t0 = process_time()
            import_exkit()
            warmup()
            cpu = process_time() - t0
            setup_references.append(reference_time())
            setup_times.append(at_reference_speed(cpu, *setup_references[-2:]))
        workload.prepare()

        # The harness's own inputs and oracles stay alive through the rounds;
        # frozen, they are not rescanned by every full collection of exkit's
        # garbage.
        gc.collect()
        gc.freeze()
        before = spans.snapshot()
        tracer = spans.Tracer(OBSERVERS) if traced else None
        wrapped = tracer.install() if tracer else []
        replaced = tracer.replaced_names if tracer else []
        try:
            records, outputs, rounds, references = measure(workload, seconds)
        finally:
            if tracer:
                tracer.restore()
            gc.unfreeze()
        unchanged = spans.snapshot() == before and not spans.traced_leftovers()
        if not unchanged:
            raise RuntimeError("exkit names were left replaced after the rounds")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed = incorrect = 0
        verdicts: dict = {}
        problems = []
        for op, _, _, _, index, error in records:
            if error is None:
                key = (op, index)
                if key not in verdicts:
                    try:
                        verdicts[key] = workload.check(op, outputs[op][index])
                    except Exception as err:  # an output the check cannot read is wrong
                        verdicts[key] = [f"check raised {type(err).__name__}: {err}"]
                errors = verdicts[key]
                incorrect += bool(errors)
            else:
                errors = [error]
            failed += bool(errors)
            problems += [f"{op.label}: {e}" for e in errors]

    # Per op (label): the median of its times over the rounds, so that a
    # spell of host noise in one round does not move the run's figures.
    typical = _typical_times(records)
    good = {op.label: op.n for op, _, _, _, index, error in records
            if error is None and not verdicts[(op, index)]}
    if traced:
        metrics = {key: {"value": value(tracer, rounds), "unit": unit}
                   for key, (unit, value) in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_median_s": statistics.median(typical.values()),
            "classes_per_s": (sum(good.values()) / sum(typical[label] for label in good)
                              if good else 0.0),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    result = {"correct": incorrect == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "rounds": rounds, "setup_times_s": setup_times, "setup_reference_s": setup_references,
        "reference_s": references, "problems": problems,
        "ops": [{"label": r.op.label, "seconds": r.time, "cpu_s": r.cpu, "wall_s": r.wall,
                 "classes": r.op.n} for r in records],
        "op_median_s": statistics.median(typical.values()), "result": result,
    }
    if tracer:
        detail["wrapped"] = wrapped
        detail["replaced"] = replaced
        detail["functions"] = {
            key: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for key, s in sorted(tracer.stats.items()) if s.calls
        }
        detail["counters"] = tracer.counters
    kind = "trace" if traced else "result"
    (OUT / f"{kind}-{name}-seed{seed}.json").write_text(json.dumps(detail, indent=1))
    for line in problems:
        print(line, file=sys.stderr)
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
