"""The four workloads: their inputs, their ops and the checks on each output.

``warmup_op`` makes the inputs of one small op and returns the op, which
the timed set-ups run after each fresh import of exkit; its inputs are not
those of the rounds.  ``prepare`` then makes the rounds' inputs from the seed.
Both are the benchmark's own work and are not timed.  ``round_ops(r)`` gives
the ops of round r (every round runs the same operations), and ``check``
judges one op's output against computations made apart from exkit.  Ops call
exkit through module attributes looked up at call time, so a traced run sees
the tracer's wrappers and an untraced run sees exkit's own functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import oracle


def _cli_main(argv: list[str]) -> tuple[int, str]:
    """``exkit <argv>`` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sys.modules["exkit.cli"].main(argv)
    return code, out.getvalue()


class Op:
    """One operation of a round.  ``n`` is the number of classes it
    certifies or lists, known from the benchmark's own arithmetic."""

    def __init__(self, label: str, run, n: int | None = None, **info) -> None:
        self.label = label
        self.run = run
        self.n = n
        self.info = info


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def warmup_op(self):
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, output) -> list[str]:
        raise NotImplementedError


def _parse_cli(output, errors: list[str]):
    code, text = output
    if code != 0:
        errors.append(f"exit code {code}")
        return None
    return json.loads(text)


# -- flexible -----------------------------------------------------------------


class Flexible(Workload):
    """``exkit certify`` (analytic alpha) on seeded random relation-invariant
    P with every class in the support."""

    name = "flexible"
    CASES = [
        # label, relation, factors, n, certify flags
        ("markov-d3-n6", ("markov",), (3,), 6, ["--relation", "markov"]),
        ("lmarkov2-d2-n8", ("lmarkov", 2), (2,), 8, ["--relation", "lmarkov", "--ell", "2"]),
        ("exchangeable-d4-n6", ("exchangeable",), (4,), 6, ["--relation", "exchangeable"]),
        ("exchangeable-x-markov-2x2-n4", ("product", (("exchangeable",), ("markov",))),
         (2, 2), 4, ["--relation", "product", "--product", "exchangeable,markov"]),
    ]
    TINY = {"markov-d3-n6": 4, "lmarkov2-d2-n8": 4, "exchangeable-d4-n6": 3,
            "exchangeable-x-markov-2x2-n4": 2}
    WARMUP = ("warmup-markov-d2-n4", ("markov",), (2,), 4, ["--relation", "markov"])
    SAMPLE = 6  # classes per case whose fidelity is recomputed with mpmath

    def _make(self, case):
        label, relation, factors, n, flags = case
        rng = random.Random(f"{self.name}:{self.seed}:{label}")
        groups = oracle.group_words(relation, factors, n)
        per_word = oracle.invariant_distribution(groups, rng)
        path = self.workdir / f"{label}.json"
        path.write_text(json.dumps(oracle.distribution_json(groups, per_word, factors, n)))
        sample = rng.sample(sorted(groups), min(self.SAMPLE, len(groups)))
        argv = ["certify", str(path)] + flags
        return Op(label, lambda: _cli_main(argv), len(groups),
                  groups=groups, per_word=per_word, sample=sample)

    def prepare(self) -> None:
        cases = self.CASES
        if self.tiny:
            cases = [(c[0], c[1], c[2], self.TINY[c[0]], c[4]) for c in cases]
        self.ops = [self._make(case) for case in cases]

    def warmup_op(self):
        return self._make(self.WARMUP).run

    def round_ops(self, r: int) -> list[Op]:
        return self.ops

    def check(self, op: Op, output) -> list[str]:
        import mpmath

        errors: list[str] = []
        cert = _parse_cli(output, errors)
        if cert is None:
            return errors
        if cert["verdict"] != "holds":
            errors.append(f"verdict {cert['verdict']}")
        groups, per_word = op.info["groups"], op.info["per_word"]
        records = {oracle.descriptor_from_json(c["type"]): c for c in cert["classes"]}
        sizes = {descr: c["size"] for descr, c in records.items()}
        if cert["N"] != len(groups) or sizes != {t: len(ws) for t, ws in groups.items()}:
            errors.append("classes or sizes differ from the brute-force grouping")
            return errors
        # F(P, pi_k)^2 = (sum_c |C_c| sqrt(P_c pi_k(c)))^2 with closed-form pi_k.
        mpmath.mp.dps = 60
        slack = mpmath.mpf(10) ** -45
        for k in op.info["sample"]:
            f = mpmath.mpf(0)
            for c, words in groups.items():
                r = per_word[c] * oracle.pi_at(k, c)
                if r:
                    f += len(words) * mpmath.sqrt(mpmath.mpf(r.numerator) / r.denominator)
            box = records[k]["fidelity_sq"]
            if not mpmath.mpf(box["lo"]) - slack <= f * f <= mpmath.mpf(box["hi"]) + slack:
                errors.append(f"fidelity_sq of {k} misses F(P, pi_k)^2 = {mpmath.nstr(f * f, 20)}")
        # The program's own re-check must reproduce the certificate bytes.
        path = self.workdir / f"{op.label}.cert.json"
        path.write_text(output[1])
        code, text = _cli_main(["certify", str(path), "--verify"])
        if code != 0 or json.loads(text).get("verified") is not True:
            errors.append(f"certify --verify did not reproduce the certificate (exit {code})")
        return errors


# -- conditional-stream ---------------------------------------------------------


class ConditionalStream(Workload):
    """``verify_conditional_reduction`` on a stream of seeded random
    exchangeable joints; each shape recurs in every round."""

    name = "conditional-stream"
    SHAPES = [(2, 2, 7), (3, 2, 5)]  # (|A|, |X|, n)
    TINY_SHAPES = [(2, 2, 3), (3, 2, 2)]
    WARMUP_SHAPE = (2, 2, 3)
    POOL = 4  # distinct joints per shape, cycled through the rounds
    SAMPLE = 3  # classes per op whose rhs_sum is recomputed

    def _entries(self, shape, count, tag):
        """Word -> probability of ``count`` seeded random exchangeable joints."""
        a, x, n = shape
        groups = oracle.group_words(("exchangeable",), (a, x), n)
        joints = []
        for i in range(count):
            rng = random.Random(f"{self.name}:{self.seed}:{tag}:{shape}:{i}")
            per_word = oracle.invariant_distribution(groups, rng)
            joints.append({w: p for descr, p in per_word.items() for w in groups[descr]})
        return joints

    @staticmethod
    def _joint(shape, entries):
        core = sys.modules["exkit.core"]
        a, x, n = shape
        return core.FiniteDistribution(core.Alphabet(a * x, (a, x)), n, entries)

    def prepare(self) -> None:
        shapes = self.TINY_SHAPES if self.tiny else self.SHAPES
        self.pool = []
        for shape in shapes:
            a, x, n = shape
            label = f"A{a}-X{x}-n{n}"
            rng = random.Random(f"{self.name}:{self.seed}:{label}:sample")
            classes = math.comb(n + a * x - 1, a * x - 1)
            sample = rng.sample(range(classes), min(self.SAMPLE, classes))
            self.pool.append([
                Op(label, self._verify(self._joint(shape, entries)), classes,
                   shape=shape, sample=sample)
                for entries in self._entries(shape, self.POOL, "stream")
            ])
        self.tables: dict[str, tuple] = {}

    @staticmethod
    def _verify(p):
        return lambda: sys.modules["exkit.conditional"].verify_conditional_reduction(p)

    def warmup_op(self):
        shape = self.WARMUP_SHAPE
        (entries,) = self._entries(shape, 1, "warmup")
        return lambda: self._verify(self._joint(shape, entries))()

    def round_ops(self, r: int) -> list[Op]:
        return [ops[r % self.POOL] for ops in self.pool]

    def check(self, op: Op, cert) -> list[str]:
        errors: list[str] = []
        a, x, n = op.info["shape"]
        if cert.verdict != "holds":
            errors.append(f"verdict {cert.verdict}")
        if cert.N != op.n:
            errors.append(f"N = {cert.N}, expected C(n + |A||X| - 1, |A||X| - 1) = {op.n}")
            return errors
        table = cert.universal_rhs_table()
        if self.tables.setdefault(op.label, table) != table:
            errors.append("universal_rhs_table differs between joints of one shape")
        # rhs_sum_c = sum_k pi_k(a,x) / pi_kX(x) over k with pi_kX(x) > 0,
        # with pi_k(c) = prod_z (t_kz/n)^t_cz and pi_kX its X-marginal type.
        counts = [rec.descriptor.counts for rec in cert.records]

        def x_marginal(t):
            return ("exchangeable", tuple(sum(t[ai * x + xi] for ai in range(a)) for xi in range(x)))

        for c in op.info["sample"]:
            tc = ("exchangeable", counts[c])
            total = Fraction(0)
            for tk in counts:
                sx = oracle.pi_at(x_marginal(tk), x_marginal(tc[1]))
                if sx:
                    total += oracle.pi_at(("exchangeable", tk), tc) / sx
            if total != cert.records[c].rhs_sum:
                errors.append(f"rhs_sum of class {counts[c]} is not the closed form {total}")
        tight = [rec.alpha_prime_tight for rec in cert.records]
        if max(tight) != 1:
            errors.append(f"alpha_prime_tight maximum is {max(tight)}, not 1")
        return errors


# -- chsh -------------------------------------------------------------------------


class Chsh(Workload):
    """``exkit game`` on CHSH: parallel n=2, sequential n=2 with the i.i.d.
    kernel, parallel n=3."""

    name = "chsh"
    RUNS = [("parallel", 2), ("sequential", 2), ("parallel", 3)]
    TINY_RUNS = [("parallel", 1), ("parallel", 2)]

    def warmup_op(self):
        # CHSH: uniform inputs, win iff a xor b == x and y (1-indexed in files).
        game = {
            "X": 2, "Y": 2, "A": 2, "B": 2,
            "T": {f"{x},{y}": "1/4" for x in (1, 2) for y in (1, 2)},
            "V": [[x + 1, y + 1, a + 1, b + 1]
                  for x in (0, 1) for y in (0, 1) for a in (0, 1) for b in (0, 1)
                  if a ^ b == x & y],
        }
        self.path = self.workdir / "chsh.json"
        self.path.write_text(json.dumps(game))
        return lambda: _cli_main(["game", str(self.path), "--n", "1"])

    def prepare(self) -> None:
        self.ops = []
        for mode, n in self.TINY_RUNS if self.tiny else self.RUNS:
            if mode == "parallel":  # exchangeable classes on 16 letters
                classes = math.comb(n + 15, 15)
            else:  # Markov classes on 16 letters
                classes = len(oracle.group_words(("markov",), (16,), n))
            argv = ["game", str(self.path), "--n", str(n), "--mode", mode]
            self.ops.append(Op(f"{mode}-n{n}", (lambda argv=argv: _cli_main(argv)),
                               classes, length=n))

    def round_ops(self, r: int) -> list[Op]:
        return self.ops

    def check(self, op: Op, output) -> list[str]:
        errors: list[str] = []
        report = _parse_cli(output, errors)
        if report is None:
            return errors
        n = op.info["length"]
        if report["classical_value"] != "3/4":
            errors.append(f"CHSH value {report['classical_value']}, expected 3/4")
        if n == 2 and report["repeated_value"] != "5/8":
            errors.append(f"CHSH^2 value {report['repeated_value']}, expected 5/8")
        win = Fraction(3, 4) ** n
        if report["strategy_winning"] != f"{win.numerator}/{win.denominator}":
            errors.append(f"tensor witness wins {report['strategy_winning']}, expected {win}")
        if report["bound_ge_winning"] is not True:
            errors.append("bound does not certify bound >= winning probability")
        if len(report["per_pi"]) != op.n:
            errors.append(f"{len(report['per_pi'])} classes, expected {op.n}")
        return errors


# -- classes ------------------------------------------------------------------------


class Classes(Workload):
    """``exkit classes`` for three Markov-family relations."""

    name = "classes"
    RUNS = [
        ("markov-d3-n8", ("markov",), 3, 8, ["--relation", "markov"]),
        ("lmarkov2-d2-n10", ("lmarkov", 2), 2, 10, ["--relation", "lmarkov", "--ell", "2"]),
        ("markov-d4-n6", ("markov",), 4, 6, ["--relation", "markov"]),
    ]
    TINY = {"markov-d3-n8": 4, "lmarkov2-d2-n10": 5, "markov-d4-n6": 3}

    def prepare(self) -> None:
        self.ops = []
        for label, relation, d, n, flags in self.RUNS:
            n = self.TINY[label] if self.tiny else n
            argv = ["classes", "--d", str(d), "--n", str(n)] + flags
            self.ops.append(Op(label, (lambda argv=argv: _cli_main(argv)),
                               relation=relation, d=d, length=n))

    def warmup_op(self):
        return lambda: _cli_main(["classes", "--relation", "markov", "--d", "2", "--n", "5"])

    def round_ops(self, r: int) -> list[Op]:
        return self.ops

    def check(self, op: Op, output) -> list[str]:
        errors: list[str] = []
        listing = _parse_cli(output, errors)
        if listing is None:
            return errors
        groups = oracle.group_words(op.info["relation"], (op.info["d"],), op.info["length"])
        op.n = len(groups)
        listed = {oracle.descriptor_from_json(c["type"]): c["size"] for c in listing["classes"]}
        if listing["N"] != len(groups) or listed != {t: len(ws) for t, ws in groups.items()}:
            errors.append("classes or sizes differ from the brute-force grouping")
        return errors


WORKLOADS = {w.name: w for w in (Flexible, ConditionalStream, Chsh, Classes)}
