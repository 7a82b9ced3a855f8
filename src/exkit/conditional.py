"""Universal conditional reductions for exchangeable joints on (A x X)^n.

Conditioning an exchangeable joint P on its X^n-marginal admits a universal
(P-independent) pointwise bound

    P(a|x) <= N * alpha(n) * alpha'(n) * sum_k (1/N) pi_k(a|x)

where the pi_k are the empirical i.i.d. distributions of the joint classes
and alpha'(n) compares pi_{k,X^n} against the X^n-marginal of the extreme
Q_k on its support.  For exchangeability that marginal is itself an extreme
X-class distribution (the marginal lemma), which pins alpha'(n) = 1; the
same lemma fails for Markov exchangeability, reproduced here as an explicit
counterexample.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .core import (
    Alphabet,
    ConditionalDistribution,
    DEFAULT_ENUM_CAP,
    FiniteDistribution,
    Word,
    ONE,
    dirac,
    marginal,
    project_word,
)
from .errors import NotConditionallyExchangeable, NotExchangeable, NotFactored
from .intervals import DEFAULT_BITS, IntervalScalar, run_with_escalation
from .reduction import (
    AlphaBound,
    Decomposition,
    alpha_analytic,
    check_exchangeable,
    decompose,
    pi_table,
    triage,
    uniform_class_dist,
)
from .relations import (
    EXCHANGEABLE,
    MARKOV,
    ExchangeableType,
    Relation,
    class_members,
    class_size,
    enumerate_types,
    type_of,
)

A_FACTOR = 0
X_FACTOR = 1


def _split_alphabet(joint: Alphabet) -> tuple[Alphabet, Alphabet]:
    if joint.factors is None or len(joint.factors) != 2:
        raise NotFactored("conditioning needs an alphabet factored as (A, X)")
    return Alphabet(joint.factors[A_FACTOR]), Alphabet(joint.factors[X_FACTOR])


def condition(p: FiniteDistribution) -> ConditionalDistribution:
    """Extract P(a | x) = P(a, x) / P_X(x) on inputs with positive marginal."""
    a_alpha, x_alpha = _split_alphabet(p.alphabet)
    p_x = marginal(p, X_FACTOR)
    by_input: dict[Word, dict[Word, Fraction]] = {}
    for word, value in p.entries.items():
        x_word = project_word(p.alphabet, word, X_FACTOR)
        a_word = project_word(p.alphabet, word, A_FACTOR)
        by_input.setdefault(x_word, {})[a_word] = value / p_x(x_word)
    slices = {
        x_word: FiniteDistribution(a_alpha, p.n, table)
        for x_word, table in by_input.items()
    }
    return ConditionalDistribution(x_alpha, a_alpha, p.n, slices)


def lift_conditional(
    pc: ConditionalDistribution,
    relation: Relation = EXCHANGEABLE,
    cap: int = DEFAULT_ENUM_CAP,
) -> FiniteDistribution:
    """Joint P'(a,x) = Q(x) P(a|x) with Q uniform over the conditional's
    input table, so that P' is relation-invariant and condition(P') == pc.

    Raises NotConditionallyExchangeable (with a witness pair) when pc is not
    constant across equivalent (a,x) pairs or its input table is not closed
    under the X-projection of the relation.
    """
    lifted = _lifted_joint(pc)
    with _conditional_witness():
        check_exchangeable(lifted, relation, cap)
    return lifted


@contextmanager
def _conditional_witness():
    """Report a lifted joint's invariance failure as the conditional's."""
    try:
        yield
    except NotExchangeable as err:
        raise NotConditionallyExchangeable(str(err), witness=err.witness) from None


def _lifted_joint(pc: ConditionalDistribution) -> FiniteDistribution:
    """``lift_conditional``'s joint, before its invariance check."""
    inputs = sorted(pc.inputs())
    if not inputs:
        raise NotConditionallyExchangeable("empty conditional table")
    d_a = pc.output_alphabet.size
    d_x = pc.input_alphabet.size
    joint = Alphabet(d_a * d_x, (d_a, d_x))
    weight = Fraction(1, len(inputs))
    entries: dict[Word, Fraction] = {}
    for x_word in inputs:
        dist = pc.slices[tuple(x_word)]
        for a_word, value in dist.entries.items():
            packed = tuple(
                joint.pack((a, x)) for a, x in zip(a_word, x_word)
            )
            entries[packed] = weight * value
    return FiniteDistribution(joint, pc.n, entries)


def marginal_type(joint_type: ExchangeableType, joint_alphabet: Alphabet) -> ExchangeableType:
    """X-type supporting the X^n-marginal of the extreme joint Q_type; the
    marginal is the uniform distribution on that X-class."""
    _, x_alpha = _split_alphabet(joint_alphabet)
    counts = [0] * x_alpha.size
    for letter, c in enumerate(joint_type.counts):
        counts[joint_alphabet.unpack(letter)[X_FACTOR]] += c
    return ExchangeableType(tuple(counts))


def class_marginal(decomp: Decomposition) -> dict[ExchangeableType, Fraction]:
    """P_X on each X-class sigma, from an exchangeable joint's class table: the
    X-marginal of Q_c is uniform on sigma_c = ``marginal_type`` of c (the
    marginal lemma), so P_X = M_sigma / |sigma| on sigma, with M_sigma the
    sum of mu_c over the c with sigma_c = sigma.  The sigma_c are read from
    the shape's ``universal_rhs``."""
    index = decomp.index
    mass: Counter[ExchangeableType] = Counter()
    for s, mu in zip(universal_rhs(index.alphabet, index.n).sigma, decomp.weights):
        mass[s] += mu
    return {s: m / class_size(s, index.n) for s, m in mass.items()}


@dataclass(frozen=True)
class CounterexampleReport:
    """The Markov marginal counterexample of a Dirac joint class whose
    X-marginal is not Markov exchangeable."""

    joint_sequence: tuple[tuple[int, int], ...]
    x_marginal_support: Word
    x_class_members: tuple[Word, ...]
    marginal_masses: tuple[Fraction, ...]
    marginal_is_markov_exchangeable: bool
    exchangeable_analogue_holds: bool


def markov_marginal_counterexample() -> CounterexampleReport:
    """Reproduce the (ax) = ((1,1),(1,2),(2,1),(2,1)) counterexample.

    The joint Markov class is the single sequence above, so the X-marginal is
    the Dirac mass at x = (1,2,1,1); the Markov X-class of x also contains
    (1,1,2,1), on which the marginal puts no mass.  The exchangeable analogue
    (the marginal lemma) is verified to hold on the same alphabet sizes.
    """
    pairs = ((0, 0), (0, 1), (1, 0), (1, 0))  # 0-indexed (a, x) letters
    joint = Alphabet(4, (2, 2))
    word = tuple(joint.pack(p) for p in pairs)
    joint_type = type_of(word, MARKOV, joint)
    assert class_size(joint_type, 4) == 1
    q_joint = dirac(joint, word)
    q_x = marginal(q_joint, X_FACTOR)
    x_word = project_word(joint, word, X_FACTOR)
    x_alpha = Alphabet(2)
    x_type = type_of(x_word, MARKOV, x_alpha)
    members = tuple(sorted(class_members(x_type, 4)))
    masses = tuple(q_x(m) for m in members)
    is_invariant = len(set(masses)) == 1

    exch_ok = True
    for n in range(1, 5):
        for descr, _ in enumerate_types(EXCHANGEABLE, joint, n).items:
            q = uniform_class_dist(descr, n, alphabet=joint)
            expected_type = marginal_type(descr, joint)
            got = marginal(q, X_FACTOR)
            size = class_size(expected_type, n)
            uniform_ok = all(v == Fraction(1, size) for v in got.entries.values())
            if not uniform_ok or len(got.entries) != size:
                exch_ok = False
    return CounterexampleReport(
        joint_sequence=pairs,
        x_marginal_support=x_word,
        x_class_members=members,
        marginal_masses=masses,
        marginal_is_markov_exchangeable=is_invariant,
        exchangeable_analogue_holds=exch_ok,
    )


@dataclass(frozen=True)
class ConditionalClassRecord:
    descriptor: ExchangeableType
    verdict: str  # "holds" | "fails" | "inconclusive" | "unsupported"
    rhs_sum: Fraction  # sum_k pi_k(a|x) on the class
    alpha_prime_used: Fraction
    alpha_prime_tight: Fraction  # class probability of the X-marginal, <= 1


@dataclass(frozen=True)
class ConditionalCertificate:
    a_size: int
    x_size: int
    n: int
    verdict: str
    alpha: AlphaBound
    prefactor: IntervalScalar  # N * alpha(n) * alpha'(n)
    records: tuple[ConditionalClassRecord, ...]
    bits: int

    @property
    def N(self) -> int:
        return len(self.records)

    def universal_rhs_table(self) -> tuple[tuple[tuple[int, ...], str], ...]:
        """P-independent payload: per class, the exact rational RHS sum.
        Byte-identical across every conditioned P on the same (A, X, n)."""
        return tuple(
            (rec.descriptor.counts, f"{rec.rhs_sum.numerator}/{rec.rhs_sum.denominator}")
            for rec in self.records
        )


# Shapes (A, X, n) whose universal right-hand side is kept, least recently
# used dropped first.
UNIVERSAL_RHS_SHAPES = 8


@dataclass(frozen=True)
class UniversalRHS:
    """The P-independent side of the conditional reduction on one (A, X, n),
    in class order: the class descriptors, sigma_k, the exact sums
    sum_k pi_k(a|x) and alpha'_tight per class."""

    descriptors: tuple[ExchangeableType, ...]
    sigma: tuple[ExchangeableType, ...]
    rhs_sums: tuple[Fraction, ...]
    alpha_prime_tight: tuple[Fraction, ...]


@lru_cache(maxsize=UNIVERSAL_RHS_SHAPES)
def universal_rhs(alphabet: Alphabet, n: int) -> UniversalRHS:
    """The universal right-hand side on the exchangeable classes of
    (alphabet)^n, built from the class index alone and kept for the last
    ``UNIVERSAL_RHS_SHAPES`` shapes.  Callers have already enumerated these
    classes within their cap (``decompose``), so the cap here is the exact
    number of candidate types."""
    index = enumerate_types(EXCHANGEABLE, alphabet, n, EXCHANGEABLE.candidate_count(alphabet, n))
    descriptors = tuple(index.descriptors())

    # X-marginal empirical types sigma_k of each pi_k (exact rationals).
    sigma = tuple(marginal_type(d, alphabet) for d in descriptors)

    # pi_k(a|x) = pi_k(c) / sigma_k(x_c).  Both are integer products over
    # n^n, so each term is prod_z t_{k,z}^t_{c,z} / prod_x s_{k,x}^s_{c,x};
    # the k sharing one sigma share the divisor, so their numerators are
    # summed first, over the k with pi_k(c) > 0 only, which have
    # sigma_k(x_c) > 0.
    by_column: list[Counter[ExchangeableType]] = [Counter() for _ in descriptors]
    for sigma_k, row in zip(sigma, pi_table(descriptors, descriptors)):
        for c, num, _ in row:
            by_column[c][sigma_k] += num
    rhs_sums = []
    for sigma_c, sums in zip(sigma, by_column):
        terms = [(num, sigma_k.pi_ratio(sigma_c)[0]) for sigma_k, num in sums.items()]
        den = math.lcm(*(s for _, s in terms))
        rhs_sums.append(Fraction(sum(num * (den // s) for num, s in terms), den))

    # alpha'_k: tight ratio pi_{k,X^n}/Q_{k,X^n} on the support, always <= 1
    # for exchangeability; the certificate uses the valid constant 1.
    alpha_prime_tight = tuple(class_size(x_type, n) * x_type.pi_at(x_type) for x_type in sigma)
    return UniversalRHS(descriptors, sigma, tuple(rhs_sums), alpha_prime_tight)


@lru_cache(maxsize=2 * UNIVERSAL_RHS_SHAPES)
def _scaled_rhs(
    alphabet: Alphabet, n: int, bits: int
) -> tuple[AlphaBound, IntervalScalar, tuple[IntervalScalar, ...]]:
    """alpha(n), the prefactor N alpha(n) and alpha(n) * rhs_sum per class
    on one (A, X, n) at ``bits``; two precisions per kept shape, the
    starting one and one escalation."""
    rhs = universal_rhs(alphabet, n)
    analytic = alpha_analytic(EXCHANGEABLE, n, alphabet, bits)
    return (
        analytic,
        analytic.value * len(rhs.descriptors),
        tuple(analytic.value * total for total in rhs.rhs_sums),
    )


def verify_conditional_reduction(
    p: Union[FiniteDistribution, ConditionalDistribution],
    bits: int = DEFAULT_BITS,
    cap: int = DEFAULT_ENUM_CAP,
) -> ConditionalCertificate:
    """Certify P(a|x) <= N alpha(n) alpha'(n) sum_k (1/N) pi_k(a|x) per class.

    Exchangeable relation only.  Both sides are constant on joint classes, so
    each class is checked once, from P's class table; classes whose inputs x
    lie outside the support of P_X are marked unsupported (the inequality is
    vacuous there).  A conditional input is lifted as by ``lift_conditional``
    and checked once, by ``decompose``.

    The right-hand side never depends on P: the class order, sigma_k, the
    exact RHS sums and alpha'_tight (``universal_rhs``) and, per precision,
    alpha(n), the prefactor and alpha(n) * rhs_sum are built from the
    alphabet and n alone, once per (A, X, n), and reused for every later
    joint of that shape; the last ``UNIVERSAL_RHS_SHAPES`` shapes are kept.
    P never enters those values, so a joint costs its ``decompose``, its
    class marginal and one comparison per class.
    """
    if isinstance(p, ConditionalDistribution):
        p = _lifted_joint(p)
        with _conditional_witness():
            decomp = decompose(p, EXCHANGEABLE, cap)
    else:
        decomp = decompose(p, EXCHANGEABLE, cap)
    a_alpha, x_alpha = _split_alphabet(p.alphabet)
    rhs = universal_rhs(p.alphabet, p.n)
    p_x = class_marginal(decomp)

    def attempt(bits: int) -> ConditionalCertificate:
        analytic, prefactor, scaled = _scaled_rhs(p.alphabet, p.n, bits)
        # LHS of class c: P(a|x) = (mu_c/|c|) / P_X(x_c); none where P_X(x_c) = 0.
        checks = [
            bound.certainly_ge(value / p_x[s]) if p_x[s] else "unsupported"
            for value, s, bound in zip(decomp.values, rhs.sigma, scaled)
        ]
        verdicts, overall = triage(checks)
        return ConditionalCertificate(
            a_size=a_alpha.size,
            x_size=x_alpha.size,
            n=p.n,
            verdict=overall,
            alpha=analytic,
            prefactor=prefactor,
            records=tuple(
                ConditionalClassRecord(descr, verdict, rhs_sum, ONE, tight)
                for descr, verdict, rhs_sum, tight in zip(
                    rhs.descriptors, verdicts, rhs.rhs_sums, rhs.alpha_prime_tight
                )
            ),
            bits=bits,
        )

    return run_with_escalation(attempt, bits)
