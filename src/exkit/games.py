"""Two-player non-local games: exact classical values, repetition, reduction bounds.

A game is an input law T on X x Y plus a winning predicate V on X x Y x A x B.
Classical values are exact maxima over deterministic strategy pairs (shared
randomness cannot beat the maximum by convexity).  Repeating a game n times,
in parallel (i.i.d. inputs) or sequentially (Markov inputs), makes the joint
weight T(xy) * S(ab|xy) a distribution on (X x Y x A x B)^n that inherits the
round symmetry, so the flexible reduction machinery upper-bounds the winning
probability by a mixture of per-round i.i.d. / Markov surrogates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import Alphabet, DEFAULT_ENUM_CAP, FiniteDistribution, Word, ZERO, ONE
from .errors import BadParams, CapExceeded, DimensionMismatch, KernelNotStationary
from .intervals import DEFAULT_BITS, IntervalScalar
from .reduction import Fidelities, alpha_analytic, alpha_tight, decompose
from .relations import EXCHANGEABLE, MARKOV, Relation


@dataclass(frozen=True)
class Game:
    inputs_x: tuple
    inputs_y: tuple
    outputs_a: tuple
    outputs_b: tuple
    input_law: Mapping[tuple, Fraction]  # keyed (x, y), sums to 1
    predicate: frozenset  # accepted (x, y, a, b) tuples

    def __post_init__(self) -> None:
        law = {k: Fraction(v) for k, v in self.input_law.items()}
        if sum(law.values(), ZERO) != ONE or any(v < 0 for v in law.values()):
            raise BadParams("input law must be a probability distribution")
        object.__setattr__(self, "input_law", law)
        object.__setattr__(self, "predicate", frozenset(self.predicate))

    @property
    def axes(self) -> tuple:
        """One round's input and output sets: X, Y, A, B."""
        return (self.inputs_x, self.inputs_y, self.outputs_a, self.outputs_b)

    def law(self, x, y) -> Fraction:
        return self.input_law.get((x, y), ZERO)

    def wins(self, x, y, a, b) -> bool:
        return (x, y, a, b) in self.predicate


def _distribution_rows(table: Mapping, what: str) -> dict:
    """``table``'s rows with Fraction values and no zeros; BadParams naming
    ``what`` and the row's key at a row that is not a distribution."""
    clean = {}
    for key, row in table.items():
        row = {k: Fraction(v) for k, v in row.items() if Fraction(v)}
        if sum(row.values(), ZERO) != ONE or any(v < 0 for v in row.values()):
            raise BadParams(f"{what} at {key} is not a distribution")
        clean[key] = row
    return clean


@dataclass(frozen=True)
class Strategy:
    """Conditional law P(a, b | x, y): one output distribution per input pair."""

    table: Mapping[tuple, Mapping[tuple, Fraction]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _distribution_rows(self.table, "strategy slice"))


def deterministic_strategy(game: Game, f: Mapping, g: Mapping) -> Strategy:
    """Local strategy from Alice's table f: X -> A and Bob's g: Y -> B."""
    return Strategy(
        {
            (x, y): {(f[x], g[y]): ONE}
            for x in game.inputs_x
            for y in game.inputs_y
        }
    )


def winning_probability(game: Game, strategy: Strategy) -> Fraction:
    total = ZERO
    for (x, y), t in game.input_law.items():
        if not t:
            continue
        row = strategy.table.get((x, y))
        if row is None:
            raise DimensionMismatch(f"strategy has no slice for input {(x, y)}")
        for (a, b), p in row.items():
            if game.wins(x, y, a, b):
                total += t * p
    return total


def classical_value(game: Game, cap: int = DEFAULT_ENUM_CAP) -> tuple[Fraction, Strategy]:
    """Exact max over deterministic strategy pairs, with an achieving witness.

    For each of Bob's tables g, Alice's best reply picks, input by input, the
    first output of maximal score: the score is a sum over x, so that reply
    is the lexicographically first optimal f.  The witness is the first
    (g, f) of maximal score in lexicographic order.  The work, |B|^|Y| |X| |A|
    scored (table, input, output) triples, is what ``cap`` bounds.
    """
    work = (
        len(game.outputs_b) ** len(game.inputs_y) * len(game.inputs_x) * len(game.outputs_a)
    )
    if work > cap:
        raise CapExceeded(f"{work} best-response evaluations exceed cap {cap}")
    law_by_x: dict = {x: [] for x in game.inputs_x}
    for (x, y), t in game.input_law.items():
        if t:
            law_by_x[x].append((y, t))
    best: Optional[tuple[Fraction, dict, dict]] = None
    for g_choice in itertools.product(game.outputs_b, repeat=len(game.inputs_y)):
        g = dict(zip(game.inputs_y, g_choice))
        f, score = {}, ZERO
        for x in game.inputs_x:
            gains = [
                sum((t for y, t in law_by_x[x] if game.wins(x, y, a, g[y])), ZERO)
                for a in game.outputs_a
            ]
            best_gain = max(gains)
            f[x] = game.outputs_a[gains.index(best_gain)]
            score += best_gain
        if best is None or score > best[0]:
            best = (score, f, g)
    assert best is not None
    return best[0], deterministic_strategy(game, best[1], best[2])


def _check_repeated_size(game: Game, n: int, cap: int) -> None:
    """CapExceeded when the n-round plays, (|X||Y||A||B|)^n, exceed ``cap``."""
    if math.prod(map(len, game.axes)) ** n > cap:
        raise CapExceeded("repeated game exceeds enumeration cap")


@dataclass(frozen=True)
class SequentialKernel:
    """Transition kernel on input pairs; rows over the next pair sum to 1.

    Against a game's input law T the stationarity constraint
    sum_prev T(prev) K(prev -> next) = T(next) is required, i.e. the edge
    measure T(prev) K(prev -> next) has both marginals equal to T.
    """

    rows: Mapping[tuple, Mapping[tuple, Fraction]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", _distribution_rows(self.rows, "kernel row"))

    def prob(self, prev: tuple, nxt: tuple) -> Fraction:
        return self.rows.get(prev, {}).get(nxt, ZERO)

    def check_stationary(self, game: Game) -> None:
        pairs = [(x, y) for x in game.inputs_x for y in game.inputs_y]
        for nxt in pairs:
            total = sum((game.law(*prev) * self.prob(prev, nxt) for prev in pairs), ZERO)
            if total != game.law(*nxt):
                raise KernelNotStationary(
                    f"sum_prev T(prev) K(prev, {nxt}) = {total} != T{nxt}"
                )


def iid_kernel(game: Game) -> SequentialKernel:
    """Every supported input pair moves to the next by T itself."""
    law = {xy: t for xy, t in game.input_law.items() if t}
    return SequentialKernel({prev: law for prev in law})


def sequential_game(
    game: Game, kernel: SequentialKernel, n: int, cap: int = DEFAULT_ENUM_CAP
) -> Game:
    """n sequential rounds: first input pair from T, later pairs from the
    kernel; win iff every round's predicate holds."""
    if n < 1:
        raise BadParams("n must be >= 1")
    kernel.check_stationary(game)
    if n == 1:
        return game
    _check_repeated_size(game, n, cap)
    xs, ys, as_, bs = (tuple(itertools.product(axis, repeat=n)) for axis in game.axes)
    law = {}
    for xt in xs:
        for yt in ys:
            pairs = list(zip(xt, yt))
            value = game.law(*pairs[0])
            for prev, nxt in zip(pairs, pairs[1:]):
                if not value:
                    break
                value *= kernel.prob(prev, nxt)
            if value:
                law[(xt, yt)] = value
    predicate = frozenset(
        (xt, yt, at, bt)
        for xt in xs
        for yt in ys
        for at in as_
        for bt in bs
        if all(game.wins(x, y, a, b) for x, y, a, b in zip(xt, yt, at, bt))
    )
    return Game(xs, ys, as_, bs, law, predicate)


def parallel_game(game: Game, n: int, cap: int = DEFAULT_ENUM_CAP) -> Game:
    """n parallel rounds: i.i.d. inputs, the sequential game under ``iid_kernel``."""
    return sequential_game(game, iid_kernel(game), n, cap)


# -- bridging to the reduction machinery -------------------------------------------


def _round_alphabet(game: Game) -> Alphabet:
    sizes = tuple(map(len, game.axes))
    return Alphabet(math.prod(sizes), sizes)


def _letter_of(game: Game):
    """The map from one round's play (x, y, a, b) to its round-alphabet letter."""
    alphabet = _round_alphabet(game)
    index = [{v: i for i, v in enumerate(axis)} for axis in game.axes]
    return lambda play: alphabet.pack(tuple(ix[v] for ix, v in zip(index, play)))


def joint_weight(
    game: Game, repeated: Game, strategy: Strategy, n: int
) -> FiniteDistribution:
    """Distribution of one play on (X x Y x A x B)^n: input law times strategy."""
    letter = _letter_of(game)
    entries: dict[Word, Fraction] = {}
    for (xt, yt), t in repeated.input_law.items():
        if not t:
            continue
        for (at, bt), p in strategy.table.get((xt, yt), {}).items():
            if not p:
                continue
            plays = [(xt, yt, at, bt)] if n == 1 else zip(xt, yt, at, bt)
            word = tuple(map(letter, plays))
            entries[word] = entries.get(word, ZERO) + t * p
    return FiniteDistribution(_round_alphabet(game), n, entries)


@dataclass(frozen=True)
class BoundRow:
    descriptor: object
    fidelity_sq: IntervalScalar
    predicate_weight: Fraction  # <V^(x)n, pi_k> = pi_k(pred^n)


@dataclass(frozen=True)
class BoundReport:
    mode: str
    n: int
    bound: IntervalScalar
    bound_ge_winning: Optional[bool]  # bound.certainly_ge(winning) on the exact bound
    winning: Fraction
    alpha_certified: Fraction  # max per-class tight ratio, used in the bound
    prefactor_certified: IntervalScalar  # N * alpha_certified^2
    prefactor_analytic: Optional[IntervalScalar]  # N * alpha(n)^2, None where undefined
    degree: Optional[int]
    rows: tuple[BoundRow, ...]
    repeated: Game  # the repeated game played, for its classical value


def definetti_upper_bound(
    game: Game,
    n: int,
    strategy: Strategy,
    mode: str = "parallel",
    kernel: Optional[SequentialKernel] = None,
    bits: int = DEFAULT_BITS,
    cap: int = DEFAULT_ENUM_CAP,
) -> BoundReport:
    """Certified upper bound on the winning probability of an invariant strategy.

    Evaluates N * alpha^2 * sum_k (1/N) F(W, pi_k)^2 <V, pi_k> with W the
    played joint weight, using the exact max per-class ratio as alpha so the
    bound is a true upper bound at every n; the closed-form analytic
    pre-factor and its polynomial degree are reported alongside, or None
    where the closed form is undefined (sequential mode at n = 1).
    """
    if mode == "parallel":
        if kernel is not None:
            raise BadParams("parallel mode takes no kernel; a kernel needs sequential mode")
        repeated = parallel_game(game, n, cap)
        relation: Relation = EXCHANGEABLE
    elif mode == "sequential":
        if kernel is None:
            raise BadParams("sequential mode needs a kernel")
        repeated = sequential_game(game, kernel, n, cap)
        relation = MARKOV
    else:
        raise BadParams(f"unknown mode {mode!r}")

    alphabet = _round_alphabet(game)
    w = joint_weight(game, repeated, strategy, n)
    decomp = decompose(w, relation, cap)  # raises NotExchangeable with witness
    descriptors = decomp.index.descriptors()

    # <V^(x)n, pi_k> = pi_k(pred^n): the win predicate is an AND over rounds.
    predicate_letters = frozenset(map(_letter_of(game), game.predicate))
    fids = Fidelities(decomp, bits)
    rows = [
        BoundRow(descr, fids.printed[k], descr.pi_mass(predicate_letters))
        for k, descr in enumerate(descriptors)
    ]

    alpha_cert = max(alpha_tight(d, n) for d in descriptors)
    alpha_sq = alpha_cert * alpha_cert
    winning = winning_probability(repeated, strategy)
    bound = fids.combination(
        (
            (k, row.predicate_weight.numerator, row.predicate_weight.denominator)
            for k, row in enumerate(rows)
        ),
        IntervalScalar.exact(alpha_sq, bits),
    )

    try:
        analytic = alpha_analytic(relation, n, alphabet, bits)
    except BadParams:  # the closed form is undefined for l-Markov at n <= l
        prefactor = degree = None
    else:
        prefactor, degree = analytic.squared * decomp.index.N, analytic.degree
    return BoundReport(
        mode=mode,
        n=n,
        bound=bound.interval(),
        bound_ge_winning=bound.certainly_ge(winning),
        winning=winning,
        alpha_certified=alpha_cert,
        prefactor_certified=IntervalScalar.exact(decomp.index.N * alpha_sq, bits),
        prefactor_analytic=prefactor,
        degree=degree,
        rows=tuple(rows),
        repeated=repeated,
    )


def tensor_strategy(
    game: Game, strategy: Strategy, n: int, cap: int = DEFAULT_ENUM_CAP
) -> Strategy:
    """Play the same single-round strategy independently in every round.

    Its rows and entries are bounded by the repeated game's plays, so it
    raises CapExceeded where ``parallel_game`` does."""
    if n == 1:
        return strategy
    _check_repeated_size(game, n, cap)
    table: dict[tuple, dict[tuple, Fraction]] = {}
    for xt in itertools.product(game.inputs_x, repeat=n):
        for yt in itertools.product(game.inputs_y, repeat=n):
            row: dict[tuple, Fraction] = {}
            rounds = [strategy.table[(x, y)] for x, y in zip(xt, yt)]
            for combo in itertools.product(*(r.items() for r in rounds)):
                value = ONE
                for _, p in combo:
                    value *= p
                if value:
                    at = tuple(ab[0] for ab, _ in combo)
                    bt = tuple(ab[1] for ab, _ in combo)
                    row[(at, bt)] = row.get((at, bt), ZERO) + value
            table[(xt, yt)] = row
    return Strategy(table)


def chsh_game() -> Game:
    """CHSH: uniform inputs on {0,1}^2, win iff a xor b == x and y."""
    quarter = Fraction(1, 4)
    law = {(x, y): quarter for x in (0, 1) for y in (0, 1)}
    predicate = frozenset(
        (x, y, a, b)
        for x in (0, 1)
        for y in (0, 1)
        for a in (0, 1)
        for b in (0, 1)
        if (a ^ b) == (x & y)
    )
    return Game((0, 1), (0, 1), (0, 1), (0, 1), law, predicate)
