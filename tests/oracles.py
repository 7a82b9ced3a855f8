"""Test support: brute-force oracles and word-level views of exkit's classes.

No certifier or CLI path needs anything here.  The certifiers count classes
on the count tensor (``graphs.trajectory_count``), read P through its class
table (``reduction.decompose``) and compare class by class; these are the
explicit counterparts the tests check them against at small n:

* the class multigraph and its Eulerian and Matrix-Tree facts, with
  brute-force walk and in-tree counts;
* grouping every d^n word by its descriptor;
* pi_k, Q_k marginals and fidelities materialized word by word;
* the symmetrization of a played strategy over the classes;
* a pointwise comparison p <= c q checked word by word;
* the entries ``FiniteDistribution`` keeps, by its word-at-a-time first
  definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from exkit.conditional import X_FACTOR
from exkit.core import DEFAULT_ENUM_CAP, ONE, ZERO, Alphabet, FiniteDistribution, Word, marginal
from exkit.errors import (
    BadWordLength,
    CapExceeded,
    DimensionMismatch,
    EmptyClass,
    ExkitError,
    SumNotOne,
)
from exkit.games import Game, Strategy, _round_alphabet, joint_weight
from exkit.graphs import _bareiss_det, gram_rank
from exkit.intervals import DEFAULT_BITS, IntervalScalar
from exkit.reduction import fidelity_sq_from_pairs, uniform_class_dist
from exkit.relations import EXCHANGEABLE, Relation, TypeDescriptor, class_size, type_of

Matrix = tuple[tuple[int, ...], ...]


class NoValidEnd(ExkitError):
    """A count tensor whose degrees admit no trail from its start gram."""


# -- the class multigraph ----------------------------------------------------------


@dataclass(frozen=True)
class DirectedMultigraph:
    """Vertex set {0..m-1} with M[i][j] parallel edges i -> j (loops allowed)."""

    m: int
    M: Matrix

    def __post_init__(self) -> None:
        M = tuple(tuple(row) for row in self.M)
        if len(M) != self.m or any(len(row) != self.m for row in M):
            raise ValueError("multiplicity matrix must be m x m")
        if any(x < 0 for row in M for x in row):
            raise ValueError("edge multiplicities must be nonnegative")
        object.__setattr__(self, "M", M)

    @property
    def edge_count(self) -> int:
        return sum(sum(row) for row in self.M)

    def outdeg(self, v: int) -> int:
        return sum(self.M[v])

    def indeg(self, v: int) -> int:
        return sum(self.M[i][v] for i in range(self.m))

    def add_edge(self, i: int, j: int) -> "DirectedMultigraph":
        rows = [list(row) for row in self.M]
        rows[i][j] += 1
        return DirectedMultigraph(self.m, tuple(tuple(r) for r in rows))


def is_eulerian(g: DirectedMultigraph) -> bool:
    """True iff g has an Eulerian cycle: balanced everywhere and connected
    on its non-isolated vertices."""
    if any(g.outdeg(v) != g.indeg(v) for v in range(g.m)):
        return False
    active = [v for v in range(g.m) if g.outdeg(v)]
    if not active:
        return True
    seen = {active[0]}
    stack = [active[0]]
    while stack:
        v = stack.pop()
        for u in range(g.m):
            if u not in seen and (g.M[v][u] or g.M[u][v]):
                seen.add(u)
                stack.append(u)
    return all(v in seen for v in active)


def arborescence_count(g: DirectedMultigraph, root: int) -> int:
    """Number of spanning in-trees oriented toward ``root``.

    Orientation convention: every non-root vertex has exactly one outgoing
    tree edge, on a path reaching the root.  Computed as the determinant of
    the out-degree Laplacian with the root row and column deleted (loops
    cancel out of the Laplacian).
    """
    if not 0 <= root < g.m:
        raise ValueError("root out of range")
    idx = [v for v in range(g.m) if v != root]
    lap = [
        [(g.outdeg(i) if i == j else 0) - g.M[i][j] for j in idx]
        for i in idx
    ]
    return _bareiss_det(lap)


def spanning_in_trees_bruteforce(g: DirectedMultigraph, root: int) -> int:
    """Oracle for arborescence_count: sum over out-edge choices per non-root
    vertex of the product of multiplicities, keeping only choice maps whose
    paths all reach the root without cycling."""
    others = [v for v in range(g.m) if v != root]
    total = 0
    for targets in itertools.product(range(g.m), repeat=len(others)):
        weight = 1
        choice = dict(zip(others, targets))
        for v, t in choice.items():
            weight *= g.M[v][t]
            if weight == 0:
                break
        if weight == 0:
            continue
        ok = True
        for v in others:
            seen = set()
            cur = v
            while cur != root:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = choice[cur]
            if not ok:
                break
        if ok:
            total += weight
    return total


def eulerian_trajectory_count_bruteforce(
    g: DirectedMultigraph, start: int, cap: int = 16
) -> int:
    """Number of distinct vertex sequences of open walks from ``start`` that
    consume every edge of g exactly once (parallel edges are indistinct).

    This is the membership oracle for Markov-style class sizes; the edge
    count is capped because the recursion is exponential in the worst case.
    """
    if g.edge_count > cap:
        raise CapExceeded(f"{g.edge_count} edges exceed brute-force cap {cap}")
    memo: dict[tuple, int] = {}

    def walk(cur: int, remaining: Matrix) -> int:
        total_left = sum(sum(row) for row in remaining)
        if total_left == 0:
            return 1
        key = (cur, remaining)
        if key in memo:
            return memo[key]
        count = 0
        for j in range(g.m):
            if remaining[cur][j]:
                rows = [list(r) for r in remaining]
                rows[cur][j] -= 1
                count += walk(j, tuple(tuple(r) for r in rows))
        memo[key] = count
        return count

    return walk(start, g.M)


def transition_graph(descriptor, n: int):
    """Class multigraph of a Markov / l-Markov descriptor at word length n.

    Returns (graph, start_vertex, end_vertex, augmented_graph), the augmented
    graph adding one end -> start edge; vertices are the l-grams by
    row-major rank.  Raises NoValidEnd when the degrees admit no trail.
    """
    descriptor.check_length(n)
    if descriptor.end is None:
        raise NoValidEnd("degree imbalance admits no Eulerian trajectory")
    d, m = descriptor.d, len(descriptor.trans)
    # Row g's successors (g d + z) mod m, z < d, are consecutive columns.
    g = DirectedMultigraph(m, tuple(
        (0,) * (v * d % m) + row + (0,) * (m - v * d % m - d)
        for v, row in enumerate(descriptor.trans)
    ))
    start = gram_rank(descriptor.start, d)
    return g, start, descriptor.end, g.add_edge(descriptor.end, start)


# -- classes word by word ------------------------------------------------------------


def brute_force_index(
    relation: Relation, alphabet: Alphabet, n: int, cap: int = DEFAULT_ENUM_CAP
) -> dict[TypeDescriptor, list[Word]]:
    """Oracle: group all d^n words by descriptor (for cross-checking formulas)."""
    groups: dict[TypeDescriptor, list[Word]] = {}
    for word in alphabet.words(n, cap):
        groups.setdefault(type_of(word, relation, alphabet), []).append(word)
    return groups


def pi_value(descriptor: TypeDescriptor, word: Word, n: int) -> Fraction:
    """Value of the empirical comparison distribution pi_k at one word: the
    descriptor's ``pi_at`` on the word's type.

    Never-visited states (zero row sums) get a uniform kernel row; class
    members never traverse such a row, so certified quantities are unaffected.
    """
    word = tuple(word)
    return descriptor.pi_at(descriptor.relation().type_of(word, descriptor.alphabet()))


def empirical_pi(
    descriptor: TypeDescriptor,
    n: int,
    cap: int = DEFAULT_ENUM_CAP,
    alphabet: Optional[Alphabet] = None,
) -> FiniteDistribution:
    """Materialized pi_k over V^n (sparse on its support)."""
    if class_size(descriptor, n) == 0:
        raise EmptyClass(f"{descriptor} is realized by no word of length {n}")
    alphabet = alphabet or descriptor.alphabet()
    entries = {}
    for word in alphabet.words(n, cap):
        v = pi_value(descriptor, word, n)
        if v:
            entries[word] = v
    return FiniteDistribution(alphabet, n, entries)


def _same_shape(p: FiniteDistribution, q: FiniteDistribution) -> None:
    if p.alphabet.size != q.alphabet.size or p.n != q.n:
        raise DimensionMismatch(
            f"shape ({p.alphabet.size}, {p.n}) vs ({q.alphabet.size}, {q.n})"
        )


def fidelity_squared(
    p: FiniteDistribution, q: FiniteDistribution, bits: int = DEFAULT_BITS
) -> IntervalScalar:
    """F(P,Q)^2 with F(P,Q) = sum_z sqrt(P(z) Q(z))."""
    _same_shape(p, q)
    products: dict[Fraction, int] = {}
    for word, pv in p.entries.items():
        qv = q(word)
        if qv:
            r = pv * qv
            products[r] = products.get(r, 0) + 1
    return fidelity_sq_from_pairs(list(products.items()), bits)


def empirical_alpha_prime(
    descriptor, joint_alphabet: Alphabet, n: int, cap: int = DEFAULT_ENUM_CAP
) -> Fraction:
    """Tight ratio max pi_{k,X^n} / Q_{k,X^n} over the support of Q_{k,X^n}.

    For exchangeable joint types this never exceeds 1 (the marginal lemma);
    for Markov-family types the value is reported as observed, with no claim
    about its growth in n.
    """
    q_x = marginal(uniform_class_dist(descriptor, n, cap, alphabet=joint_alphabet), X_FACTOR)
    pi_x = marginal(empirical_pi(descriptor, n, cap, alphabet=joint_alphabet), X_FACTOR)
    return max(pi_x(x) / q_x(x) for x in q_x.support())


# -- strategies ----------------------------------------------------------------------


def _word_to_play(game: Game, word: Word, alphabet: Alphabet):
    """The x, y, a and b tuples of a word: the inverse of ``games._letter_of``."""
    plays = [
        tuple(axis[i] for axis, i in zip(game.axes, alphabet.unpack(letter)))
        for letter in word
    ]
    return tuple(zip(*plays))


def symmetrize_strategy(
    game: Game,
    repeated: Game,
    strategy: Strategy,
    relation: Relation = EXCHANGEABLE,
    cap: int = DEFAULT_ENUM_CAP,
) -> Strategy:
    """Average the played joint weight over the relation's classes on
    (X x Y x A x B)^n and re-condition on the averaged input marginal.

    Under the exchangeable relation the output is always an invariant
    conditional with the same winning probability (class-averaging is the
    symmetric-group average, which commutes with the input marginal).  Under
    the Markov relation that commutation can fail for large n, so invariance
    of the result is guaranteed only for inputs whose joint weight is already
    class-constant (e.g. tensor-power strategies, or any strategy at n = 2
    where Markov classes are singletons); definetti_upper_bound re-checks the
    property and raises NotExchangeable rather than proceeding silently.
    """
    # parallel_game and sequential_game return the base game itself at n = 1.
    n = 1 if repeated is game else len(repeated.inputs_x[0])
    alphabet = _round_alphabet(game)
    w = joint_weight(game, repeated, strategy, n)
    groups: dict = {}
    for word in alphabet.words(n, cap):
        groups.setdefault(type_of(word, relation, alphabet), []).append(word)
    averaged: dict[Word, Fraction] = {}
    for words in groups.values():
        total = sum((w(x) for x in words), ZERO)
        if total:
            share = total / len(words)
            for word in words:
                averaged[word] = share
    marg: dict[tuple, Fraction] = {}
    cond: dict[tuple, dict[tuple, Fraction]] = {}
    for word, value in averaged.items():
        xt, yt, at, bt = _word_to_play(game, word, alphabet)
        if n == 1:
            xt, yt, at, bt = xt[0], yt[0], at[0], bt[0]
        marg[(xt, yt)] = marg.get((xt, yt), ZERO) + value
        cond.setdefault((xt, yt), {})[(at, bt)] = value
    table: dict[tuple, dict[tuple, Fraction]] = {}
    uniform_row = None
    for xt in repeated.inputs_x:
        for yt in repeated.inputs_y:
            if (xt, yt) in cond:
                total = marg[(xt, yt)]
                table[(xt, yt)] = {
                    ab: v / total for ab, v in cond[(xt, yt)].items()
                }
            else:
                if uniform_row is None:
                    n_out = len(repeated.outputs_a) * len(repeated.outputs_b)
                    uniform_row = {
                        (at, bt): Fraction(1, n_out)
                        for at in repeated.outputs_a
                        for bt in repeated.outputs_b
                    }
                table[(xt, yt)] = uniform_row
    return Strategy(table)


# -- pointwise comparison --------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certified pointwise comparison."""

    kind: str  # "holds" | "fails" | "inconclusive"
    witness: Optional[Word] = None
    margin: Optional[Fraction] = None

    @property
    def holds(self) -> bool:
        return self.kind == "holds"

    @property
    def fails(self) -> bool:
        return self.kind == "fails"


HOLDS = Verdict("holds")
INCONCLUSIVE = Verdict("inconclusive")


def pointwise_dominates(
    c: IntervalScalar, q: FiniteDistribution, p: FiniteDistribution
) -> Verdict:
    """Certified check of the pointwise inequality p <= c * q.

    Holds requires p(w) <= c.lo * q(w) for every word; a failure witness has
    p(w) > c.hi * q(w).  Overlapping cases yield Inconclusive, which can only
    resolve (never flip) under higher precision for c.
    """
    _same_shape(p, q)
    inconclusive = False
    worst: Optional[tuple[Word, Fraction]] = None
    for word, pv in p.entries.items():
        qv = q(word)
        if pv > c.hi * qv:
            margin = pv - c.hi * qv
            if worst is None or margin > worst[1]:
                worst = (word, margin)
        elif pv > c.lo * qv:
            inconclusive = True
    if worst is not None:
        return Verdict("fails", witness=worst[0], margin=worst[1])
    if inconclusive:
        return INCONCLUSIVE
    return HOLDS


# -- distributions -----------------------------------------------------------------


def distribution_entries(alphabet: Alphabet, n: int, entries) -> dict[Word, Fraction]:
    """The entries ``FiniteDistribution(alphabet, n, entries)`` keeps, or its
    error: each word is checked letter by letter and each value converted
    with ``Fraction``, and the kept values are summed one ``Fraction`` add
    at a time."""
    if n < 1:
        raise BadWordLength("n must be >= 1")
    clean: dict[Word, Fraction] = {}
    for word, value in entries.items():
        word = tuple(word)
        alphabet.check_word(word, n)
        value = Fraction(value)
        if value < 0:
            raise SumNotOne(f"negative probability {value} at {word}")
        if value:
            clean[word] = value
    if sum(clean.values(), ZERO) != ONE:
        raise SumNotOne(f"entries sum to {sum(clean.values(), ZERO)}, expected 1")
    return clean
