"""Extreme class distributions, analytic pre-factors and reduction certificates.

The flexible reduction bounds any relation-invariant P pointwise:

    P <= N * alpha(n)^2 * sum_k (1/N) F(P, pi_k)^2 pi_k

where the pi_k are the empirical i.i.d. / Markov / l-Markov comparison
distributions of the nonempty classes and alpha(n) dominates every per-class
ratio max Q_k/pi_k.  Both sides are constant on classes, so the certificate
reads P only through its class weights (``decompose``) and checks each class
once: an N-sized check instead of d^n.

P and pi values are exact rationals; fidelities and alpha(n) are carried as
outward-rounded intervals, so each per-class verdict is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .core import (
    Alphabet,
    DEFAULT_ENUM_CAP,
    FiniteDistribution,
    Word,
    ZERO,
)
from .errors import BadParams, CapExceeded, EmptyClass, NotExchangeable, WordTooShort
from .intervals import (
    DEFAULT_BITS,
    IntervalScalar,
    ceil_mul,
    floor_mul,
    grid_interval,
    guarded_bits,
    run_with_escalation,
    scaled_certainly_ge,
    sqrt_bounds,
)
from .relations import (
    ClassIndex,
    Relation,
    TypeDescriptor,
    class_members,
    class_size,
    enumerate_types,
    type_of,
)


def uniform_class_dist(
    descriptor: TypeDescriptor,
    n: int,
    cap: int = DEFAULT_ENUM_CAP,
    alphabet: Optional[Alphabet] = None,
) -> FiniteDistribution:
    """Q_k: uniform distribution on the class (an extreme point)."""
    size = class_size(descriptor, n)
    if size == 0:
        raise EmptyClass(f"{descriptor} is realized by no word of length {n}")
    members = class_members(descriptor, n, cap)
    p = Fraction(1, size)
    alphabet = alphabet or descriptor.alphabet()
    return FiniteDistribution(alphabet, n, {w: p for w in members})


def alpha_tight(descriptor: TypeDescriptor, n: int) -> Fraction:
    """Exact max over the class support of Q_k / pi_k (class-constant)."""
    size = class_size(descriptor, n)
    if size == 0:
        raise EmptyClass(f"{descriptor} is realized by no word of length {n}")
    num, den = descriptor.pi_ratio(descriptor)
    return Fraction(den, size * num)


# -- analytic pre-factor --------------------------------------------------------


@dataclass(frozen=True)
class AlphaBound:
    """Interval enclosure of the variant's analytic alpha(n), with the degree
    of the full polynomial pre-factor N * alpha(n)^2."""

    value: IntervalScalar
    squared: IntervalScalar
    degree: int


def alpha_analytic(
    relation: Relation, n: int, alphabet: Alphabet | int, bits: int = DEFAULT_BITS
) -> AlphaBound:
    """Enclosure of the closed-form alpha(n) for the relation variant.

    Computed from alpha(n)^2, which is rational times integer powers of e^2
    and 1/(2*pi) (for the Markov family, a max over such terms, enclosed by
    the max of the endpoints); the square root is the only extra step.

    Exchangeable: alpha(n)^2 = e^(2K) (n/K)^K / (2 pi n) with K = min(d, n).
    The class of counts t has ratio Q_k/pi_k = n^n prod t! / (n! prod t^t).
    By Stirling (below) for t! and n!, with e^-n and e^n cancelling, its
    square is at most e^(2k) prod_{t>0} t / (2 pi n) for k nonzero counts;
    by AM-GM prod t <= (n/k)^k, and k -> e^(2k) (n/k)^k increases up to
    k = K.  For n >= d this is the paper's e^(2d) n^(d-1) / (d^d 2 pi), which
    below undershoots: at d = 10, n = 2 the class of (1, 10) has ratio 2 and
    the paper's alpha is below 1.99.

    Markov family (Markov is the l = 1 case), for every n >= l + 1.  Write
    m = d^l for the number of states (l-grams), x = n - l for the number of
    transitions, t_{g,z} for the count of gram g followed by letter z,
    r_g = sum_z t_{g,z}, k for the number of nonzero cells and e for the
    end gram.  On the class pi_k = prod_{t > 0} (t_{g,z}/r_g)^t_{g,z}, so the
    exact ratio Q_k/pi_k is prod_g r_g^r_g / (|C| prod t^t).

    1. BEST.  Add the closing edge e -> start and let r~_v = r_v + [v = e].
       Then |C| = T * prod_v (r~_v - 1)! / prod t! over the visited vertices,
       with T >= 1 spanning in-trees.  Let S be the visited vertices other
       than e, so r_v >= 1 on S; there (r~_v - 1)! = r_v!/r_v, and at e it is
       r_e!.  Hence

           ratio <= prod_{t>0} t!/t^t * prod_{v in S} r_v^(r_v+1)/r_v!
                    * r_e^r_e/r_e!.

    2. Stirling (``stirling_bounds``): t! <= e t^(t+1/2) e^-t and
       r! >= sqrt(2 pi) r^(r+1/2) e^-r for t, r >= 1, and r^r/r! <= e^r
       (one term of the series of e^r).  The cells and the rows both sum to
       x, so the factors e^-x and e^x cancel:

           ratio <= e^k prod_{t>0} sqrt(t) * prod_{v in S} sqrt(r_v/(2 pi)).

    3. AM-GM.  The k positive cells sum to x, so prod t <= (x/k)^k, and
       k -> e^(2k) (x/k)^k increases for k <= e x; with k <= K = min(d m, x)
       this gives e^(2k) prod t <= e^(2K) (x/K)^K.  The s = |S| rows of S
       sum to at most x, with s <= min(m, x), so prod_S r_v/(2 pi) <=
       (x/(2 pi s))^s, and the empty product is 1.  Therefore

           alpha(n)^2 = e^(2K) (x/K)^K * max(1, max_{1<=s<=min(m,x)} (x/(2 pi s))^s)

       dominates the squared ratio of every nonempty class.

    s -> (x/(2 pi s))^s increases for s <= x/(2 pi e), so once
    x >= max(d m, 2 pi e m) the max sits at s = m, K = d m, and the value is
    the paper's e^(2dm) (x/(d m))^(d m) (x/(2 pi m))^m.  Below that threshold
    the paper's form applies AM-GM to empty cells and unvisited rows and can
    undershoot: at d = 2, n = 3 the Markov class of 001 has ratio 4 while the
    paper's alpha is below 2.17.  ``degree`` is the polynomial degree of
    N * alpha(n)^2 in that large-n regime.

    Cartesian products: classes, pi_k and the ratios factor, so alpha(n)^2 is
    the product of the factors' values and the degrees add.
    """
    if isinstance(alphabet, int):
        alphabet = Alphabet(alphabet)
    squared, degree = relation.alpha_squared(n, alphabet, bits)
    return AlphaBound(squared.sqrt(bits), squared, degree)


# -- fidelity ---------------------------------------------------------------------


def _is_square(x: Fraction) -> Optional[Fraction]:
    ns = math.isqrt(x.numerator)
    ds = math.isqrt(x.denominator)
    if ns * ns == x.numerator and ds * ds == x.denominator:
        return Fraction(ns, ds)
    return None


def fidelity_sq_from_pairs(
    pairs: Sequence[tuple[Fraction, int]], bits: int = DEFAULT_BITS
) -> IntervalScalar:
    """(sum_i m_i sqrt(r_i))^2 for rational r_i >= 0 with multiplicities m_i.

    Exact point interval when all the r_i differ by perfect-square factors
    (single common surd); outward-rounded interval otherwise.
    """
    pairs = [(r, m) for r, m in pairs if r and m]
    if not pairs:
        return IntervalScalar.exact(0, bits)
    base = pairs[0][0]
    coeff = Fraction(0)
    for r, m in pairs:
        root = _is_square(r / base)
        if root is None:
            coeff = None
            break
        coeff += m * root
    if coeff is not None:
        return IntervalScalar.exact(coeff * coeff * base, bits)
    total = IntervalScalar.exact(0, bits)
    for r, m in pairs:
        lo, hi = sqrt_bounds(r, bits)
        total = total + IntervalScalar(lo, hi, bits) * m
    return total**2


# -- simplex decomposition ---------------------------------------------------------


def pi_table(
    rows: Sequence[TypeDescriptor], columns: Sequence[TypeDescriptor]
) -> list[list[tuple[int, int, int]]]:
    """For each row class k, (j, num, den) with pi_k(columns[j]) = num/den
    as ``pi_ratio``'s unreduced integers, for exactly the j where it is
    nonzero, in column order.

    pi_k(c) != 0 iff their ``support_signature``s are compatible, so the
    columns are grouped by (key, need) and the rows by (key, cover), each
    pair of groups is tested once, and ``pi_ratio`` runs on the compatible
    pairs only.
    """
    groups: dict = {}
    for j, c in enumerate(columns):
        key, need, _ = c.support_signature
        groups.setdefault(key, {}).setdefault(need, []).append(j)
    compatible: dict = {}
    table = []
    for k in rows:
        key, _, cover = k.support_signature
        js = compatible.get((key, cover))
        if js is None:
            js = compatible[(key, cover)] = sorted(
                j
                for need, group in groups.get(key, {}).items()
                if not need & ~cover
                for j in group
            )
        table.append([(j, *k.pi_ratio(columns[j])) for j in js])
    return table


@dataclass(frozen=True)
class Decomposition:
    """P = sum_k mu_k Q_k with mu_k = |C_k| P(C_k): the class table every
    certifier reads, as both sides of each reduction are constant on classes."""

    index: ClassIndex
    weights: tuple[Fraction, ...]

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """P on each class, mu_k / |C_k|."""
        return tuple(mu / size for mu, (_, size) in zip(self.weights, self.index.items))

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(c for c, mu in enumerate(self.weights) if mu)

    @cached_property
    def pi_rows(self) -> list[list[tuple[int, int, int]]]:
        """``pi_table`` of every class against the supported ones: a
        fidelity with P sums over supp P only, so j indexes ``support``."""
        descriptors = self.index.descriptors()
        return pi_table(descriptors, [descriptors[c] for c in self.support])

    def remix(self, cap: int = DEFAULT_ENUM_CAP) -> FiniteDistribution:
        entries: dict[Word, Fraction] = {}
        for (descr, size), mu in zip(self.index.items, self.weights):
            if not mu:
                continue
            share = mu / size
            for w in class_members(descr, self.index.n, cap):
                entries[w] = entries.get(w, ZERO) + share
        return FiniteDistribution(self.index.alphabet, self.index.n, entries)


class Fidelities:
    """F(P, pi_k)^2 = (sum_c |C_c| sqrt(P(c) pi_k(c)))^2 for every class k of
    a decomposition, at one precision.

    ``exact(k)`` is ``fidelity_sq_from_pairs`` on row k: a point when the
    terms share one surd, else [A^2, B^2] with A and B the sums of the
    ``sqrt_bounds`` endpoints.  Its denominators grow with every term, so the
    kernel brackets the same A and B as integers in units of 2^-w
    (w = ``guarded_bits(bits)``), one floor per term, and squares them:
    ``brackets[k]`` = (x0, x1, y0, y1) with A^2 in [x0, x1] and B^2 in
    [y0, y1], in units of 2^-shift.  ``printed[k]`` is the interval a
    certificate prints: the grid interval of the brackets, which prints
    ``exact(k)``'s strings, and ``exact(k)`` itself for single-surd rows (a
    point, which ``_row`` computes from integers) and for rows whose brackets
    straddle a grid point.  ``combination`` weighs and sums the rows.
    """

    def __init__(self, decomp: Decomposition, bits: int = DEFAULT_BITS) -> None:
        self.decomp = decomp
        self.bits = bits
        self.work = guarded_bits(bits)
        self.shift = 2 * self.work
        self._exact: dict[int, IntervalScalar] = {}
        columns = [
            (decomp.values[c].numerator, decomp.values[c].denominator, decomp.index.items[c][1])
            for c in decomp.support
        ]
        self.printed: list[IntervalScalar] = []
        self.brackets: list[tuple[int, int, int, int]] = []
        for k, row in enumerate(decomp.pi_rows):
            terms = []
            for j, num, den in row:
                vn, vd, size = columns[j]
                p, q = vn * num, vd * den
                g = math.gcd(p, q)
                terms.append((p // g, q // g, size))
            printed, bracket = self._row(k, terms)
            self.printed.append(printed)
            self.brackets.append(bracket)

    def _row(self, k: int, terms: list[tuple[int, int, int]]):
        if not terms:
            return IntervalScalar.exact(0, self.bits), (0, 0, 0, 0)
        # All terms share one surd iff every r/r_0 is a rational square,
        # i.e. iff p q p_0 q_0 is an integer square.  Then sqrt(p/q) is
        # root / (q sqrt(p_0 q_0)) with root = isqrt(p q p_0 q_0), and the
        # point ``exact(k)`` reaches through Fractions is A^2 / (Q^2 p_0 q_0)
        # with Q = lcm q and A = sum size root Q/q.
        pq0 = terms[0][0] * terms[0][1]
        radicands = [p * q * pq0 for p, q, _ in terms]
        roots = list(map(math.isqrt, radicands))
        if all(root * root == x for root, x in zip(roots, radicands)):
            big_q = math.lcm(*(q for _, q, _ in terms))
            a = sum(size * root * (big_q // q) for (_, q, size), root in zip(terms, roots))
            value = Fraction(a * a, big_q * big_q * pq0)
            point = self._exact[k] = IntervalScalar.exact(value, self.bits)
            lo, hi = (
                floor_mul(1 << self.shift, point.lo),
                ceil_mul(1 << self.shift, point.hi),
            )
            return point, (lo, hi, lo, hi)
        up = self.work - self.bits
        a_sum = b_sum = 0
        for p, q, size in terms:
            radicand = p * q << (2 * self.bits)
            root = math.isqrt(radicand)
            t = size * root << up
            a_sum += t // q
            if root * root != radicand:
                t += size << up
            b_sum += t // q
        # Each floor is within one unit below its term.
        slack = len(terms)
        bracket = (a_sum * a_sum, (a_sum + slack) ** 2, b_sum * b_sum, (b_sum + slack) ** 2)
        printed = grid_interval(bracket[:2], bracket[2:], self.shift, self.bits)
        return (printed if printed is not None else self.exact(k)), bracket

    def exact(self, k: int) -> IntervalScalar:
        """Row k through the one exact path, computed on first use."""
        if k not in self._exact:
            decomp = self.decomp
            pairs = []
            for j, num, den in decomp.pi_rows[k]:
                c = decomp.support[j]
                pairs.append((decomp.values[c] * Fraction(num, den), decomp.index.items[c][1]))
            self._exact[k] = fidelity_sq_from_pairs(pairs, self.bits)
        return self._exact[k]

    def combination(
        self, weights: Iterable[tuple[int, int, int]], scale: IntervalScalar
    ) -> "Combination":
        """scale * sum_k (num/den) F(P, pi_k)^2 over ``weights`` = (k, num, den)."""
        return Combination(self, weights, scale)


class Combination:
    """scale * sum_k w_k F(P, pi_k)^2 for rational weights w_k >= 0 and a
    nonnegative scale: the one path by which a certifier compares or prints a
    weighted sum of fidelities (the flexible right-hand side of a class, the
    game bound).

    ``exact`` is the interval of exact arithmetic on ``Fidelities.exact``:
    [scale.lo * sum_k w_k A_k^2, scale.hi * sum_k w_k B_k^2].  Its lower end
    lies in [x0, x1] and its upper end in [y0, y1], in units of 2^-shift,
    summed term by term from the fidelity brackets, down for a lower and up
    for an upper end of a bracket.  ``certainly_ge`` and ``interval`` read
    [x0, y1] and the grid interval of the brackets when they decide and fall
    back to ``exact`` otherwise, so they answer and print as ``exact`` does.
    """

    def __init__(
        self, fids: Fidelities, weights: Iterable[tuple[int, int, int]], scale: IntervalScalar
    ) -> None:
        self.fids = fids
        self.weights = [(k, num, den) for k, num, den in weights if num]
        self.scale = scale
        self.x0 = self._end(0, scale.lo)
        self.y1 = self._end(3, scale.hi)

    def _end(self, i: int, factor: Fraction) -> int:
        """factor * sum_k w_k brackets[k][i], rounded down for a lower (even
        i) and up for an upper (odd i) end of a bracket."""
        brackets = self.fids.brackets
        if i % 2:
            total = sum(-(-brackets[k][i] * num // den) for k, num, den in self.weights)
            return ceil_mul(total, factor)
        total = sum(brackets[k][i] * num // den for k, num, den in self.weights)
        return floor_mul(total, factor)

    @cached_property
    def exact(self) -> IntervalScalar:
        total = IntervalScalar.exact(0, self.fids.bits)
        for k, num, den in self.weights:
            total = total + self.fids.exact(k) * Fraction(num, den)
        return total * self.scale

    def certainly_ge(self, value: Fraction) -> Optional[bool]:
        decided = scaled_certainly_ge(self.x0, self.y1, self.fids.shift, value)
        return decided if decided is not None else self.exact.certainly_ge(value)

    def interval(self) -> IntervalScalar:
        """``exact`` itself when it is a point (a point scale and single-surd
        rows), else its printed interval."""
        printed = self.fids.printed
        if self.scale.is_point and all(printed[k].is_point for k, _, _ in self.weights):
            return self.exact
        grid = grid_interval(
            (self.x0, self._end(1, self.scale.lo)),
            (self._end(2, self.scale.hi), self.y1),
            self.fids.shift,
            self.fids.bits,
        )
        return grid if grid is not None else self.exact


def check_exchangeable(
    p: FiniteDistribution,
    relation: Relation,
    cap: int = DEFAULT_ENUM_CAP,
    index: Optional[ClassIndex] = None,
) -> dict[TypeDescriptor, Fraction]:
    """Raise NotExchangeable with a witness pair unless P is constant on
    classes; return P's value on each class of its support.

    One pass groups supp P by ``relation.word_key``, keeping per class its
    first word and value, its word count and its first word of another
    value; each class is typed once, from its first word, and the classes are
    checked in order of first appearance, by value and then by size.
    Entries are normalized ``Fraction``s, so two are equal exactly when they
    are the same object (a reader shares one per distinct value) or their
    numerators and denominators are, which is compared directly.  The sizes
    are read from ``index``, P's ``ClassIndex``, when given, and computed
    otherwise.  A class P does not fill is missing a word among its first
    count + 1 members, so when it exceeds ``cap`` its members are
    walked lazily up to there instead of listed."""
    entries, alphabet, n = p.entries, p.alphabet, p.n
    word_key = relation.word_key
    sizes = dict(index.items) if index is not None else None
    # key -> [first word, its value, numerator, denominator, count, other word]
    groups: dict[tuple, list] = {}
    for word, value in entries.items():
        key = word_key(word, alphabet)
        group = groups.get(key)
        if group is None:
            groups[key] = [word, value, value.numerator, value.denominator, 1, None]
            continue
        group[4] += 1
        if value is not group[1] and group[5] is None and (
            value.numerator != group[2] or value.denominator != group[3]
        ):
            group[5] = word
    values: dict[TypeDescriptor, Fraction] = {}
    for first, value, _, _, count, other in groups.values():
        descr = type_of(first, relation, alphabet)
        if other is not None:
            raise NotExchangeable(
                f"P({first}) = {value} but P({other}) = {entries[other]} on the same class",
                witness=(first, other),
            )
        size = sizes[descr] if sizes is not None else class_size(descr, n)
        if count != size:
            members = class_members(descr, n, cap) if size <= cap else descr.members()
            missing = next(w for w in members if w not in entries)
            raise NotExchangeable(
                f"P({first}) = {value} but P({missing}) = 0 on the same class",
                witness=(first, missing),
            )
        values[descr] = value
    return values


def decompose(
    p: FiniteDistribution, relation: Relation, cap: int = DEFAULT_ENUM_CAP
) -> Decomposition:
    """Unique simplex weights of P against the extreme class distributions,
    read off the grouping of supp P that the invariance check builds.

    The classes are enumerated first and the check reads its sizes from that
    index, so no class is sized twice.  When the enumeration fails (over
    ``cap``, or n too short for the relation), P is checked on its own first,
    so a non-invariant P still gets its witness and the check's own error
    comes before the enumeration's."""
    try:
        index = enumerate_types(relation, p.alphabet, p.n, cap)
    except (CapExceeded, WordTooShort):
        check_exchangeable(p, relation, cap)
        raise
    values = check_exchangeable(p, relation, cap, index)
    weights = tuple(values.get(descr, ZERO) * size for descr, size in index.items)
    den = math.lcm(*(w.denominator for w in weights))
    assert sum(w.numerator * (den // w.denominator) for w in weights) == den  # sum is 1
    return Decomposition(index, weights)


_VERDICTS = {True: "holds", False: "fails", None: "inconclusive"}


def triage(checks: Sequence[bool | None | str]) -> tuple[list[str], str]:
    """Per-class verdicts and their roll-up: "fails" over "inconclusive" over
    "holds".  A check is ``certainly_ge``'s outcome (None: undecided at this
    precision) or, for a class with nothing to compare, its verdict."""
    verdicts = [c if isinstance(c, str) else _VERDICTS[c] for c in checks]
    return verdicts, next((v for v in ("fails", "inconclusive") if v in verdicts), "holds")


# -- flexible reduction certificate -------------------------------------------------


@dataclass(frozen=True)
class ClassRecord:
    descriptor: TypeDescriptor
    size: int
    tight_ratio: Fraction
    fidelity_sq: IntervalScalar
    verdict: str
    tight_within_analytic: bool


@dataclass(frozen=True)
class ReductionCertificate:
    relation: Relation
    n: int
    d: int
    verdict: str  # "holds" | "fails" | "inconclusive"
    alpha: AlphaBound
    alpha_tight_max: Fraction
    prefactor: IntervalScalar  # N * alpha(n)^2
    records: tuple[ClassRecord, ...]
    weights: tuple[Fraction, ...]
    bits: int
    alpha_mode: str

    @property
    def N(self) -> int:
        return len(self.records)


def verify_flexible_reduction(
    p: FiniteDistribution,
    relation: Relation,
    bits: int = DEFAULT_BITS,
    cap: int = DEFAULT_ENUM_CAP,
    alpha_mode: str = "analytic",
) -> ReductionCertificate:
    """Certify P <= N alpha(n)^2 sum_k (1/N) F(P, pi_k)^2 pi_k per class.

    ``alpha_mode`` picks the constant in the pre-factor: "analytic" uses the
    closed-form alpha(n) of ``alpha_analytic``, proven to dominate every
    per-class ratio at every valid n (it equals the paper's formula once n is
    large enough), "tight" uses the exact max_k of the per-class ratios, the
    smallest constant that dominates them.  The reduction needs only that
    domination, so neither mode can return "fails" on a relation-invariant P.
    """
    if alpha_mode not in ("analytic", "tight"):
        raise BadParams(f"unknown alpha mode {alpha_mode!r}")
    decomp = decompose(p, relation, cap)
    index = decomp.index
    n, d = p.n, p.alphabet.size
    tight = [alpha_tight(descr, n) for descr, _ in index.items]
    tight_max = max(tight)
    # The pi table by columns: pi_k(c) != 0 as (k, num, den) for each c in supp P.
    columns: list[list[tuple[int, int, int]]] = [[] for _ in decomp.support]
    for k, row in enumerate(decomp.pi_rows):
        for j, num, den in row:
            columns[j].append((k, num, den))

    def attempt(bits: int) -> ReductionCertificate:
        analytic = alpha_analytic(relation, n, p.alphabet, bits)
        alpha_sq = (
            analytic.squared
            if alpha_mode == "analytic"
            else IntervalScalar.exact(tight_max, bits) ** 2
        )
        fids = Fidelities(decomp, bits)
        # A class with P = 0 holds at once (its LHS is 0); the others compare
        # P(c) with alpha^2 sum_k F_k^2 pi_k(c).
        checks: list = ["holds"] * index.N
        for c, column in zip(decomp.support, columns):
            checks[c] = fids.combination(column, alpha_sq).certainly_ge(decomp.values[c])
        verdicts, overall = triage(checks)
        return ReductionCertificate(
            relation=relation,
            n=n,
            d=d,
            verdict=overall,
            alpha=analytic,
            alpha_tight_max=tight_max,
            prefactor=alpha_sq * index.N,
            records=tuple(
                ClassRecord(
                    descriptor=descr,
                    size=size,
                    tight_ratio=tight[c],
                    fidelity_sq=fids.printed[c],
                    verdict=verdicts[c],
                    tight_within_analytic=bool(analytic.value.certainly_ge(tight[c])),
                )
                for c, (descr, size) in enumerate(index.items)
            ),
            weights=decomp.weights,
            bits=bits,
            alpha_mode=alpha_mode,
        )

    return run_with_escalation(attempt, bits)


# -- Stirling sandwich ---------------------------------------------------------------


def stirling_bounds(p: int, bits: int = DEFAULT_BITS) -> tuple[IntervalScalar, IntervalScalar]:
    """Enclosures of sqrt(2 pi) p^(p+1/2) e^-p and e p^(p+1/2) e^-p.

    The true values sandwich p!; at p = 1 the upper bound equals 1! exactly
    and is returned as a point interval.
    """
    if p < 1:
        raise BadParams("Stirling bounds need p >= 1")
    radicand = p ** (2 * p + 1)
    e_pow = IntervalScalar.euler_e(bits) ** p
    lower = (IntervalScalar.two_pi(bits) * radicand).sqrt(bits) / e_pow
    lo, hi = sqrt_bounds(Fraction(radicand), bits)
    upper = IntervalScalar(lo, hi, bits) / (IntervalScalar.euler_e(bits) ** (p - 1))
    return lower, upper
