"""Partial-exchangeability relations, type descriptors and class enumeration.

One count-tensor family covers words in V^n: at order l, two words are
equivalent iff they share their first l letters (the start gram) and their
gram -> next-letter counts.  Three orders keep their own names and JSON kinds:

* exchangeable (l = 0) -- one empty gram, so a class is its letter counts;
* Markov (l = 1)       -- a start letter and letter -> letter counts;
* l-Markov (l >= 1)    -- a start gram and gram -> next-letter counts.

Cartesian products take them component-wise on a factored alphabet.  A class
is identified by its type descriptor (start gram and count tensor, or the
factors' descriptors).  Each relation types words, lists the candidate
descriptors of length-n words and gives its analytic alpha(n)^2; each
descriptor knows its class size, members, representative, JSON form and the
value of its empirical pi_k on any class, once for every order.  Sizes are
the BEST-theorem trajectory count of the tensor, the multinomial n!/prod t!
at l = 0.  The module-level functions are the public entry points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .core import Alphabet, Word, DEFAULT_ENUM_CAP, ONE, ZERO, project_word, rational_str
from .errors import (
    BadParams,
    CapExceeded,
    EmptyClass,
    InconsistentDescriptor,
    WordTooShort,
)
from .graphs import factorial_ratio, gram_rank, in_tree_count, trajectory_count
from .intervals import IntervalScalar


class _cached(cached_property):
    """``functools.cached_property`` without the lock Python < 3.12 takes on
    each first access; a race at worst computes a field twice."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


# -- relations ------------------------------------------------------------------


class Relation:
    """An equivalence relation on V^n whose classes have type descriptors.

    Subclasses provide ``min_word_length()``, ``type_of(word, alphabet)``,
    ``word_key(word, alphabet)``, ``candidate_count`` and ``candidates`` (or
    their own ``classes``), ``alpha_squared(n, alphabet, bits)`` and
    ``to_json()``.

    ``word_key`` is a cheap hashable stand-in for ``type_of``: on words of
    one length, equal keys mean equal descriptors and conversely, so words
    can be grouped into classes before any descriptor is built.
    """

    def classes(self, alphabet: Alphabet, n: int, cap: int) -> Iterator[tuple["TypeDescriptor", int]]:
        """(descriptor, size) of every nonempty class, in no fixed order.

        Raises CapExceeded before any work when the candidate descriptors
        outnumber ``cap``.
        """
        count = self.candidate_count(alphabet, n)
        if count > cap:
            raise CapExceeded(f"{count} candidate types exceed enumeration cap {cap}")
        for descr in self.candidates(alphabet, n):
            size = class_size(descr, n)
            if size:
                yield descr, size


@dataclass(frozen=True)
class LMarkov(Relation):
    ell: int

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise BadParams("l-Markov order must be >= 1")

    def min_word_length(self) -> int:
        return self.ell + 1

    def descriptor(self, start: tuple[int, ...], trans) -> "LMarkovType":
        return LMarkovType(self.ell, start, trans)

    def type_of(self, word: Word, alphabet: Alphabet) -> "LMarkovType":
        ell, d = self.ell, alphabet.size
        if len(word) < self.min_word_length():
            raise WordTooShort(
                f"l-Markov({ell}) needs words of length >= {self.min_word_length()}"
            )
        m = d**ell
        rows = [[0] * d for _ in range(m)]
        g = gram_rank(word[:ell], d)
        for z in word[ell:]:
            rows[g][z] += 1
            g = (g * d + z) % m
        return self.descriptor(word[:ell], tuple(map(tuple, rows)))

    def word_key(self, word: Word, alphabet: Alphabet) -> tuple:
        """The start gram and the sorted (l+1)-grams.  A word of length <= l
        is all start gram, so no two such words share a key."""
        ell = self.ell
        return word[:ell], tuple(sorted(zip(*(word[i:] for i in range(ell + 1)))))

    def candidate_count(self, alphabet: Alphabet, n: int) -> int:
        """Start grams times count tensors, d^l C(n-l+d^(l+1)-1, d^(l+1)-1):
        an upper bound on ``candidates``, which yields only the tensors among
        them whose degrees admit a trail."""
        d, ell = alphabet.size, self.ell
        cells = d ** (ell + 1)
        return d**ell * math.comb(n - ell + cells - 1, cells - 1)

    def candidates(self, alphabet: Alphabet, n: int) -> Iterator["LMarkovType"]:
        """Each (start gram, count tensor) pair whose degrees admit an open
        trail from the start gram, exactly once: out - in = [v = start] -
        [v = end] at every gram.  Connectivity is left to the class size.

        Per start gram s and end gram e, the out-degrees r run over the
        compositions of n - l into d^l parts (r_s >= 1 unless e = s) and the
        in-degrees are r - [v = s] + [v = e]; ``_de_bruijn_tables`` fills the
        tensors with those margins.  The degrees fix e, so no tensor repeats.

        Each descriptor is handed what the generator already knows, in place
        of its cached ``row_sums`` (= r), ``end`` (= e) and ``factorials``:
        prod (r_g - 1)! once per r, prod t! as the rows are filled.
        """
        d, ell = alphabet.size, self.ell
        m = d**ell
        choices: dict = {}  # row choices per (last, total, caps), for this call only
        for start in itertools.product(range(d), repeat=ell):
            s = gram_rank(start, d)
            for out in compositions(n - ell, m):
                num = math.prod(math.factorial(r - 1) for r in out if r)
                for e in range(m):
                    if e != s and not out[s]:
                        continue
                    into = list(out)
                    into[s] -= 1
                    into[e] += 1
                    for trans, den in _de_bruijn_tables(out, into, d, choices):
                        descr = self.descriptor(start, trans)
                        descr.__dict__.update(row_sums=out, end=e, factorials=(num, den))
                        yield descr

    def alpha_squared(self, n: int, alphabet: Alphabet, bits: int) -> tuple[IntervalScalar, int]:
        """alpha(n)^2 = e^(2K) (x/K)^K * max(1, max_s (x/(2 pi s))^s) with
        m = d^l, x = n - l and K = min(d m, x); the proof is in
        ``reduction.alpha_analytic``."""
        ell, d = self.ell, alphabet.size
        if n < ell + 1:
            raise BadParams(f"l-Markov({ell}) pre-factor needs n >= {ell + 1}")
        e2 = IntervalScalar.euler_e(bits) ** 2
        two_pi = IntervalScalar.two_pi(bits)
        m, x = d**ell, n - ell
        cells = min(d * m, x)
        # max(1, max_s (x/(2 pi s))^s), enclosed by the max of the endpoints
        rows_lo = rows_hi = ONE
        for s in range(1, min(m, x) + 1):
            term = Fraction(x**s, s**s) / (two_pi**s)
            rows_lo, rows_hi = max(rows_lo, term.lo), max(rows_hi, term.hi)
        sq = (e2**cells) * Fraction(x**cells, cells**cells) * IntervalScalar(rows_lo, rows_hi, bits)
        return sq, m * (2 * d + 1) - 1

    def to_json(self) -> dict:
        return {"kind": "lmarkov", "ell": self.ell}


@dataclass(frozen=True)
class Markov(LMarkov):
    """Markov exchangeability: l-Markov with l = 1.

    It differs from ``LMarkov(1)`` only in its JSON kind, its descriptor
    spelling (``MarkovType``) and in accepting words of length 1.
    """

    ell: int = field(default=1, init=False, repr=False)

    def min_word_length(self) -> int:
        return 1

    def descriptor(self, start: tuple[int, ...], trans) -> "MarkovType":
        return MarkovType(start[0], trans)

    def to_json(self) -> dict:
        return {"kind": "markov"}


@dataclass(frozen=True)
class Exchangeable(LMarkov):
    """Exchangeability: l-Markov with l = 0, whose one empty gram leaves a
    class its letter counts.  It adds to that order only its JSON kind, its
    descriptor spelling (``ExchangeableType``), its word key and its own
    alpha(n)^2.
    """

    ell: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        """No order check: order 0 is reached by this name only."""

    def descriptor(self, start: tuple[int, ...], trans) -> "ExchangeableType":
        return ExchangeableType(trans[0])

    def word_key(self, word: Word, alphabet: Alphabet) -> tuple:
        """The sorted letters."""
        return tuple(sorted(word))

    def alpha_squared(self, n: int, alphabet: Alphabet, bits: int) -> tuple[IntervalScalar, int]:
        """alpha(n)^2 = e^(2K) (n/K)^K / (2 pi n) with K = min(d, n), and the
        degree 2(d-1); the proof is in ``reduction.alpha_analytic``."""
        if n < 1:
            raise BadParams("n must be >= 1")
        d = alphabet.size
        k = min(d, n)
        e2 = IntervalScalar.euler_e(bits) ** 2
        sq = (e2**k) * Fraction(n**k, k**k * n) / IntervalScalar.two_pi(bits)
        return sq, 2 * (d - 1)

    def to_json(self) -> dict:
        return {"kind": "exchangeable"}


@dataclass(frozen=True)
class ProductRelation(Relation):
    parts: tuple[Relation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(isinstance(p, ProductRelation) for p in self.parts):
            raise BadParams("product relations do not nest; flatten the factors")

    def min_word_length(self) -> int:
        return max(p.min_word_length() for p in self.parts)

    def factor_alphabets(self, alphabet: Alphabet) -> list[Alphabet]:
        if alphabet.factors is None:
            raise InconsistentDescriptor("product relation requires a factored alphabet")
        if len(alphabet.factors) != len(self.parts):
            raise InconsistentDescriptor("product relation arity does not match factors")
        return [Alphabet(f) for f in alphabet.factors]

    def type_of(self, word: Word, alphabet: Alphabet) -> "ProductType":
        factors = self.factor_alphabets(alphabet)
        return ProductType(
            tuple(
                rel.type_of(project_word(alphabet, word, i), fa)
                for i, (rel, fa) in enumerate(zip(self.parts, factors))
            )
        )

    def word_key(self, word: Word, alphabet: Alphabet) -> tuple:
        """The parts' keys of the word's projections."""
        factors = self.factor_alphabets(alphabet)
        return tuple(
            rel.word_key(project_word(alphabet, word, i), fa)
            for i, (rel, fa) in enumerate(zip(self.parts, factors))
        )

    def classes(self, alphabet: Alphabet, n: int, cap: int) -> Iterator[tuple["ProductType", int]]:
        factors = self.factor_alphabets(alphabet)
        sub = [enumerate_types(rel, fa, n, cap) for rel, fa in zip(self.parts, factors)]
        count = math.prod(ix.N for ix in sub)
        if count > cap:
            raise CapExceeded(f"{count} product types exceed enumeration cap {cap}")
        for combo in itertools.product(*(ix.items for ix in sub)):
            yield ProductType(tuple(t for t, _ in combo)), math.prod(s for _, s in combo)

    def alpha_squared(self, n: int, alphabet: Alphabet, bits: int) -> tuple[IntervalScalar, int]:
        """Classes, pi_k and the ratios factor: the factors' alpha(n)^2
        multiply and their degrees add."""
        if alphabet.factors is None or len(alphabet.factors) != len(self.parts):
            raise BadParams("product relation needs a matching factored alphabet")
        sq = IntervalScalar.exact(1, bits)
        degree = 0
        for rel, f in zip(self.parts, alphabet.factors):
            part_sq, part_deg = rel.alpha_squared(n, Alphabet(f), bits)
            sq = sq * part_sq
            degree += part_deg
        return sq, degree

    def to_json(self) -> dict:
        return {"kind": "product", "parts": [p.to_json() for p in self.parts]}


EXCHANGEABLE = Exchangeable()
MARKOV = Markov()


# -- type descriptors ----------------------------------------------------------


def _ratio_str(num: int, den: int) -> str:
    """``rational_str(Fraction(num, den))`` for den > 0, without the Fraction."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


class TypeDescriptor:
    """The type of one class; equal descriptors are exactly the relation's
    equivalence.

    ``LMarkovType`` is the count-tensor descriptor of every order; its
    spellings ``ExchangeableType`` (l = 0) and ``MarkovType`` (l = 1) add
    only names and JSON, and ``ProductType`` combines the factors'.  Each
    provides ``relation()``, ``alphabet()``, ``sort_key()``, ``class_size(n)``,
    ``members()``, ``pi_ratio(c)``, ``support_signature``, ``cells`` (the bit
    width of its signature masks), ``pi_summary()`` and ``to_json()``; a
    descriptor knows its word length, which ``class_size(n)`` and
    ``representative(n)`` only check.  Count tensors also give
    ``pi_mass(letters)``.

    ``support_signature`` is (key, need, cover) with pi_k(c) != 0 exactly
    when key_k == key_c and need_c & ~cover_k == 0: ``pi_table`` reads it to
    call ``pi_ratio`` on those pairs only.

    Descriptors take their tuple fields unchecked: ``type_of`` and the
    candidate generators build only valid ones, and
    ``serialize.descriptor_from_json`` checks one read from outside.
    """

    def pi_at(self, c: "TypeDescriptor") -> Fraction:
        """pi_k (k = self) at any member of class c; pi_k is constant on
        classes, so the two descriptors determine it."""
        num, den = self.pi_ratio(c)
        return Fraction(num, den) if num else ZERO

    def representative(self, n: int) -> Word:
        """The first of ``members()``, once ``class_size(n)`` has checked n."""
        if not self.class_size(n):
            raise EmptyClass("empty class has no representative")
        return next(self.members())

    def best_formula_json(self):
        """The factored BEST terms reported by ``exkit size``; None unless Markov."""
        return None


@dataclass(frozen=True)
class LMarkovType(TypeDescriptor):
    """Start gram of length l plus gram -> next-letter counts.

    Rows of ``trans`` are indexed by the row-major rank of the gram
    (i_1..i_l); columns by the following letter.  Gram g followed by letter z
    is gram (g d + z) mod d^l, and gram v ends in letter v mod d.  The cached
    ``row_sums``, ``end`` and ``factorials`` are handed in by ``candidates``.
    """

    ell: int
    start: tuple[int, ...]
    trans: tuple[tuple[int, ...], ...]

    @property
    def d(self) -> int:
        return len(self.trans[0])

    @_cached
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.trans)

    @_cached
    def kernel(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """pi_k's transition probabilities as (counts, total) per gram, the
        row over the next letter being counts / total; never-visited grams
        (zero row sums) get the uniform row (1, ..., 1) / d."""
        uniform = ((1,) * self.d, self.d)
        return tuple(
            (row, r) if r else uniform for row, r in zip(self.trans, self.row_sums)
        )

    def relation(self) -> Relation:
        return LMarkov(self.ell)

    def alphabet(self) -> Alphabet:
        return Alphabet(self.d)

    def sort_key(self):
        return (2, self.start, self.trans)

    @_cached
    def factorials(self) -> tuple[int, int]:
        """``graphs.factorial_ratio``: prod (r_g - 1)! and prod t!."""
        return factorial_ratio(self)

    @_cached
    def end(self) -> int | None:
        """The gram at which every word of the class ends: the one gram whose
        excess out - in - [v = start] is -1, with every other excess 0; None
        when the degrees admit no trail from the start gram.  The excesses
        always sum to -1, so a single nonzero one is that gram."""
        d, m = self.d, len(self.trans)
        excess = list(self.row_sums)
        excess[gram_rank(self.start, d)] -= 1
        for g, row in enumerate(self.trans):
            base = g * d
            for z, t in enumerate(row):
                excess[(base + z) % m] -= t
        unbalanced = [v for v, x in enumerate(excess) if x]
        return unbalanced[0] if len(unbalanced) == 1 else None

    def check_length(self, n: int) -> None:
        steps = sum(self.row_sums)
        if n != self.ell + steps:
            raise InconsistentDescriptor(
                f"transition counts sum to {steps}, expected {n - self.ell}"
            )

    @_cached
    def size(self) -> int:
        """The BEST count of the class, at its word length l + sum of counts."""
        return trajectory_count(self, self.ell + sum(self.row_sums))

    def class_size(self, n: int) -> int:
        self.check_length(n)
        return self.size

    def members(self) -> Iterator[Word]:
        """The words of the class, lazily, in lexicographic order: the walks
        from the start gram that use up the count tensor, letter z taking
        gram g to gram (g d + z) mod d^l.  The walk keeps its own stack, so
        the callers' size caps are the only bound on the word length."""
        d, m = self.d, len(self.trans)
        left = [list(row) for row in self.trans]
        word = list(self.start)
        n = len(word) + sum(self.row_sums)
        grams = [gram_rank(self.start, d)]  # the gram after each step so far
        z = 0  # the next letter to try after the last step
        while True:
            if len(word) == n:
                yield tuple(word)
            row = left[grams[-1]]
            while z < d and not row[z]:
                z += 1
            if z < d:  # step on
                row[z] -= 1
                word.append(z)
                grams.append((grams[-1] * d + z) % m)
                z = 0
            elif len(grams) > 1:  # step back, then try the next letter there
                grams.pop()
                left[grams[-1]][word[-1]] += 1
                z = word.pop() + 1
            else:
                return

    def pi_ratio(self, c: "LMarkovType") -> tuple[int, int]:
        """[start grams agree] * prod_{g,z} (t_{k,gz}/r_{k,g})^t_{c,gz} as an
        unreduced integer ratio, (0, 1) when c takes a step k never does.  A
        gram k never visits contributes (1/d)^r_{c,g}."""
        if c.start != self.start:
            return 0, 1
        num = den = 1
        for (row_k, r_k), row_c, r_c in zip(self.kernel, c.trans, c.row_sums):
            if not r_c:
                continue
            den *= r_k**r_c
            for tk, tc in zip(row_k, row_c):
                if tc:
                    if not tk:
                        return 0, 1
                    num *= tk**tc
        return num, den

    @property
    def cells(self) -> int:
        return len(self.trans) * self.d

    @_cached
    def support_signature(self) -> tuple[tuple[int, ...], int, int]:
        """Key the start gram; need the cells g d + z with t_{g,z} > 0; cover
        those plus every cell of a gram k never visits, where pi_k's kernel
        row is uniform."""
        d = self.d
        need = sum(1 << i for i, t in enumerate(itertools.chain.from_iterable(self.trans)) if t)
        unvisited = sum(((1 << d) - 1) << (g * d) for g, r in enumerate(self.row_sums) if not r)
        return self.start, need, need | unvisited

    def pi_mass(self, letters: frozenset[int]) -> Fraction:
        """pi_k(L^n) for the letter set L at the class's word length n: the
        chain starts at the start gram (0 if it uses a letter outside L) and
        takes n - l steps through ``kernel`` on the letters of L, in integer
        masses over scale^steps, with scale the lcm of the kernel's totals."""
        if not letters.issuperset(self.start):
            return ZERO
        d, m, kernel = self.d, len(self.trans), self.kernel
        scale = math.lcm(*[r for _, r in kernel])
        steps = sum(self.row_sums)
        mass = {gram_rank(self.start, d): 1}
        for _ in range(steps):
            step: dict[int, int] = {}
            for g, p in mass.items():
                row, r = kernel[g]
                p *= scale // r
                for z in letters:
                    if row[z]:
                        h = (g * d + z) % m
                        step[h] = step.get(h, 0) + p * row[z]
            mass = step
        return Fraction(sum(mass.values()), scale**steps)

    def start_json(self):
        return [v + 1 for v in self.start]

    def pi_summary(self) -> dict:
        kernel = [[_ratio_str(t, r) for t in row] for row, r in self.kernel]
        return {"start": self.start_json(), "kernel": kernel}

    def to_json(self) -> dict:
        return {
            "kind": "lmarkov",
            "ell": self.ell,
            "start": self.start_json(),
            "t": [list(row) for row in self.trans],
        }


class MarkovType(LMarkovType):
    """Markov descriptor: the l = 1 ``LMarkovType`` built from a start letter,
    written with an integer start in JSON.  The order is a class attribute."""

    ell = 1

    def __init__(self, start: int, trans) -> None:
        object.__setattr__(self, "start", (start,))
        object.__setattr__(self, "trans", trans)

    def relation(self) -> Relation:
        return MARKOV

    def start_json(self):
        return self.start[0] + 1

    def best_formula_json(self) -> dict | None:
        """None when the end state has no outgoing transition (t_w = 0),
        where the factored form is not defined."""
        if self.end is None or not self.row_sums[self.end]:
            return None
        terms = best_formula_terms(self, self.ell + sum(self.row_sums))
        return {
            "t_w": terms["t_w"],
            "spanning_trees": terms["spanning_trees"],
            "factorial_ratio": rational_str(terms["factorial_ratio"]),
            "end_vertex": terms["end_vertex"] + 1,
        }

    def to_json(self) -> dict:
        return {"kind": "markov", "start": self.start_json(), "t": [list(r) for r in self.trans]}


class ExchangeableType(LMarkovType):
    """Exchangeable descriptor: the l = 0 ``LMarkovType``, whose one row
    counts the letters, built from and written as those counts.  The order
    and the empty start gram are class attributes."""

    ell = 0
    start = ()

    def __init__(self, counts) -> None:
        object.__setattr__(self, "trans", (tuple(counts),))

    @property
    def counts(self) -> tuple[int, ...]:
        return self.trans[0]

    def relation(self) -> Relation:
        return EXCHANGEABLE

    def sort_key(self):
        return (0, self.counts)

    def pi_summary(self) -> dict:
        n = self.row_sums[0]
        return {"pi": [_ratio_str(t, n) for t in self.counts]}

    def to_json(self) -> dict:
        return {"kind": "exchangeable", "t": list(self.counts)}


@dataclass(frozen=True)
class ProductType(TypeDescriptor):
    parts: tuple[TypeDescriptor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))

    def relation(self) -> Relation:
        return ProductRelation(tuple(p.relation() for p in self.parts))

    def alphabet(self) -> Alphabet:
        sizes = tuple(p.alphabet().size for p in self.parts)
        return Alphabet(math.prod(sizes), sizes)

    def sort_key(self):
        return (3, tuple(p.sort_key() for p in self.parts))

    def class_size(self, n: int) -> int:
        return math.prod(p.class_size(n) for p in self.parts)

    def members(self) -> Iterator[Word]:
        """The words of the class, lazily: every combination of the parts'
        members, the last part varying fastest.  This is not lexicographic
        order, and each part's members are walked afresh per combination of
        the parts before it."""
        alphabet = self.alphabet()

        def combos(i: int) -> Iterator[tuple[Word, ...]]:
            if i == len(self.parts):
                yield ()
                return
            for word in self.parts[i].members():
                for rest in combos(i + 1):
                    yield (word,) + rest

        for combo in combos(0):
            yield tuple(alphabet.pack(letters) for letters in zip(*combo))

    def pi_ratio(self, c: "ProductType") -> tuple[int, int]:
        num = den = 1
        for part, c_part in zip(self.parts, c.parts):
            part_num, part_den = part.pi_ratio(c_part)
            if not part_num:
                return 0, 1
            num, den = num * part_num, den * part_den
        return num, den

    @_cached
    def support_signature(self) -> tuple[tuple, int, int]:
        """The parts' keys as a tuple and their masks side by side: every
        part must pass its own test."""
        keys, need, cover, shift = [], 0, 0, 0
        for part in self.parts:
            key, part_need, part_cover = part.support_signature
            keys.append(key)
            need |= part_need << shift
            cover |= part_cover << shift
            shift += part.cells
        return tuple(keys), need, cover

    def pi_summary(self) -> dict:
        return {"parts": [p.pi_summary() for p in self.parts]}

    def to_json(self) -> dict:
        return {"kind": "product", "parts": [p.to_json() for p in self.parts]}


def _de_bruijn_tables(
    out: tuple[int, ...], into: list[int], d: int, choices: dict
) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
    """Every gram -> next-letter count tensor whose row g sums to out[g] and
    whose column v, fed by the cells (g, z) with (g d + z) mod d^l = v, sums
    to into[v] (the totals of ``out`` and ``into`` agree), with the product
    of t! over its cells.

    Row g fills the consecutive columns g d mod d^l onward, each cell taking
    at most what its column still lacks; as every row is filled exactly, no
    column ends short, so every table yielded meets both margins.  With one
    gram (l = 0) all d cells feed its one column, so each may take the whole
    row.  A row's options (row, its prod t!, what its columns then lack, which
    the last row skips) are kept in ``choices`` per (last, total, caps),
    which the caller owns.
    """
    m = len(out)
    lack = list(into)
    rows: list = [()] * m

    def rows_from(g: int, den: int):
        base = g * d % m
        last = g == m - 1
        caps = tuple(lack[base : base + d]) if m > 1 else (out[g],) * d
        key = (last, out[g], caps)
        options = choices.get(key)
        if options is None:
            options = choices[key] = [
                (row, math.prod(map(math.factorial, row)),
                 None if last else [c - x for c, x in zip(caps, row)])
                for row in _bounded_compositions(out[g], caps)
            ]
        if last:
            for row, f, _ in options:
                rows[g] = row
                yield tuple(rows), den * f
            return
        for row, f, left in options:
            rows[g] = row
            lack[base : base + d] = left
            yield from rows_from(g + 1, den * f)
        lack[base : base + d] = caps

    yield from rows_from(0, 1)
    del rows_from  # a recursive closure is a reference cycle; break it


def _bounded_compositions(total: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All tuples x summing to ``total`` with 0 <= x_i <= caps[i]."""
    if total == 0:  # the caps are never negative, so only the zero tuple
        yield (0,) * len(caps)
        return
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    room = sum(caps[1:])
    for first in range(max(0, total - room), min(total, caps[0]) + 1):
        for rest in _bounded_compositions(total - first, caps[1:]):
            yield (first,) + rest


# -- typing words --------------------------------------------------------------


def type_of(word: Word, relation: Relation, alphabet: Alphabet) -> TypeDescriptor:
    """Descriptor of the class containing ``word``; equal descriptors are
    exactly the relation's equivalence."""
    word = tuple(word)
    alphabet.check_word(word, len(word))
    return relation.type_of(word, alphabet)


# -- nonemptiness and cardinality ----------------------------------------------


def class_size(descriptor: TypeDescriptor, n: int) -> int:
    """Exact cardinality of the class; 0 when no word realizes the type: the
    BEST trajectory count of a count tensor (n!/prod t! at l = 0), and the
    product of the factors' sizes for a Cartesian product."""
    return descriptor.class_size(n)


def best_formula_terms(descriptor: LMarkovType, n: int) -> dict:
    """Factored BEST evaluation t_w * T * prod(r_g - 1)!/prod t_gz!, with T
    the in-tree count on the visited grams that ``class_size`` also uses.

    Only defined when the end state has at least one outgoing transition
    (t_w >= 1), which is the shape quoted for the worked example.
    """
    size = class_size(descriptor, n)
    end = descriptor.end
    if end is None or not descriptor.row_sums[end]:
        raise InconsistentDescriptor("factored form needs a trail with t_w >= 1")
    return {
        "t_w": descriptor.row_sums[end],
        "spanning_trees": in_tree_count(descriptor),
        "factorial_ratio": Fraction(*descriptor.factorials),
        "end_vertex": end,
        "size": size,
    }


# -- member enumeration ---------------------------------------------------------


def class_members(
    descriptor: TypeDescriptor, n: int, cap: int = DEFAULT_ENUM_CAP
) -> list[Word]:
    """All words realizing the descriptor, in lexicographic order."""
    size = class_size(descriptor, n)
    if size > cap:
        raise CapExceeded(f"class of size {size} exceeds cap {cap}")
    return sorted(descriptor.members()) if size else []


def representative(descriptor: TypeDescriptor, n: int) -> Word:
    """The lexicographically first member of the class."""
    return descriptor.representative(n)


# -- class index -----------------------------------------------------------------


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    return _bounded_compositions(total, (total,) * parts)


@dataclass(frozen=True)
class ClassIndex:
    """The nonempty classes of a relation on V^n, with exact cardinalities."""

    relation: Relation
    alphabet: Alphabet
    n: int
    items: tuple[tuple[TypeDescriptor, int], ...]

    @property
    def N(self) -> int:
        return len(self.items)

    def descriptors(self) -> list[TypeDescriptor]:
        return [t for t, _ in self.items]


def enumerate_types(
    relation: Relation, alphabet: Alphabet, n: int, cap: int = DEFAULT_ENUM_CAP
) -> ClassIndex:
    """Index of exactly the nonempty classes; sizes sum to d^n by construction
    (verified, which doubles as a self-check of the cardinality formulas).

    Raises CapExceeded, before the enumeration, when the relation has more
    candidate types than ``cap``: d^l C(n-l+d^(l+1)-1, d^(l+1)-1) start grams
    times count tensors at order l (C(n+d-1, d-1) letter counts at l = 0; at
    l >= 1 a bound, as only the tensors whose degrees admit a trail are
    enumerated), and the product of the factors' class counts for a
    Cartesian product.
    """
    if n < relation.min_word_length():
        raise WordTooShort(f"relation needs n >= {relation.min_word_length()}")
    d = alphabet.size
    items = sorted(relation.classes(alphabet, n, cap), key=lambda pair: pair[0].sort_key())
    total = sum(s for _, s in items)
    if total != d**n:
        raise InconsistentDescriptor(
            f"class sizes sum to {total}, expected {d}^{n} = {d**n}"
        )
    return ClassIndex(relation, alphabet, n, tuple(items))

