"""Alphabets, words and exact finite distributions.

Words over an alphabet of size d are tuples of 0-based letter indices.
Distributions map words to exact rationals and are kept sparse (zero entries
are dropped); all arithmetic on them is over ``fractions.Fraction`` so that
downstream certificates stay exact.  Product alphabets carry an optional
factorization so a letter can be packed/unpacked to a tuple of factor letters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional

from .errors import (
    BadWordLength,
    CapExceeded,
    DimensionMismatch,
    NotFactored,
    SumNotOne,
)

Word = tuple[int, ...]

DEFAULT_ENUM_CAP = 10**8

ONE = Fraction(1)
ZERO = Fraction(0)


def rational_str(value: Fraction) -> str:
    """Exact decimal-free "p/q" form of a rational, as every format writes it."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet of size d, optionally factored as d = d_1 * d_2 * ...

    Letters are 0-based indices.  For a factored alphabet, letter <-> tuple
    conversion uses row-major (C-order) packing.
    """

    size: int
    factors: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("alphabet size must be >= 1")
        if self.factors is not None:
            object.__setattr__(self, "factors", tuple(self.factors))
            if any(f < 1 for f in self.factors):
                raise ValueError("alphabet factors must be >= 1")
            prod = 1
            for f in self.factors:
                prod *= f
            if prod != self.size:
                raise ValueError(f"factors {self.factors} do not multiply to {self.size}")

    def unpack(self, letter: int) -> tuple[int, ...]:
        """Flat letter index -> tuple of factor letters (row-major)."""
        if self.factors is None:
            raise NotFactored("alphabet has no factorization")
        out = []
        for f in reversed(self.factors):
            out.append(letter % f)
            letter //= f
        return tuple(reversed(out))

    def pack(self, parts: tuple[int, ...]) -> int:
        if self.factors is None:
            raise NotFactored("alphabet has no factorization")
        if len(parts) != len(self.factors):
            raise DimensionMismatch("wrong arity for factored letter")
        letter = 0
        for p, f in zip(parts, self.factors):
            if not 0 <= p < f:
                raise ValueError(f"factor letter {p} out of range [0, {f})")
            letter = letter * f + p
        return letter

    def check_word(self, word: Word, n: int) -> None:
        if len(word) != n:
            raise BadWordLength(f"word {word} has length {len(word)}, expected {n}")
        for letter in word:
            if not 0 <= letter < self.size:
                raise BadWordLength(f"letter {letter} out of range [0, {self.size})")

    def words(self, n: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[Word]:
        if self.size**n > cap:
            raise CapExceeded(f"{self.size}^{n} words exceed enumeration cap {cap}")
        return itertools.product(range(self.size), repeat=n)


def project_word(alphabet: Alphabet, word: Word, factor: int) -> Word:
    """Coordinate-wise projection of a word onto one factor (0-based index):
    ``alphabet.unpack(letter)[factor]`` per letter, read off as the digit of
    the row-major packing without unpacking the other factors."""
    if alphabet.factors is None:
        raise NotFactored("alphabet has no factorization")
    size = alphabet.factors[factor]
    stride = math.prod(alphabet.factors[factor + 1 :])
    return tuple(letter // stride % size for letter in word)


@dataclass(frozen=True)
class FiniteDistribution:
    """Sparse probability distribution on words of fixed length n.

    Entries are exact rationals summing to exactly 1; zero entries are not
    stored.  Instances are immutable and safe to share.

    A ``Fraction`` value is stored as given, the same object, so entries a
    reader parsed once stay shared; other values are converted.  A word is
    checked by its length and the min and max of its letters.  The sum is
    taken exactly with one ``Fraction`` add per distinct denominator: the
    numerators of each denominator are summed as integers first.
    """

    alphabet: Alphabet
    n: int
    entries: Mapping[Word, Fraction]

    def __post_init__(self) -> None:
        n, size = self.n, self.alphabet.size
        if n < 1:
            raise BadWordLength("n must be >= 1")
        clean: dict[Word, Fraction] = {}
        numerators: dict[int, int] = {}
        for word, value in self.entries.items():
            if type(word) is not tuple:
                word = tuple(word)
            if len(word) != n or min(word) < 0 or max(word) >= size:
                self.alphabet.check_word(word, n)
            if not isinstance(value, Fraction):
                value = Fraction(value)
            num = value.numerator
            if num < 0:
                raise SumNotOne(f"negative probability {value} at {word}")
            if num:
                clean[word] = value
                den = value.denominator
                numerators[den] = numerators.get(den, 0) + num
        total = sum((Fraction(num, den) for den, num in numerators.items()), ZERO)
        if total != ONE:
            raise SumNotOne(f"entries sum to {total}, expected 1")
        object.__setattr__(self, "entries", clean)

    def __call__(self, word: Word) -> Fraction:
        return self.entries.get(tuple(word), ZERO)

    def support(self) -> Iterable[Word]:
        return self.entries.keys()


@dataclass(frozen=True)
class ConditionalDistribution:
    """Table of conditional distributions: input word over X -> law on A^n."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    n: int
    slices: Mapping[Word, FiniteDistribution]

    def __post_init__(self) -> None:
        clean: dict[Word, FiniteDistribution] = {}
        for word, dist in self.slices.items():
            word = tuple(word)
            self.input_alphabet.check_word(word, self.n)
            if dist.n != self.n or dist.alphabet.size != self.output_alphabet.size:
                raise DimensionMismatch("conditional slice shape mismatch")
            clean[word] = dist
        object.__setattr__(self, "slices", clean)

    def __call__(self, output_word: Word, input_word: Word) -> Fraction:
        dist = self.slices.get(tuple(input_word))
        if dist is None:
            raise KeyError(f"no conditional slice for input {input_word}")
        return dist(output_word)

    def inputs(self) -> Iterable[Word]:
        return self.slices.keys()


def dirac(alphabet: Alphabet, word: Word) -> FiniteDistribution:
    return FiniteDistribution(alphabet, len(word), {tuple(word): ONE})


def uniform(alphabet: Alphabet, n: int, cap: int = DEFAULT_ENUM_CAP) -> FiniteDistribution:
    total = alphabet.size**n
    if total > cap:
        raise CapExceeded(f"{total} words exceed cap {cap}")
    p = Fraction(1, total)
    return FiniteDistribution(alphabet, n, {w: p for w in alphabet.words(n, cap)})


def tensor_power(dist: FiniteDistribution, n: int, cap: int = DEFAULT_ENUM_CAP) -> FiniteDistribution:
    """n-fold product of a single-letter distribution: P(v_1..v_n) = prod D(v_i)."""
    if dist.n != 1:
        raise DimensionMismatch("tensor_power expects a distribution on single letters")
    if n < 1:
        raise BadWordLength("n must be >= 1")
    if len(dist.entries) ** n > cap:
        raise CapExceeded("tensor power support exceeds enumeration cap")
    entries: dict[Word, Fraction] = {}
    for combo in itertools.product(dist.entries.items(), repeat=n):
        word = tuple(letter for (letter,), _ in combo)
        value = ONE
        for _, p in combo:
            value *= p
        entries[word] = value
    return FiniteDistribution(dist.alphabet, n, entries)


def marginal(dist: FiniteDistribution, keep: int) -> FiniteDistribution:
    """Sum out all factors of a factored alphabet except ``keep`` (0-based)."""
    alphabet = dist.alphabet
    if alphabet.factors is None:
        raise NotFactored("marginal requires a factored alphabet")
    if not 0 <= keep < len(alphabet.factors):
        raise DimensionMismatch(f"factor index {keep} out of range")
    target = Alphabet(alphabet.factors[keep])
    entries: dict[Word, Fraction] = {}
    for word, value in dist.entries.items():
        projected = project_word(alphabet, word, keep)
        entries[projected] = entries.get(projected, ZERO) + value
    return FiniteDistribution(target, dist.n, entries)
