"""The benchmark's own class arithmetic, written apart from exkit.

Relations are plain tuples: ("exchangeable",), ("markov",), ("lmarkov", l)
and ("product", (part, ...)) on a factored alphabet.  Descriptors are tuples
too: ("exchangeable", counts) and (kind, l, start gram, rows) for the Markov
family, where row g counts the letters that follow the l-gram of row-major
rank g; a product descriptor is ("product", (part, ...)).  Letters are
0-based in memory and 1-based in the JSON files, as in exkit's formats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def alphabet_size(factors: tuple[int, ...]) -> int:
    return math.prod(factors)


def unpack(letter: int, factors: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major letter -> factor letters."""
    out = []
    for f in reversed(factors):
        out.append(letter % f)
        letter //= f
    return tuple(reversed(out))


def type_of(word: tuple[int, ...], relation: tuple, factors: tuple[int, ...]):
    """Descriptor of the class of ``word``."""
    d = alphabet_size(factors)
    kind = relation[0]
    if kind == "exchangeable":
        counts = [0] * d
        for letter in word:
            counts[letter] += 1
        return ("exchangeable", tuple(counts))
    if kind in ("markov", "lmarkov"):
        ell = 1 if kind == "markov" else relation[1]
        rows = [[0] * d for _ in range(d**ell)]
        for i in range(len(word) - ell):
            rank = 0
            for letter in word[i : i + ell]:
                rank = rank * d + letter
            rows[rank][word[i + ell]] += 1
        return (kind, ell, tuple(word[:ell]), tuple(map(tuple, rows)))
    if kind == "product":
        split = [unpack(letter, factors) for letter in word]
        return ("product", tuple(
            type_of(tuple(parts[i] for parts in split), part, (factors[i],))
            for i, part in enumerate(relation[1])
        ))
    raise ValueError(f"unknown relation {relation!r}")


def group_words(relation: tuple, factors: tuple[int, ...], n: int) -> dict:
    """Brute force: every word of length n, grouped by descriptor."""
    groups: dict = {}
    for word in itertools.product(range(alphabet_size(factors)), repeat=n):
        groups.setdefault(type_of(word, relation, factors), []).append(word)
    return groups


def descriptor_from_json(obj: dict):
    """Parse a class "type" object printed by exkit."""
    kind = obj["kind"]
    if kind == "exchangeable":
        return ("exchangeable", tuple(obj["t"]))
    if kind == "markov":
        return ("markov", 1, (obj["start"] - 1,), tuple(map(tuple, obj["t"])))
    if kind == "lmarkov":
        return ("lmarkov", obj["ell"], tuple(v - 1 for v in obj["start"]),
                tuple(map(tuple, obj["t"])))
    if kind == "product":
        return ("product", tuple(descriptor_from_json(p) for p in obj["parts"]))
    raise ValueError(f"unknown descriptor kind {kind!r}")


def pi_at(k, c) -> Fraction:
    """pi_k at any word of class c, by the closed form.

    Exchangeable: prod_z (t_kz / n)^t_cz.  Markov family: zero unless the
    start grams agree, else prod_{g,z} (t_kgz / r_kg)^t_cgz, with the
    uniform row 1/d where r_kg = 0.  Products multiply their factors.
    """
    if k[0] == "exchangeable":
        n = sum(k[1])
        value = Fraction(1)
        for tk, tc in zip(k[1], c[1]):
            if tc:
                value *= Fraction(tk, n) ** tc
        return value
    if k[0] == "product":
        return math.prod((pi_at(kp, cp) for kp, cp in zip(k[1], c[1])), start=Fraction(1))
    if k[2] != c[2]:
        return Fraction(0)
    value = Fraction(1)
    for row_k, row_c in zip(k[3], c[3]):
        r = sum(row_k)
        for tk, tc in zip(row_k, row_c):
            if tc:
                value *= (Fraction(tk, r) if r else Fraction(1, len(row_k))) ** tc
    return value


def candidates(relation_kind: str, ell: int, d: int, n: int) -> int:
    """Candidates of exkit's enumeration loop for one relation, by formula.

    d^l * C(n - l + d^(l+1) - 1, d^(l+1) - 1) start grams times compositions
    for the Markov family (l = 1 for Markov), C(n + d - 1, d - 1)
    compositions for exchangeability.
    """
    if relation_kind == "exchangeable":
        return math.comb(n + d - 1, d - 1)
    if relation_kind in ("markov", "lmarkov"):
        cells = d ** (ell + 1)
        return d**ell * math.comb(n - ell + cells - 1, cells - 1)
    raise ValueError(f"unknown relation kind {relation_kind!r}")


def word_str(word: tuple[int, ...]) -> str:
    return "".join(str(letter + 1) for letter in word)


def invariant_distribution(groups: dict, rng) -> dict:
    """Relation-invariant P with every class in the support: the classes get
    the weights 1..N in a seeded random order, each spread evenly over its
    words.  Every seed draws from the same weights, so the size of the
    rationals, and with it the cost of an op, barely depends on the seed.
    Returns the probability of one word of each class, keyed by descriptor."""
    classes = sorted(groups)
    weights = list(range(1, len(classes) + 1))
    rng.shuffle(weights)
    total = sum(weights)
    return {descr: Fraction(w, total * len(groups[descr])) for descr, w in zip(classes, weights)}


def distribution_json(groups: dict, per_word: dict, factors: tuple[int, ...], n: int) -> dict:
    """exkit's distribution file format for P."""
    obj: dict = {"d": alphabet_size(factors), "n": n}
    if len(factors) > 1:
        obj["factors"] = list(factors)
    obj["entries"] = {
        word_str(w): f"{p.numerator}/{p.denominator}"
        for descr, p in per_word.items() for w in groups[descr]
    }
    return obj
