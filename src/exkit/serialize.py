"""JSON round-trips for every persisted artifact.

Conventions shared by all formats:

* rationals are decimal-free "p/q" strings (exact);
* intervals are {"lo": <decimal>, "hi": <decimal>, "bits": n} with the lo
  rounded down and the hi rounded up, so reparsing stays a valid enclosure;
* letters and factor indices are 1-indexed externally (matching the worked
  examples) and 0-indexed in memory;
* words are digit strings for alphabets up to size 9, comma-separated
  1-indexed numbers otherwise.

The readers raise ExkitError on input of the wrong shape, such as an array
where an object belongs, a rational with a zero denominator or a word listed
under two spellings ("12" and "1,2").
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .conditional import ConditionalCertificate
from .core import Alphabet, FiniteDistribution, Word, rational_str
from .errors import ExkitError
from .games import Game, SequentialKernel, Strategy
from .reduction import ReductionCertificate
from .relations import (
    Exchangeable,
    ExchangeableType,
    LMarkov,
    LMarkovType,
    Markov,
    ProductRelation,
    ProductType,
    MarkovType,
    Relation,
    TypeDescriptor,
)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ExkitError(f"{text!r} is not a rational p/q") from None


def _object(obj, what: str) -> dict:
    """``obj`` when it is a JSON object, else an input error naming ``what``."""
    if not isinstance(obj, dict):
        raise ExkitError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _array(obj, what: str) -> list:
    """``obj`` when it is a JSON array, else an input error naming ``what``."""
    if not isinstance(obj, list):
        raise ExkitError(f"{what} must be a JSON array, got {type(obj).__name__}")
    return obj


def _int_array(obj, what: str, length: int | None = None) -> list[int]:
    """``obj`` when it is a JSON array of integers, of ``length`` entries
    when given, else an input error naming ``what``."""
    if not all(isinstance(v, int) for v in _array(obj, what)) or length not in (None, len(obj)):
        raise ExkitError(f"{what} must be an array of {length or 'some'} integers, got {obj!r}")
    return obj


def _field(obj: dict, name: str, what: str):
    """``obj[name]``, else an input error naming the field."""
    if name not in obj:
        raise ExkitError(f"{what} has no {name!r} field")
    return obj[name]


def _int_field(obj: dict, name: str, what: str) -> int:
    """``obj[name]`` read as an integer, else an input error naming the field."""
    value = _field(obj, name, what)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ExkitError(f"{what}'s {name!r} must be an integer, got {value!r}") from None


def _counts(obj, what: str) -> tuple[int, ...]:
    """``obj`` as a tuple when it is a JSON array of nonnegative integers,
    else an input error naming ``what``."""
    counts = tuple(_int_array(obj, what))
    if any(c < 0 for c in counts):
        raise ExkitError(f"{what} has a negative count: {obj!r}")
    return counts


def _index_pair(key, what: str) -> tuple[int, int]:
    """A key "i,j" of 1-based indices as 0-based ones, else an input error
    naming ``what``."""
    try:
        i, j = (int(part) - 1 for part in str(key).split(","))
    except ValueError:
        raise ExkitError(f"{what} key {key!r} must be two indices \"i,j\"") from None
    return i, j


def _within(indices: tuple, sizes: tuple, what: str, key) -> tuple:
    """0-based ``indices`` when each lies below its size, else an input
    error naming ``what`` and the ``key`` they were read from."""
    if not all(0 <= i < size for i, size in zip(indices, sizes)):
        raise ExkitError(f"{what} {key!r} is outside {' x '.join(f'1..{s}' for s in sizes)}")
    return indices


def word_str(word: Word, alphabet_size: int) -> str:
    if alphabet_size <= 9:
        return "".join(str(letter + 1) for letter in word)
    return ",".join(str(letter + 1) for letter in word)


_DIGIT_LETTERS = {str(v + 1): v for v in range(9)}


def parse_word(text: str, alphabet_size: int) -> Word:
    """The 0-based word a digit or comma-separated string names; a digit
    string of "1".."9" is read through a table, any other goes through
    ``int`` so that its error stays ``int``'s."""
    text = str(text)
    if "," in text:
        letters = tuple(int(part) - 1 for part in text.split(","))
    else:
        try:
            letters = tuple(map(_DIGIT_LETTERS.__getitem__, text))
        except KeyError:
            letters = tuple(int(ch) - 1 for ch in text)
    if letters and (min(letters) < 0 or max(letters) >= alphabet_size):
        raise ExkitError(f"word {text!r} has letters outside 1..{alphabet_size}")
    return letters


# -- distributions ---------------------------------------------------------------


def distribution_to_json(dist: FiniteDistribution) -> dict:
    obj: dict[str, Any] = {"d": dist.alphabet.size, "n": dist.n}
    if dist.alphabet.factors is not None:
        obj["factors"] = list(dist.alphabet.factors)
    obj["entries"] = {
        word_str(w, dist.alphabet.size): rational_str(v)
        for w, v in sorted(dist.entries.items())
    }
    return obj


def distribution_from_json(obj: dict) -> FiniteDistribution:
    what = "a distribution"
    _object(obj, what)
    factors = obj.get("factors")
    factors = tuple(_int_array(factors, "factors")) if factors else None
    d = _int_field(obj, "d", what)
    if d < 1:
        raise ExkitError(f"{what}'s 'd' must be >= 1, got {d}")
    if factors and (min(factors) < 1 or math.prod(factors) != d):
        raise ExkitError(f"{what}'s 'factors' must be >= 1 with product {d}, got {list(factors)}")
    alphabet = Alphabet(d, factors)
    n = _int_field(obj, "n", what)
    listed = _object(_field(obj, "entries", what), "entries")
    # Each distinct value text is parsed once, so the words of a class share
    # one Fraction.  Only str values: true, 1 and 1.0 are equal dict keys.
    parsed: dict[str, Fraction] = {}
    entries = {}
    for key, text in listed.items():
        word = parse_word(key, d)
        if type(text) is not str:
            value = parse_rational(text)
        elif (value := parsed.get(text)) is None:
            value = parsed[text] = parse_rational(text)
        entries[word] = value
    if len(entries) != len(listed):
        spelled: dict[Word, str] = {}
        for key in listed:
            first = spelled.setdefault(parse_word(key, d), key)
            if first != key:
                raise ExkitError(f"entries {first!r} and {key!r} name the same word")
    return FiniteDistribution(alphabet, n, entries)


# -- relations and descriptors ----------------------------------------------------


def relation_to_json(relation: Relation) -> dict:
    return relation.to_json()


def relation_from_json(obj: dict) -> Relation:
    what = "a relation"
    kind = _field(_object(obj, what), "kind", what)
    if kind == "exchangeable":
        return Exchangeable()
    if kind == "markov":
        return Markov()
    if kind == "lmarkov":
        return LMarkov(_int_field(obj, "ell", what))
    if kind == "product":
        parts = _array(_field(obj, "parts", what), "a product's parts")
        return ProductRelation(tuple(relation_from_json(p) for p in parts))
    raise ExkitError(f"unknown relation kind {kind!r}")


def descriptor_to_json(descriptor: TypeDescriptor) -> dict:
    return descriptor.to_json()


def descriptor_from_json(obj: dict) -> TypeDescriptor:
    """The descriptor ``obj`` names, checked here once: the descriptor
    classes take their fields on trust, as ``type_of`` and the enumeration
    build only valid ones.  Counts are nonnegative; a Markov-family ``t`` has
    d^ell rows of d counts, and ``start`` ell letters in 1..d."""
    what = "a type descriptor"
    kind = _field(_object(obj, what), "kind", what)
    if kind == "product":
        parts = _array(_field(obj, "parts", what), "a product's parts")
        return ProductType(tuple(descriptor_from_json(p) for p in parts))
    if kind not in ("exchangeable", "markov", "lmarkov"):
        raise ExkitError(f"unknown descriptor kind {kind!r}")
    t = _array(_field(obj, "t", what), f"{what}'s 't'")
    if kind == "exchangeable":
        return ExchangeableType(_counts(t, f"{what}'s 't'"))
    rows = tuple(_counts(row, f"a row of {what}'s 't'") for row in t)
    if kind == "markov":
        ell, start = 1, [_int_field(obj, "start", what)]
    else:
        ell = _int_field(obj, "ell", what)
        if ell < 1:
            raise ExkitError(f"{what}'s 'ell' must be >= 1, got {ell}")
        start = _int_array(_field(obj, "start", what), f"{what}'s 'start'")
        if len(start) != ell:
            raise ExkitError(f"{what}'s 'start' must have ell = {ell} letters, got {start!r}")
    d = len(rows[0]) if rows else 0
    if not d or len(rows) != d**ell or any(len(row) != d for row in rows):
        raise ExkitError(f"{what}'s 't' must have d^ell rows of d counts, got {t!r}")
    if any(not 1 <= v <= d for v in start):
        raise ExkitError(f"{what}'s 'start' has a letter outside 1..{d}: {start!r}")
    if kind == "markov":
        return MarkovType(start[0] - 1, rows)
    return LMarkovType(ell, tuple(v - 1 for v in start), rows)


# -- certificates --------------------------------------------------------------------


def reduction_certificate_to_json(cert: ReductionCertificate) -> dict:
    return {
        "kind": "reduction",
        "relation": relation_to_json(cert.relation),
        "n": cert.n,
        "d": cert.d,
        "verdict": cert.verdict,
        "bits": cert.bits,
        "alpha_mode": cert.alpha_mode,
        "alpha_analytic": cert.alpha.value.to_json(),
        "alpha_squared": cert.alpha.squared.to_json(),
        "degree": cert.alpha.degree,
        "alpha_tight_max": rational_str(cert.alpha_tight_max),
        "prefactor": cert.prefactor.to_json(),
        "N": cert.N,
        "weights": [rational_str(w) for w in cert.weights],
        "classes": [
            {
                "type": descriptor_to_json(rec.descriptor),
                "size": rec.size,
                "tight_ratio": rational_str(rec.tight_ratio),
                "fidelity_sq": rec.fidelity_sq.to_json(),
                "verdict": rec.verdict,
                "tight_within_analytic": rec.tight_within_analytic,
            }
            for rec in cert.records
        ],
    }


def conditional_certificate_to_json(cert: ConditionalCertificate) -> dict:
    return {
        "kind": "conditional",
        "a_size": cert.a_size,
        "x_size": cert.x_size,
        "n": cert.n,
        "verdict": cert.verdict,
        "bits": cert.bits,
        "alpha": cert.alpha.value.to_json(),
        "degree": cert.alpha.degree,
        "prefactor": cert.prefactor.to_json(),
        "N": cert.N,
        "classes": [
            {
                "type": descriptor_to_json(rec.descriptor),
                "verdict": rec.verdict,
                "rhs_sum": rational_str(rec.rhs_sum),
                "alpha_prime_used": rational_str(rec.alpha_prime_used),
                "alpha_prime_tight": rational_str(rec.alpha_prime_tight),
            }
            for rec in cert.records
        ],
    }


# -- games -----------------------------------------------------------------------------


def game_to_json(game: Game) -> dict:
    xi, yi, ai, bi = ({v: i for i, v in enumerate(axis)} for axis in game.axes)
    return {
        **{name: len(axis) for name, axis in zip("XYAB", game.axes)},
        "T": {
            f"{xi[x] + 1},{yi[y] + 1}": rational_str(v)
            for (x, y), v in sorted(
                game.input_law.items(), key=lambda kv: (xi[kv[0][0]], yi[kv[0][1]])
            )
        },
        "V": sorted(
            [xi[x] + 1, yi[y] + 1, ai[a] + 1, bi[b] + 1]
            for (x, y, a, b) in game.predicate
        ),
    }


def game_from_json(obj: dict) -> Game:
    what = "a game"
    _object(obj, what)
    sizes = tuple(_int_field(obj, axis, what) for axis in "XYAB")
    law = {
        _within(_index_pair(key, "T"), sizes[:2], "T key", key): parse_rational(value)
        for key, value in _object(_field(obj, "T", what), "T").items()
    }
    predicate = frozenset(
        _within(tuple(v - 1 for v in _int_array(entry, "an entry of V", 4)), sizes, "V entry", entry)
        for entry in _array(_field(obj, "V", what), "V")
    )
    return Game(*(tuple(range(size)) for size in sizes), law, predicate)


def kernel_to_json(kernel: SequentialKernel) -> dict:
    return {
        "rows": {
            f"{prev[0] + 1},{prev[1] + 1}": {
                f"{nxt[0] + 1},{nxt[1] + 1}": rational_str(v) for nxt, v in sorted(row.items())
            }
            for prev, row in sorted(kernel.rows.items())
        }
    }


def _pair_table(obj, what: str, field: str, row: str) -> dict:
    """``obj[field]``, a table "i,j" -> "i,j" -> "p/q", keyed by 0-based
    index pairs, else an input error naming ``what``, ``field`` or the
    ``row`` and its key."""
    table = _object(_field(_object(obj, what), field, what), field)
    return {
        _index_pair(key, field): {
            _index_pair(inner, f"{row} {key}"): parse_rational(v)
            for inner, v in _object(cells, f"{row} {key}").items()
        }
        for key, cells in table.items()
    }


def kernel_from_json(obj: dict) -> SequentialKernel:
    return SequentialKernel(_pair_table(obj, "a kernel", "rows", "row"))


def strategy_from_json(obj: dict) -> Strategy:
    return Strategy(_pair_table(obj, "a strategy", "slices", "slice"))


def dumps(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2)`` (whose indent makes
    the stdlib encode in pure Python) for dicts with str keys, lists, tuples,
    str, int, bool and None; any other value goes through ``json.dumps``,
    which prints a float and raises TypeError on an unserializable object."""
    return _write(obj, "\n")


def _write(value, newline: str) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ("," + inner).join(
            f"{encode_basestring_ascii(k)}: {_write(v, inner)}" for k, v in sorted(value.items())
        )
        return f"{{{inner}{body}{newline}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, value)
        else:
            items = (_write(v, inner) for v in value)
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    return json.dumps(value)
