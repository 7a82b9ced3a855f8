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
where an object belongs or a rational with a zero denominator.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .conditional import ConditionalCertificate
from .core import Alphabet, FiniteDistribution, Word, rational_str
from .errors import ExkitError
from .games import Game, SequentialKernel, Strategy
from .graphs import DirectedMultigraph
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


def word_str(word: Word, alphabet_size: int) -> str:
    if alphabet_size <= 9:
        return "".join(str(letter + 1) for letter in word)
    return ",".join(str(letter + 1) for letter in word)


def parse_word(text: str, alphabet_size: int) -> Word:
    text = str(text)
    if "," in text:
        letters = tuple(int(part) - 1 for part in text.split(","))
    else:
        letters = tuple(int(ch) - 1 for ch in text)
    if any(not 0 <= v < alphabet_size for v in letters):
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
    _object(obj, "a distribution")
    factors = obj.get("factors")
    factors = tuple(_int_array(factors, "factors")) if factors else None
    alphabet = Alphabet(int(obj["d"]), factors)
    entries = {
        parse_word(k, alphabet.size): parse_rational(v)
        for k, v in _object(obj["entries"], "entries").items()
    }
    return FiniteDistribution(alphabet, int(obj["n"]), entries)


# -- relations and descriptors ----------------------------------------------------


def relation_to_json(relation: Relation) -> dict:
    return relation.to_json()


def relation_from_json(obj: dict) -> Relation:
    kind = _object(obj, "a relation")["kind"]
    if kind == "exchangeable":
        return Exchangeable()
    if kind == "markov":
        return Markov()
    if kind == "lmarkov":
        return LMarkov(int(obj["ell"]))
    if kind == "product":
        return ProductRelation(tuple(relation_from_json(p) for p in obj["parts"]))
    raise ExkitError(f"unknown relation kind {kind!r}")


def descriptor_to_json(descriptor: TypeDescriptor) -> dict:
    return descriptor.to_json()


def descriptor_from_json(obj: dict) -> TypeDescriptor:
    kind = obj["kind"]
    if kind == "exchangeable":
        return ExchangeableType(tuple(obj["t"]))
    if kind == "markov":
        return MarkovType(int(obj["start"]) - 1, tuple(tuple(row) for row in obj["t"]))
    if kind == "lmarkov":
        return LMarkovType(
            int(obj["ell"]),
            tuple(int(v) - 1 for v in obj["start"]),
            tuple(tuple(row) for row in obj["t"]),
        )
    if kind == "product":
        return ProductType(tuple(descriptor_from_json(p) for p in obj["parts"]))
    raise ExkitError(f"unknown descriptor kind {kind!r}")


# -- graphs ------------------------------------------------------------------------


def multigraph_to_json(g: DirectedMultigraph) -> dict:
    return {"m": g.m, "M": [list(row) for row in g.M]}


def multigraph_from_json(obj: dict) -> DirectedMultigraph:
    return DirectedMultigraph(int(obj["m"]), tuple(tuple(row) for row in obj["M"]))


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
    xi = {x: i for i, x in enumerate(game.inputs_x)}
    yi = {y: i for i, y in enumerate(game.inputs_y)}
    ai = {a: i for i, a in enumerate(game.outputs_a)}
    bi = {b: i for i, b in enumerate(game.outputs_b)}
    return {
        "X": len(game.inputs_x),
        "Y": len(game.inputs_y),
        "A": len(game.outputs_a),
        "B": len(game.outputs_b),
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
    _object(obj, "a game")
    nx, ny, na, nb = int(obj["X"]), int(obj["Y"]), int(obj["A"]), int(obj["B"])
    law = {}
    for key, value in _object(obj["T"], "T").items():
        x, y = (int(part) - 1 for part in str(key).split(","))
        law[(x, y)] = parse_rational(value)
    predicate = frozenset(
        tuple(v - 1 for v in _int_array(entry, "an entry of V", 4))
        for entry in _array(obj["V"], "V")
    )
    return Game(
        tuple(range(nx)), tuple(range(ny)), tuple(range(na)), tuple(range(nb)), law, predicate
    )


def kernel_to_json(kernel: SequentialKernel) -> dict:
    return {
        "rows": {
            f"{prev[0] + 1},{prev[1] + 1}": {
                f"{nxt[0] + 1},{nxt[1] + 1}": rational_str(v) for nxt, v in sorted(row.items())
            }
            for prev, row in sorted(kernel.rows.items())
        }
    }


def kernel_from_json(obj: dict) -> SequentialKernel:
    rows = {}
    for prev_key, row in _object(_object(obj, "a kernel")["rows"], "rows").items():
        px, py = (int(part) - 1 for part in str(prev_key).split(","))
        rows[(px, py)] = {
            tuple(int(part) - 1 for part in str(nk).split(",")): parse_rational(v)
            for nk, v in _object(row, f"row {prev_key}").items()
        }
    return SequentialKernel(rows)


def strategy_from_json(obj: dict) -> Strategy:
    table = {}
    for xy_key, row in _object(_object(obj, "a strategy")["slices"], "slices").items():
        xy = tuple(int(part) - 1 for part in str(xy_key).split(","))
        table[xy] = {
            tuple(int(part) - 1 for part in str(ab).split(",")): parse_rational(v)
            for ab, v in _object(row, f"slice {xy_key}").items()
        }
    return Strategy(table)


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)
