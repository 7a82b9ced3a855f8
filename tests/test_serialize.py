import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exkit import serialize
from exkit.core import Alphabet, FiniteDistribution, uniform
from exkit.errors import BadParams, ExkitError
from exkit.games import chsh_game, iid_kernel, classical_value
from exkit.relations import (
    EXCHANGEABLE,
    Exchangeable,
    ExchangeableType,
    LMarkov,
    LMarkovType,
    Markov,
    MarkovType,
    ProductRelation,
    ProductType,
)


def test_rational_strings():
    assert serialize.rational_str(Fraction(1, 2)) == "1/2"
    assert serialize.rational_str(Fraction(3)) == "3/1"
    assert serialize.parse_rational("7/4") == Fraction(7, 4)


def test_word_strings_digit_and_comma_forms():
    assert serialize.word_str((0, 0, 2, 1), 3) == "1132"
    assert serialize.parse_word("1132", 3) == (0, 0, 2, 1)
    assert serialize.word_str((0, 11), 12) == "1,12"
    assert serialize.parse_word("1,12", 12) == (0, 11)
    with pytest.raises(ExkitError):
        serialize.parse_word("19", 3)


def test_distribution_round_trip():
    p = FiniteDistribution(
        Alphabet(2), 2, {(0, 0): Fraction(1, 3), (1, 1): Fraction(2, 3)}
    )
    obj = serialize.distribution_to_json(p)
    assert obj["entries"] == {"11": "1/3", "22": "2/3"}
    back = serialize.distribution_from_json(obj)
    assert back.entries == p.entries and back.alphabet.size == 2


def test_distribution_round_trip_factored():
    joint = Alphabet(4, (2, 2))
    p = uniform(joint, 2)
    back = serialize.distribution_from_json(serialize.distribution_to_json(p))
    assert back.alphabet.factors == (2, 2)
    assert back.entries == p.entries


def test_relation_round_trip():
    for rel in (
        Exchangeable(),
        Markov(),
        LMarkov(3),
        ProductRelation((Exchangeable(), Markov())),
    ):
        assert serialize.relation_from_json(serialize.relation_to_json(rel)) == rel


def test_descriptor_round_trip():
    descriptors = [
        ExchangeableType((3, 0, 2)),
        MarkovType(1, ((1, 0), (2, 1))),
        LMarkovType(2, (0, 1), ((1, 0), (0, 1), (1, 0), (0, 0))),
        ProductType((ExchangeableType((1, 1)), MarkovType(0, ((1, 0), (0, 0))))),
    ]
    for descr in descriptors:
        obj = serialize.descriptor_to_json(descr)
        assert serialize.descriptor_from_json(obj) == descr
    # external start letters are 1-indexed
    assert serialize.descriptor_to_json(descriptors[1])["start"] == 2


def test_game_round_trip_preserves_value():
    g = chsh_game()
    back = serialize.game_from_json(serialize.game_to_json(g))
    assert classical_value(back)[0] == classical_value(g)[0]
    assert serialize.game_to_json(back) == serialize.game_to_json(g)


def test_kernel_round_trip():
    k = iid_kernel(chsh_game())
    back = serialize.kernel_from_json(serialize.kernel_to_json(k))
    assert back.rows == k.rows


def test_certificate_json_shape():
    from exkit.reduction import verify_flexible_reduction

    p = uniform(Alphabet(2), 3)
    cert = verify_flexible_reduction(p, EXCHANGEABLE)
    obj = serialize.reduction_certificate_to_json(cert)
    text = serialize.dumps(obj)
    parsed = json.loads(text)
    assert parsed["verdict"] == "holds"
    assert parsed["N"] == 4
    assert all("/" in row["tight_ratio"] for row in parsed["classes"])
    interval = parsed["alpha_analytic"]
    assert Fraction(interval["lo"]) <= Fraction(interval["hi"])


def test_conditional_certificate_json_shape():
    from exkit.conditional import verify_conditional_reduction

    cert = verify_conditional_reduction(uniform(Alphabet(4, (2, 2)), 2))
    obj = serialize.conditional_certificate_to_json(cert)
    parsed = json.loads(serialize.dumps(obj))
    assert parsed["verdict"] == "holds"
    assert all(row["alpha_prime_used"] == "1/1" for row in parsed["classes"])


def test_dumps_deterministic():
    obj = {"b": [1, 2], "a": {"y": "1/2", "x": "3/4"}}
    assert serialize.dumps(obj) == serialize.dumps(json.loads(serialize.dumps(obj)))


# dumps is a writer of its own that must print exactly what the stdlib's
# indent-2, sorted-key encoder prints.

_TEXT = st.one_of(st.text(), st.text(alphabet='"\\/\x00\x1f\x7f\n\té \U0001f600'))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**80), 10**80),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(), max_size=4),
        st.lists(_TEXT, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_VALUES)
@example({"": [], "b": {}, "a": (1, -(2**200), True, None), "é\"\n": ["x", "\x00"]})
@example([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, [[], {}, ()]])
@example(())
def test_dumps_is_byte_exact_against_the_stdlib(value):
    assert serialize.dumps(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, {"a": [object()]}, [Fraction(1, 2)], ({"x": frozenset()},)])
def test_dumps_raises_the_stdlibs_type_error(value):
    with pytest.raises(TypeError) as ours:
        serialize.dumps(value)
    with pytest.raises(TypeError) as stdlib:
        json.dumps(value, sort_keys=True, indent=2)
    assert str(ours.value) == str(stdlib.value)


def test_distribution_from_json_shares_one_fraction_per_value_text():
    dist = serialize.distribution_from_json(
        {"d": 2, "n": 2, "entries": {"11": "1/4", "12": "1/4", "21": "1/4", "22": "2/8"}}
    )
    assert dist.entries[(0, 0)] is dist.entries[(0, 1)] is dist.entries[(1, 0)]
    assert dist.entries[(1, 1)] == Fraction(1, 4)


# The readers name the field that is missing or malformed.


@pytest.mark.parametrize("obj, field", [
    ({"ell": 2}, "'kind'"),
    ({"kind": "lmarkov"}, "'ell'"),
    ({"kind": "lmarkov", "ell": "x"}, "'ell'"),
    ({"kind": "lmarkov", "ell": None}, "'ell'"),
    ({"kind": "product"}, "'parts'"),
])
def test_relation_from_json_names_the_bad_field(obj, field):
    with pytest.raises(ExkitError, match=re.escape(field)):
        serialize.relation_from_json(obj)


@pytest.mark.parametrize("obj", [
    {"kind": "lmarkov", "ell": 0},
    {"kind": "product", "parts": [{"kind": "product", "parts": [{"kind": "exchangeable"}]}]},
])
def test_relation_from_json_rejects_bad_params(obj):
    with pytest.raises(BadParams):
        serialize.relation_from_json(obj)


@pytest.mark.parametrize("obj, field", [
    ({"t": [1, 2]}, "'kind'"),
    ({"kind": "exchangeable"}, "'t'"),
    ({"kind": "exchangeable", "t": ["a", 1]}, "'t'"),
    ({"kind": "markov", "t": [[1, 0], [0, 1]]}, "'start'"),
    ({"kind": "markov", "start": "x", "t": [[1, 0], [0, 1]]}, "'start'"),
    ({"kind": "markov", "start": 1}, "'t'"),
    ({"kind": "markov", "start": 1, "t": [[1, "0"], [0, 1]]}, "'t'"),
    ({"kind": "lmarkov", "start": [1], "t": [[1, 0], [0, 1]]}, "'ell'"),
    ({"kind": "lmarkov", "ell": 1, "t": [[1, 0], [0, 1]]}, "'start'"),
    ({"kind": "product"}, "'parts'"),
    ({"kind": "product", "parts": [{"kind": "exchangeable"}]}, "'t'"),
])
def test_descriptor_from_json_names_the_bad_field(obj, field):
    with pytest.raises(ExkitError, match=re.escape(field)):
        serialize.descriptor_from_json(obj)


# Descriptors are checked once, where they come in from outside.


@pytest.mark.parametrize("obj, field", [
    ({"kind": "exchangeable", "t": [2, -1]}, "'t' has a negative count"),
    ({"kind": "markov", "start": 1, "t": [[1, 0], [0, -1]]}, "'t' has a negative count"),
    ({"kind": "markov", "start": 1, "t": [[1, 0], [0]]}, "'t' must have d^ell rows"),
    ({"kind": "markov", "start": 1, "t": [[1, 0], [0, 1], [1, 1]]}, "'t' must have d^ell rows"),
    ({"kind": "lmarkov", "ell": 2, "start": [1, 1], "t": [[1, 0], [0, 1]]}, "'t' must have d^ell rows"),
    ({"kind": "markov", "start": 3, "t": [[1, 0], [0, 1]]}, "'start' has a letter outside 1..2"),
    ({"kind": "markov", "start": 0, "t": [[1, 0], [0, 1]]}, "'start' has a letter outside 1..2"),
    ({"kind": "lmarkov", "ell": 2, "start": [1], "t": [[1, 0], [0, 0], [0, 0], [0, 0]]},
     "'start' must have ell = 2 letters"),
    ({"kind": "lmarkov", "ell": 0, "start": [], "t": [[1, 0]]}, "'ell' must be >= 1"),
])
def test_descriptor_from_json_checks_shape_sign_and_start(obj, field):
    with pytest.raises(ExkitError, match=re.escape(field)):
        serialize.descriptor_from_json(obj)

