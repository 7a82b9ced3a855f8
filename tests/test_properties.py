"""Property-based checks of the class combinatorics against brute force.

Relations are drawn from exchangeable, Markov, l-Markov(1), l-Markov(2) and
exchangeable x Markov with small alphabets and word lengths, so that every
d^n word can be grouped by its descriptor as an oracle.
"""

from hypothesis import given, settings, strategies as st

from exkit import serialize
from exkit.core import Alphabet
from exkit.reduction import pi_value
from exkit.relations import (
    EXCHANGEABLE,
    MARKOV,
    LMarkov,
    ProductRelation,
    brute_force_index,
    class_members,
    class_size,
    enumerate_types,
    representative,
    type_of,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def relation_cases(draw):
    """(relation, alphabet, n) with at most a few hundred words."""
    kind = draw(st.sampled_from(["exchangeable", "markov", "lmarkov1", "lmarkov2", "product"]))
    if kind == "product":
        factors = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
        alphabet = Alphabet(factors[0] * factors[1], factors)
        return ProductRelation((EXCHANGEABLE, MARKOV)), alphabet, draw(st.integers(1, 3))
    if kind == "lmarkov2":
        return LMarkov(2), Alphabet(draw(st.integers(1, 2))), draw(st.integers(3, 6))
    relation = {"exchangeable": EXCHANGEABLE, "markov": MARKOV, "lmarkov1": LMarkov(1)}[kind]
    least = 2 if kind == "lmarkov1" else 1
    return relation, Alphabet(draw(st.integers(1, 3))), draw(st.integers(least, 5))


@PROPERTY_SETTINGS
@given(relation_cases())
def test_class_sizes_match_brute_force(case):
    relation, alphabet, n = case
    index = enumerate_types(relation, alphabet, n)
    groups = brute_force_index(relation, alphabet, n)
    assert sum(size for _, size in index.items) == alphabet.size**n
    assert dict(index.items) == {descr: len(words) for descr, words in groups.items()}


@PROPERTY_SETTINGS
@given(relation_cases())
def test_members_and_representative_have_the_class_type(case):
    relation, alphabet, n = case
    groups = brute_force_index(relation, alphabet, n)
    for descr, words in groups.items():
        members = class_members(descr, n)
        assert class_size(descr, n) == len(members)
        assert members == sorted(words)
        assert all(type_of(w, relation, alphabet) == descr for w in members)
        assert type_of(representative(descr, n), relation, alphabet) == descr


@PROPERTY_SETTINGS
@given(relation_cases())
def test_json_round_trips(case):
    relation, alphabet, n = case
    rel_json = serialize.relation_to_json(relation)
    assert serialize.relation_from_json(rel_json) == relation
    for descr, _ in enumerate_types(relation, alphabet, n).items:
        obj = serialize.descriptor_to_json(descr)
        assert serialize.descriptor_from_json(obj) == descr
        assert serialize.descriptor_to_json(serialize.descriptor_from_json(obj)) == obj


@PROPERTY_SETTINGS
@given(st.integers(1, 3), st.integers(2, 5))
def test_markov_is_lmarkov1(d, n):
    alphabet = Alphabet(d)
    markov = brute_force_index(MARKOV, alphabet, n)
    lmarkov = brute_force_index(LMarkov(1), alphabet, n)
    assert {frozenset(ws) for ws in markov.values()} == {frozenset(ws) for ws in lmarkov.values()}
    by_word = {ws[0]: descr for descr, ws in lmarkov.items()}
    reps = [representative(descr, n) for descr in markov]
    for descr, words in markov.items():
        twin = by_word[words[0]]
        assert class_size(descr, n) == class_size(twin, n)
        assert representative(descr, n) == representative(twin, n)
        for rep in reps:
            assert pi_value(descr, rep, n) == pi_value(twin, rep, n)
