import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exkit.core import (
    Alphabet,
    FiniteDistribution,
    dirac,
    marginal,
    project_word,
    tensor_power,
    uniform,
)
from exkit.errors import BadWordLength, DimensionMismatch, NotFactored, SumNotOne
from exkit.intervals import IntervalScalar
from oracles import distribution_entries, pointwise_dominates

HALF = Fraction(1, 2)
ONE = Fraction(1)


def test_make_distribution_uniform_case():
    d = FiniteDistribution(Alphabet(2), 1, {(0,): HALF, (1,): HALF})
    assert d((0,)) == HALF and d((1,)) == HALF


def test_make_distribution_sum_not_one():
    with pytest.raises(SumNotOne):
        FiniteDistribution(Alphabet(2), 1, {(0,): Fraction(1, 3), (1,): Fraction(1, 3)})


def test_make_distribution_full_uniform_count():
    d = uniform(Alphabet(3), 8)
    assert len(d.entries) == 3**8 == 6561
    assert d((0,) * 8) == Fraction(1, 6561)


def test_bad_word_length_and_letters():
    with pytest.raises(BadWordLength):
        FiniteDistribution(Alphabet(2), 2, {(0,): Fraction(1)})
    with pytest.raises(BadWordLength):
        FiniteDistribution(Alphabet(2), 1, {(5,): Fraction(1)})


def test_tensor_power_uniform_and_dirac():
    u = FiniteDistribution(Alphabet(2), 1, {(0,): HALF, (1,): HALF})
    sq = tensor_power(u, 2)
    assert all(sq(w) == Fraction(1, 4) for w in [(0, 0), (0, 1), (1, 0), (1, 1)])
    point = dirac(Alphabet(2), (0,))
    assert tensor_power(point, 5).entries == {(0,) * 5: Fraction(1)}


def test_tensor_power_paper_type_evaluation():
    d = FiniteDistribution(
        Alphabet(3), 1, {(0,): Fraction(3, 8), (1,): Fraction(3, 8), (2,): Fraction(2, 8)}
    )
    p = tensor_power(d, 8)
    word = tuple(int(c) - 1 for c in "11323122")
    assert p(word) == Fraction(3**6 * 2**2, 8**8)


def test_marginal_of_per_letter_product_recovers_factor():
    joint = Alphabet(4, (2, 2))
    letter = FiniteDistribution(
        joint,
        1,
        {
            (joint.pack((a, x)),): Fraction(1, 2) * (Fraction(1, 3) if x == 0 else Fraction(2, 3))
            for a in (0, 1)
            for x in (0, 1)
        },
    )
    p = tensor_power(letter, 3)
    m = marginal(p, 1)
    expect = tensor_power(
        FiniteDistribution(Alphabet(2), 1, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}), 3
    )
    assert m.entries == expect.entries


def test_marginal_dirac_projection():
    joint = Alphabet(4, (2, 2))
    word = tuple(joint.pack(p) for p in ((0, 0), (1, 0), (1, 1)))
    m = marginal(dirac(joint, word), 1)
    assert m.entries == {(0, 0, 1): Fraction(1)}


def test_marginal_uniform_stays_uniform():
    joint = Alphabet(4, (2, 2))
    m = marginal(uniform(joint, 2), 1)
    assert all(v == Fraction(1, 4) for v in m.entries.values())


def test_marginal_requires_factored():
    with pytest.raises(NotFactored):
        marginal(uniform(Alphabet(2), 2), 0)


def test_pointwise_dominates_examples():
    u = FiniteDistribution(Alphabet(2), 1, {(0,): HALF, (1,): HALF})
    point = dirac(Alphabet(2), (0,))
    assert pointwise_dominates(IntervalScalar.exact(1), u, u).holds
    v = pointwise_dominates(IntervalScalar.exact(1), u, point)
    assert v.fails and v.witness == (0,) and v.margin == HALF
    assert pointwise_dominates(IntervalScalar.exact(2), u, point).holds


def test_pointwise_dominates_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pointwise_dominates(
            IntervalScalar.exact(1), uniform(Alphabet(2), 1), uniform(Alphabet(2), 2)
        )


def test_pointwise_verdicts_refine_monotonically():
    # An interval constant can be inconclusive, never both holds and fails;
    # tightening the interval only resolves, never flips.
    rng = random.Random(11)
    u = uniform(Alphabet(2), 2)
    for _ in range(50):
        c = Fraction(rng.randint(1, 8), 4)
        wide = IntervalScalar(c - Fraction(1, 2), c + Fraction(1, 2))
        narrow = IntervalScalar(c, c)
        p = uniform(Alphabet(2), 2) if rng.random() < 0.5 else dirac(Alphabet(2), (0, 0))
        v_wide = pointwise_dominates(wide, u, p)
        v_narrow = pointwise_dominates(narrow, u, p)
        if v_wide.holds:
            assert v_narrow.holds
        if v_wide.fails:
            assert v_narrow.fails


def test_alphabet_pack_unpack_round_trip():
    a = Alphabet(24, (2, 3, 4))
    for letter in range(24):
        assert a.pack(a.unpack(letter)) == letter
    with pytest.raises(ValueError):
        Alphabet(5, (2, 2))


@pytest.mark.parametrize("factors", [(2, 2), (3, 2), (2, 3, 2)])
def test_project_word_reads_the_unpacked_factor(factors):
    a = Alphabet(math.prod(factors), factors)
    word = tuple(range(a.size))
    for factor in range(len(factors)):
        assert project_word(a, word, factor) == tuple(a.unpack(z)[factor] for z in word)
    with pytest.raises(NotFactored):
        project_word(Alphabet(4), (0, 1), 0)


def test_zero_length_words_rejected():
    with pytest.raises(BadWordLength):
        FiniteDistribution(Alphabet(2), 0, {(): Fraction(1)})


class Letters(tuple):
    """A word given as a tuple subclass, which a distribution stores as a tuple."""


@st.composite
def distribution_inputs(draw):
    """(alphabet, n, entries) with Fraction, int and str values, among them
    negatives, zeros, unreduced and zero-denominator strings, and words of
    the wrong length or with letters out of range.  Most draws add a word
    whose value makes the listed values sum to 1."""
    d, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    valid = st.tuples(*[st.integers(0, d - 1)] * n)
    word = st.one_of(valid, valid.map(Letters), st.lists(st.integers(-1, d), min_size=1, max_size=n + 1).map(tuple))
    num = st.integers(-2, 4)
    value = st.one_of(
        st.builds(Fraction, num, st.integers(1, 6)),
        st.integers(-1, 2),
        st.builds(lambda p, q, k: f"{p * k}/{q * k}", num, st.integers(0, 6), st.integers(1, 3)),
    )
    entries = draw(st.dictionaries(word, value, max_size=4))
    fresh = draw(valid)
    if draw(st.integers(0, 3)) and fresh not in entries:
        try:
            rest = 1 - sum(map(Fraction, entries.values()))
        except ZeroDivisionError:
            rest = ONE
        entries[fresh] = draw(st.sampled_from([rest, f"{3 * rest.numerator}/{3 * rest.denominator}"]))
    return Alphabet(d), n, entries


@settings(derandomize=True, deadline=None, max_examples=400)
@given(distribution_inputs())
@example((Alphabet(2), 2, {(0, 1): Fraction(1, 3), Letters((1, 0)): "2/6", (1, 1): 0, (0, 0): "1/3"}))
@example((Alphabet(2), 1, {(0,): Fraction(3, 2), (1,): "-1/2"}))
@example((Alphabet(2), 1, {(0,): Fraction(1, 2), (2,): "1/2"}))
@example((Alphabet(2), 0, {(): Fraction(1)}))
def test_distribution_keeps_and_rejects_as_the_word_at_a_time_definition(case):
    alphabet, n, entries = case
    try:
        expected = distribution_entries(alphabet, n, entries)
    except Exception as err:
        with pytest.raises(Exception) as got:
            FiniteDistribution(alphabet, n, entries)
        assert (type(got.value), str(got.value)) == (type(err), str(err))
        return
    dist = FiniteDistribution(alphabet, n, entries)
    assert dist.entries == expected
    assert all(type(word) is tuple for word in dist.entries)
    # A caller's Fraction is kept as the same object.
    for word, value in entries.items():
        if isinstance(value, Fraction) and value:
            assert dist.entries[tuple(word)] is value
