import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from exkit import graphs, relations
from exkit.core import Alphabet
from exkit.errors import CapExceeded, EmptyClass, InconsistentDescriptor, WordTooShort
from exkit.relations import (
    EXCHANGEABLE,
    MARKOV,
    Exchangeable,
    ExchangeableType,
    LMarkov,
    Markov,
    MarkovType,
    ProductRelation,
    ProductType,
    best_formula_terms,
    class_members,
    class_size,
    enumerate_types,
    representative,
    type_of,
)
from oracles import brute_force_index

A2, A3 = Alphabet(2), Alphabet(3)
A22 = Alphabet(4, (2, 2))
PAPER_WORD = tuple(int(c) - 1 for c in "11323122")
PAPER_TABLE = {
    "11323122", "11322312", "11312322", "11312232", "11231322", "11223132",
    "13112322", "13112232", "12311322", "13231122", "12231132", "13223112",
}


def as_digits(word):
    return "".join(str(v + 1) for v in word)


def test_type_of_paper_markov_matrix():
    descr = type_of(PAPER_WORD, MARKOV, A3)
    assert descr == MarkovType(0, ((1, 1, 1), (0, 1, 1), (1, 1, 0)))


def test_type_of_exchangeable_counts():
    assert type_of(PAPER_WORD, EXCHANGEABLE, A3) == ExchangeableType((3, 3, 2))


def test_product_type_equality_example():
    # ((1,1),(2,1),(2,2)) and ((1,2),(2,1),(2,1)) share the product type
    # (t1=(1,2), t2=(2,1)) without being globally exchangeable.
    rel = ProductRelation((Exchangeable(), Exchangeable()))
    w1 = tuple(A22.pack(p) for p in ((0, 0), (1, 0), (1, 1)))
    w2 = tuple(A22.pack(p) for p in ((0, 1), (1, 0), (1, 0)))
    t1 = type_of(w1, rel, A22)
    t2 = type_of(w2, rel, A22)
    assert t1 == t2 == ProductType((ExchangeableType((1, 2)), ExchangeableType((2, 1))))
    assert type_of(w1, EXCHANGEABLE, A22) != type_of(w2, EXCHANGEABLE, A22)


def test_enumerate_exchangeable_d2_n3():
    ix = enumerate_types(EXCHANGEABLE, A2, 3)
    assert [(t.counts, s) for t, s in ix.items] == [
        ((0, 3), 1), ((1, 2), 3), ((2, 1), 3), ((3, 0), 1),
    ]


def test_enumerate_markov_d2_n3_singletons():
    ix = enumerate_types(MARKOV, A2, 3)
    assert ix.N == 8 and all(s == 1 for _, s in ix.items)


def test_enumerate_exchangeable_class_count_formula():
    ix = enumerate_types(EXCHANGEABLE, A3, 8)
    assert ix.N == math.comb(10, 8) == 45
    for d in (1, 2, 3):
        for n in range(1, 7):
            ix = enumerate_types(EXCHANGEABLE, Alphabet(d), n)
            assert ix.N == math.comb(n + d - 1, n)


def test_markov_class_count_upper_bound():
    for d in (2, 3):
        for n in range(2, 6):
            ix = enumerate_types(MARKOV, Alphabet(d), n)
            assert ix.N <= d * math.comb(n + d * d - 1, n)


def test_is_nonempty_examples():
    assert class_size(MarkovType(0, ((0, 1), (0, 0))), 2) > 0
    assert not class_size(MarkovType(0, ((0, 0), (1, 0))), 2) > 0
    disconnected = MarkovType(0, ((1, 0, 0), (0, 0, 1), (0, 1, 0)))
    assert not class_size(disconnected, 4) > 0


def test_is_nonempty_inconsistent_counts():
    with pytest.raises(InconsistentDescriptor):
        class_size(ExchangeableType((1, 1)), 3) > 0
    with pytest.raises(InconsistentDescriptor):
        class_size(MarkovType(0, ((1, 1), (0, 0))), 5)
    # Still raised once the class size is cached on the descriptor.
    descr = MarkovType(0, ((1, 1), (0, 0)))
    assert class_size(descr, 3) == 1
    with pytest.raises(InconsistentDescriptor):
        class_size(descr, 5)


def test_class_members_paper_table():
    descr = type_of(PAPER_WORD, MARKOV, A3)
    assert {as_digits(w) for w in class_members(descr, 8)} == PAPER_TABLE
    assert "13211232" not in {as_digits(w) for w in class_members(descr, 8)}


def test_class_members_exchangeable():
    descr = ExchangeableType((2, 1))
    assert sorted(class_members(descr, 3)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_lmarkov_full_order_class_is_singleton():
    word = (0, 1, 1, 0, 1)
    descr = type_of(word, LMarkov(4), Alphabet(2))
    assert class_members(descr, 5) == [word]
    assert class_size(descr, 5) == 1


def test_class_size_examples():
    descr = type_of(PAPER_WORD, MARKOV, A3)
    assert class_size(descr, 8) == 12
    assert class_size(ExchangeableType((3, 3, 2)), 8) == 560
    word = tuple(int(c) for c in "00101100")
    lm = type_of(word, LMarkov(2), A2)
    assert class_size(lm, 8) == 2
    members = {tuple(int(c) for c in "00101100"), tuple(int(c) for c in "00110100")}
    assert set(class_members(lm, 8)) == members


def test_class_size_zero_for_empty_not_error():
    assert class_size(MarkovType(0, ((0, 0), (1, 0))), 2) == 0


def test_best_formula_terms_paper_values():
    descr = type_of(PAPER_WORD, MARKOV, A3)
    terms = best_formula_terms(descr, 8)
    assert terms["t_w"] == 2
    assert terms["spanning_trees"] == 3
    assert terms["factorial_ratio"] == 2
    assert terms["t_w"] * terms["spanning_trees"] * terms["factorial_ratio"] == 12


def test_word_too_short_for_lmarkov():
    with pytest.raises(WordTooShort):
        type_of((0, 1), LMarkov(2), A2)
    with pytest.raises(WordTooShort):
        enumerate_types(LMarkov(2), A2, 2)


def test_partition_property_small():
    for relation, alphabet, ns in (
        (EXCHANGEABLE, A3, range(1, 6)),
        (MARKOV, A3, range(1, 6)),
        (LMarkov(2), A2, range(3, 7)),
        (ProductRelation((Exchangeable(), Markov())), A22, range(2, 5)),
    ):
        for n in ns:
            ix = enumerate_types(relation, alphabet, n)
            oracle = brute_force_index(relation, alphabet, n)
            assert set(ix.descriptors()) == set(oracle)
            for descr, size in ix.items:
                assert size == len(oracle[descr])
            assert sum(s for _, s in ix.items) == alphabet.size**n


def test_lmarkov1_partition_equals_markov():
    for d in (2, 3):
        for n in range(2, 6):
            a = Alphabet(d)
            via_markov = brute_force_index(MARKOV, a, n)
            via_lm1 = brute_force_index(LMarkov(1), a, n)
            assert sorted(sorted(v) for v in via_markov.values()) == sorted(
                sorted(v) for v in via_lm1.values()
            )


def test_product_sizes_multiply():
    rel = ProductRelation((Exchangeable(), Markov()))
    for n in (2, 3, 4):
        ix = enumerate_types(rel, A22, n)
        for descr, size in ix.items:
            assert size == class_size(descr.parts[0], n) * class_size(descr.parts[1], n)


def test_representative_belongs_to_class():
    for relation, alphabet, n in (
        (EXCHANGEABLE, A3, 5),
        (MARKOV, A3, 5),
        (LMarkov(2), A2, 6),
        (ProductRelation((Exchangeable(), Exchangeable())), A22, 4),
    ):
        for descr, _ in enumerate_types(relation, alphabet, n).items:
            rep = representative(descr, n)
            assert type_of(rep, relation, alphabet) == descr


def test_representative_of_empty_class_raises():
    with pytest.raises(EmptyClass):
        representative(MarkovType(0, ((0, 0), (1, 0))), 2)


def test_descriptors_are_hashable_and_enumeration_deterministic():
    ix = enumerate_types(MARKOV, A2, 4)
    keys = {descr: size for descr, size in ix.items}
    assert len(keys) == ix.N
    assert enumerate_types(MARKOV, A2, 4).items == ix.items


def test_cap_bounds_candidates_before_enumerating(monkeypatch):
    # Markov d=3, n=6 has 3 * C(13, 8) = 3861 candidate types (414 classes);
    # the enumeration sizes only the 633 whose degrees admit a trail.
    sized = []
    original = relations.class_size
    monkeypatch.setattr(relations, "class_size", lambda *args: sized.append(args) or original(*args))
    with pytest.raises(CapExceeded):
        enumerate_types(MARKOV, A3, 6, cap=10)
    with pytest.raises(CapExceeded):
        enumerate_types(MARKOV, A3, 6, cap=3860)
    assert sized == []
    assert enumerate_types(MARKOV, A3, 6, cap=3861).N == 414
    assert len(sized) == 633


@pytest.mark.parametrize("relation, d, n, count, bound", [
    (MARKOV, 3, 6, 633, 3861),
    (LMarkov(2), 2, 8, 388, 6864),
])
def test_candidates_are_the_flow_feasible_tensors(relation, d, n, count, bound):
    alphabet = Alphabet(d)
    candidates = list(relation.candidates(alphabet, n))
    assert len(candidates) == count
    assert relation.candidate_count(alphabet, n) == bound


def test_row_memo_holds_no_state_between_calls():
    # The generator memoizes row choices for one candidates() call only:
    # interleaved enumerations give what each gave when run first, and no
    # module-level container or cache of relations or graphs is filled.
    cases = [(MARKOV, Alphabet(3), 6), (LMarkov(2), Alphabet(2), 8), (MARKOV, Alphabet(16), 2)]

    def module_state():
        return {
            (module.__name__, name): len(v) if isinstance(v, (dict, list, set)) else v.cache_info()
            for module in (relations, graphs)
            for name, v in vars(module).items()
            if not name.startswith("__") and (isinstance(v, (dict, list, set)) or hasattr(v, "cache_info"))
        }

    before = module_state()
    first = [enumerate_types(*case).items for case in cases]
    for i in (2, 0, 1, 0, 2, 1):
        assert enumerate_types(*cases[i]).items == first[i]
    for (relation, alphabet, n), items in zip(cases, first):
        groups = brute_force_index(relation, alphabet, n)
        assert dict(items) == {descr: len(words) for descr, words in groups.items()}
    assert module_state() == before


def test_cap_bounds_exchangeable_and_product_work():
    # C(6 + 2, 2) = 28 compositions; the product has 5 * 14 classes.
    with pytest.raises(CapExceeded):
        enumerate_types(EXCHANGEABLE, A3, 6, cap=27)
    assert enumerate_types(EXCHANGEABLE, A3, 6, cap=28).N == 28
    product = ProductRelation((Exchangeable(), Markov()))
    assert enumerate_types(product, A22, 4, cap=70).N == 70
    with pytest.raises(CapExceeded):
        enumerate_types(product, A22, 4, cap=69)


FOUR_FAMILIES = [(MARKOV, 2, 6), (MARKOV, 3, 5), (MARKOV, 4, 4), (LMarkov(2), 2, 6)]


@pytest.mark.parametrize("relation, d, n", FOUR_FAMILIES)
def test_best_factored_form_is_the_class_size(relation, d, n):
    # The in-trees live on the visited grams, so a letter or gram that no
    # word of the class visits leaves the factored form intact.
    factored = 0
    for descr, size in enumerate_types(relation, Alphabet(d), n).items:
        try:
            terms = best_formula_terms(descr, n)
        except InconsistentDescriptor:  # t_w = 0: no factored form
            continue
        assert terms["t_w"] * terms["spanning_trees"] * terms["factorial_ratio"] == size
        factored += 1
    assert factored


@pytest.mark.parametrize("relation, d, n", FOUR_FAMILIES)
def test_end_gram_is_where_every_member_ends(relation, d, n):
    for descr, _ in enumerate_types(relation, Alphabet(d), n).items:
        ends = {relations.gram_rank(w[-descr.ell:], d) for w in class_members(descr, n)}
        assert ends == {descr.end}
    assert MarkovType(0, ((0, 0), (1, 0))).end is None
    assert MarkovType(0, ((0, 1), (1, 0))).end == 0


@pytest.mark.parametrize("relation, d, n", [
    (EXCHANGEABLE, 3, 4), (MARKOV, 3, 4), (LMarkov(2), 2, 5),
])
def test_pi_mass_is_the_sum_over_the_letter_power(relation, d, n):
    # Reference: type every word of L^n and add pi_k over the words.
    alphabet = Alphabet(d)
    descriptors = enumerate_types(relation, alphabet, n).descriptors()
    for size in range(1, d + 1):
        for letters in itertools.combinations(range(d), size):
            counted = Counter(
                type_of(w, relation, alphabet) for w in itertools.product(letters, repeat=n)
            )
            for k in descriptors:
                mass = k.pi_mass(frozenset(letters))
                assert mass == sum(m * k.pi_at(c) for c, m in counted.items())
                # On the full alphabet the uniform rows of unvisited grams
                # carry the walks that leave the visited ones.
                assert size < d or mass == 1


@pytest.mark.parametrize("relation, alphabet, n", [
    (EXCHANGEABLE, A3, 4),
    (MARKOV, A3, 4),
    (LMarkov(2), A2, 6),
    (ProductRelation((EXCHANGEABLE, MARKOV)), A22, 3),
])
def test_word_key_is_equal_exactly_when_the_types_are(relation, alphabet, n):
    words = list(itertools.product(range(alphabet.size), repeat=n))
    keys = {w: relation.word_key(w, alphabet) for w in words}
    types = {w: type_of(w, relation, alphabet) for w in words}
    assert len(set(keys.values())) == len(set(types.values())) > 1
    for w1 in words:
        for w2 in words:
            assert (keys[w1] == keys[w2]) == (types[w1] == types[w2]), (w1, w2)



@pytest.mark.parametrize("descr", [
    ExchangeableType((1, 1)),
    MarkovType(0, ((1, 0), (0, 0))),
    ProductType((ExchangeableType((1, 1)), ExchangeableType((2, 0)))),
])
def test_representative_checks_the_word_length(descr):
    with pytest.raises(InconsistentDescriptor):
        representative(descr, 5)


def test_descriptors_list_members_and_summaries_at_their_own_length():
    # members(), pi_summary() and best_formula_json() read the length off
    # the descriptor; class_members(descr, n) checks n and sorts members().
    for relation, alphabet, n in (
        (EXCHANGEABLE, A3, 4),
        (MARKOV, A2, 5),
        (ProductRelation((Exchangeable(), Markov())), A22, 3),
    ):
        groups = brute_force_index(relation, alphabet, n)
        for descr, words in groups.items():
            assert sorted(descr.members()) == class_members(descr, n) == sorted(words)
            assert descr.pi_summary() is not None
    descr = type_of((0, 0, 2, 1, 2, 0, 1, 1), MARKOV, A3)
    terms = best_formula_terms(descr, 8)
    assert descr.best_formula_json()["spanning_trees"] == terms["spanning_trees"] == 3
    assert ExchangeableType((1, 3)).pi_summary() == {"pi": ["1/4", "3/4"]}


def test_members_walk_any_number_of_steps():
    # The walk keeps its own stack, so only the callers' caps bound its
    # length: 61 and 62 letters list in full, in lexicographic order.
    assert class_members(ExchangeableType((60, 1)), 61) == [
        (0,) * p + (1,) + (0,) * (60 - p) for p in range(60, -1, -1)
    ]
    markov = type_of((0, 1) + (0,) * 60, MARKOV, A2)
    assert class_members(markov, 62) == [
        (0,) * p + (1,) + (0,) * (61 - p) for p in range(60, 0, -1)
    ]


@pytest.mark.parametrize("d, n_max", [(1, 6), (2, 6), (3, 6), (4, 4)])
def test_order_zero_spelling_matches_letter_counts(d, n_max):
    # Exchangeable is l-Markov(0): one gram, whose row counts the letters.
    # Every word is grouped by its letter counts here, apart from exkit, and
    # the generic classes, sizes, members, pi, support signatures and pi
    # masses are checked against the counts' closed forms.
    alphabet = Alphabet(d)
    for n in range(1, n_max + 1):
        by_counts: dict[tuple, list] = {}
        for w in itertools.product(range(d), repeat=n):
            by_counts.setdefault(tuple(map(w.count, range(d))), []).append(w)
        groups = brute_force_index(EXCHANGEABLE, alphabet, n)
        assert {descr.counts: words for descr, words in groups.items()} == by_counts
        index = enumerate_types(EXCHANGEABLE, alphabet, n)
        assert [descr.counts for descr in index.descriptors()] == sorted(by_counts)
        for descr, size in index.items:
            assert (descr.ell, descr.start, descr.trans) == (0, (), (descr.counts,))
            words = by_counts[descr.counts]
            assert size == class_size(descr, n) == math.factorial(n) // math.prod(
                map(math.factorial, descr.counts)
            ) == len(words)
            assert list(descr.members()) == words  # product() lists them in order
        for k in index.descriptors():
            key_k, _, cover_k = k.support_signature
            for c in index.descriptors():
                pi = math.prod(Fraction(tk, n) ** tc for tk, tc in zip(k.counts, c.counts))
                assert k.pi_at(c) == pi, (k, c)
                key_c, need_c, _ = c.support_signature
                assert (key_k == key_c and not need_c & ~cover_k) == (pi != 0), (k, c)
            for r in range(d + 1):
                for letters in itertools.combinations(range(d), r):
                    mass = Fraction(sum(k.counts[z] for z in letters), n) ** n
                    assert k.pi_mass(frozenset(letters)) == mass, (k, letters)
