import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import exkit.reduction as reduction
from exkit import serialize
from exkit.core import Alphabet, FiniteDistribution, dirac, rational_str, tensor_power, uniform
from exkit.errors import BadParams, EmptyClass, NotExchangeable, WordTooShort
from exkit.intervals import IntervalScalar
from exkit.reduction import (
    Combination,
    Decomposition,
    Fidelities,
    alpha_analytic,
    alpha_tight,
    decompose,
    stirling_bounds,
    uniform_class_dist,
    verify_flexible_reduction,
)
from exkit.relations import (
    EXCHANGEABLE,
    MARKOV,
    Exchangeable,
    ExchangeableType,
    LMarkov,
    LMarkovType,
    Markov,
    MarkovType,
    ProductRelation,
    ProductType,
    class_members,
    enumerate_types,
    type_of,
)
from oracles import empirical_pi, fidelity_squared, pi_value

A2, A3 = Alphabet(2), Alphabet(3)
PAPER_WORD = tuple(int(c) - 1 for c in "11323122")
PAPER_TYPE_COUNTS = (3, 3, 2)


def random_invariant(alphabet, n, relation, rng):
    """Random relation-invariant distribution: random integer weights on the
    simplex of extreme points."""
    ix = enumerate_types(relation, alphabet, n)
    weights = [rng.randint(0, 30) for _ in range(ix.N)]
    while not any(weights):
        weights = [rng.randint(0, 30) for _ in range(ix.N)]
    total = sum(weights)
    entries = {}
    for (descr, size), w in zip(ix.items, weights):
        if w:
            share = Fraction(w, total * size)
            for word in class_members(descr, n):
                entries[word] = entries.get(word, Fraction(0)) + share
    return FiniteDistribution(alphabet, n, entries)


def test_uniform_class_dist_examples():
    markov_type = type_of(PAPER_WORD, MARKOV, A3)
    q = uniform_class_dist(markov_type, 8)
    assert len(q.entries) == 12 and all(v == Fraction(1, 12) for v in q.entries.values())
    point = uniform_class_dist(ExchangeableType((4, 0)), 4)
    assert point.entries == {(0, 0, 0, 0): Fraction(1)}
    balanced = uniform_class_dist(ExchangeableType((2, 2)), 4)
    assert len(balanced.entries) == 6
    assert all(v == Fraction(1, 6) for v in balanced.entries.values())


def test_uniform_class_dist_empty_raises():
    with pytest.raises(EmptyClass):
        uniform_class_dist(MarkovType(0, ((0, 0), (1, 0))), 2)


def test_empirical_pi_exchangeable_matches_iid():
    pi = empirical_pi(ExchangeableType(PAPER_TYPE_COUNTS), 8)
    letter = FiniteDistribution(
        A3, 1, {(0,): Fraction(3, 8), (1,): Fraction(3, 8), (2,): Fraction(2, 8)}
    )
    assert pi.entries == tensor_power(letter, 8).entries


def test_empirical_pi_markov_kernel_rows():
    descr = type_of(PAPER_WORD, MARKOV, A3)
    # rows (1/3,1/3,1/3), (0,1/2,1/2), (1/2,1/2,0) starting at letter 1
    assert pi_value(descr, PAPER_WORD, 8) == Fraction(1, 432)
    assert pi_value(descr, (1,) + PAPER_WORD[1:], 8) == 0  # wrong start letter


def test_empirical_pi_dirac():
    pi = empirical_pi(ExchangeableType((5, 0)), 5)
    assert pi.entries == {(0,) * 5: Fraction(1)}


def test_empirical_pi_constant_on_classes():
    for relation, alphabet, n in ((EXCHANGEABLE, A2, 4), (MARKOV, A2, 4), (LMarkov(2), A2, 5)):
        for descr, _ in enumerate_types(relation, alphabet, n).items:
            pi = empirical_pi(descr, n)
            for other, _ in enumerate_types(relation, alphabet, n).items:
                values = {pi(w) for w in class_members(other, n)}
                assert len(values) == 1


def test_alpha_analytic_reference_values():
    # e/sqrt(2*pi) for d=1, and e^2/sqrt(2*pi) at d=2, n=4
    b1 = alpha_analytic(EXCHANGEABLE, 3, 1)
    assert b1.value.lo <= Fraction("1.0844375515")
    assert b1.value.hi >= Fraction("1.0844375514")
    assert b1.degree == 0
    b2 = alpha_analytic(EXCHANGEABLE, 4, 2)
    assert b2.value.lo <= Fraction("2.9478068902")
    assert b2.value.hi >= Fraction("2.9478068901")
    assert b2.degree == 2


def test_alpha_analytic_lmarkov1_equals_markov():
    bm = alpha_analytic(MARKOV, 5, 3)
    bl = alpha_analytic(LMarkov(1), 5, 3)
    assert bm.squared.lo == bl.squared.lo and bm.squared.hi == bl.squared.hi
    assert bm.degree == bl.degree == 3 * 7 - 1


def test_alpha_analytic_product_matches_doubly_formulas():
    # The product bound is the product of the factor bounds; degrees add.
    a = Alphabet(4, (2, 2))
    bee = alpha_analytic(ProductRelation((Exchangeable(), Exchangeable())), 4, a)
    single = alpha_analytic(EXCHANGEABLE, 4, 2)
    assert bee.degree == 2 * single.degree == 2 * (2 + 2 - 2)
    prod_sq = single.squared * single.squared
    assert bee.squared.lo <= prod_sq.hi and prod_sq.lo <= bee.squared.hi
    bmm = alpha_analytic(ProductRelation((Markov(), Markov())), 4, a)
    assert bmm.degree == 2 * (2 * (2 * 2 + 1) - 1) == 2 * 2 * (2 * 2 + 1) - 2


def paper_markov_alpha_squared(d, ell, n, bits):
    # The paper's e^(2dm) (x/dm)^dm (x/(2 pi m))^m with m = d^l, x = n - l.
    m = d**ell
    e2 = IntervalScalar.euler_e(bits) ** 2
    rational = Fraction((n - ell) ** (m * (d + 1)), d ** (((ell + 1) * d + ell) * m))
    return (e2 ** (d * m)) * rational / (IntervalScalar.two_pi(bits) ** m)


def test_alpha_analytic_markov_family_recovers_paper_form_at_large_n():
    # x = n - l >= max(d m, 2 pi e m), with 2 pi e ~ 17.08, is enough for the
    # proven form to equal the paper's: n >= 36 for Markov and n >= 71 for
    # l = 2, both at d = 2.
    for relation, ell, n in ((MARKOV, 1, 40), (LMarkov(2), 2, 71), (LMarkov(2), 2, 100)):
        got = alpha_analytic(relation, n, 2).squared
        paper = paper_markov_alpha_squared(2, ell, n, 128)
        assert got.lo <= paper.hi and paper.lo <= got.hi, (relation, n)
        assert got.width < got.lo / 2**100, (relation, n)
    # Below the threshold the paper's form undershoots and the proven one is larger.
    small = alpha_analytic(MARKOV, 2, 2).squared
    assert small.certainly_ge(paper_markov_alpha_squared(2, 1, 2, 128).hi)


def test_alpha_analytic_bad_params():
    with pytest.raises(BadParams):
        alpha_analytic(MARKOV, 1, 2)
    with pytest.raises(BadParams):
        alpha_analytic(LMarkov(2), 2, 2)


def test_alpha_exchangeable_at_least_one_small_d():
    for d in (1, 2, 3):
        for n in range(max(1, d), 11):
            bound = alpha_analytic(EXCHANGEABLE, n, d)
            assert bound.value.lo >= 1


def test_alpha_tight_examples():
    assert alpha_tight(ExchangeableType((2, 2)), 4) == Fraction(8, 3)
    assert alpha_tight(ExchangeableType((3, 0)), 3) == 1
    markov_type = type_of(PAPER_WORD, MARKOV, A3)
    assert alpha_tight(markov_type, 8) == 36


def test_alpha_tight_at_least_one():
    for relation, alphabet, n in ((EXCHANGEABLE, A3, 6), (MARKOV, A2, 5)):
        for descr, _ in enumerate_types(relation, alphabet, n).items:
            assert alpha_tight(descr, n) >= 1


def test_fidelity_examples():
    p = FiniteDistribution(
        A2,
        2,
        {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 8), (1, 0): Fraction(1, 8), (1, 1): Fraction(1, 4)},
    )
    q = FiniteDistribution(A2, 2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})
    f = fidelity_squared(p, q)
    assert f.is_point and f.lo == Fraction(1, 4)
    assert fidelity_squared(p, p).lo == 1
    half = fidelity_squared(dirac(A2, (0,)), uniform(A2, 1))
    assert half.is_point and half.lo == Fraction(1, 2)


def test_fidelity_interval_contains_truth_for_irrational_case():
    p = FiniteDistribution(A2, 1, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    q = FiniteDistribution(A2, 1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    f = fidelity_squared(p, q, bits=128)
    # F^2 = (sqrt(1/6) + sqrt(1/3))^2 = 1/2 + 2*sqrt(1/18) = 1/2 + sqrt(2)/3
    truth_lo = Fraction(1, 2) + Fraction("0.47140452079103168") - Fraction(1, 10**15)
    truth_hi = Fraction(1, 2) + Fraction("0.47140452079103168") + Fraction(1, 10**15)
    assert f.lo <= truth_hi and f.hi >= truth_lo
    assert f.hi - f.lo < Fraction(1, 2**100)


def test_decompose_examples():
    q = uniform_class_dist(ExchangeableType((1, 1)), 2)
    dec = decompose(q, EXCHANGEABLE)
    assert dec.weights == (Fraction(0), Fraction(1), Fraction(0))

    u = uniform(A2, 3)
    dec_u = decompose(u, EXCHANGEABLE)
    assert dec_u.weights == (Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8))

    p = FiniteDistribution(
        A2,
        2,
        {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 8), (1, 0): Fraction(1, 8), (1, 1): Fraction(1, 4)},
    )
    dec_p = decompose(p, EXCHANGEABLE)
    assert dec_p.weights == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))


def test_decompose_rejects_non_invariant():
    p = FiniteDistribution(A2, 2, {(0, 1): Fraction(1, 3), (1, 0): Fraction(2, 3)})
    with pytest.raises(NotExchangeable) as err:
        decompose(p, EXCHANGEABLE)
    w1, w2 = err.value.witness
    assert sorted((w1, w2)) == [(0, 1), (1, 0)]


def test_decompose_reconstruction_random():
    rng = random.Random(42)
    for relation, alphabet, n in ((EXCHANGEABLE, A3, 4), (MARKOV, A2, 5), (LMarkov(2), A2, 5)):
        for _ in range(10):
            p = random_invariant(alphabet, n, relation, rng)
            dec = decompose(p, relation)
            assert sum(dec.weights, Fraction(0)) == 1
            assert dec.remix().entries == p.entries


def test_verify_flexible_reduction_tensor_power_holds():
    letter = FiniteDistribution(A2, 1, {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
    cert = verify_flexible_reduction(tensor_power(letter, 4), EXCHANGEABLE)
    assert cert.verdict == "holds"
    assert cert.prefactor.lo > 0


def test_verify_flexible_reduction_extremes_hold():
    for descr, _ in enumerate_types(EXCHANGEABLE, A3, 5).items:
        cert = verify_flexible_reduction(uniform_class_dist(descr, 5), EXCHANGEABLE)
        assert cert.verdict == "holds"
        for rec in cert.records:
            assert rec.tight_within_analytic


def test_verify_flexible_reduction_markov_uniform_holds_at_valid_n():
    cert = verify_flexible_reduction(uniform(A2, 5), MARKOV)
    assert cert.verdict == "holds"


def test_small_n_markov_analytic_formula_undershoots():
    # At n = 2 the classes have never-visited states, where the paper's
    # closed form undershoots the exact per-class ratio (alpha <= 0.27 < 1).
    # The analytic alpha(n) only applies AM-GM to the nonzero cells and the
    # visited rows, so it dominates every ratio here and both modes certify.
    cert = verify_flexible_reduction(uniform(A2, 2), MARKOV)
    assert cert.verdict == "holds"
    assert cert.alpha.value.certainly_ge(cert.alpha_tight_max)
    assert all(rec.tight_within_analytic for rec in cert.records)
    cert_tight = verify_flexible_reduction(uniform(A2, 2), MARKOV, alpha_mode="tight")
    assert cert_tight.verdict == "holds"


def test_maximum_likelihood_empirical_frequencies():
    # F(Q_t, sigma^(x)n)^2 over a rational grid is maximized at sigma = pi_t.
    n = 4
    for counts in ((2, 2), (3, 1), (1, 3)):
        q = uniform_class_dist(ExchangeableType(counts), n)
        best = fidelity_squared(q, tensor_power(
            FiniteDistribution(A2, 1, {(0,): Fraction(counts[0], n), (1,): Fraction(counts[1], n)}), n
        ))
        for num in range(0, 9):
            sigma0 = Fraction(num, 8)
            letter = {}
            if sigma0:
                letter[(0,)] = sigma0
            if 1 - sigma0:
                letter[(1,)] = 1 - sigma0
            trial = fidelity_squared(q, tensor_power(FiniteDistribution(A2, 1, letter), n))
            assert trial.lo <= best.hi + Fraction(1, 2**64)


def test_tightness_vs_analytic_exchangeable():
    # d = 10 at n < d: the paper's e^(2d) n^(d-1) / (d^d 2 pi) undershoots there.
    cases = [(d, n) for d in (1, 2, 3) for n in range(1, 11)] + [(10, n) for n in range(1, 5)]
    for d, n in cases:
        bound = alpha_analytic(EXCHANGEABLE, n, d)
        for descr, _ in enumerate_types(EXCHANGEABLE, Alphabet(d), n).items:
            assert bound.value.certainly_ge(alpha_tight(descr, n))


def test_stirling_examples():
    lower, upper = stirling_bounds(1)
    assert lower.certainly_le(1) and upper.certainly_ge(1)
    assert upper.is_point and upper.lo == 1  # e * 1 * e^-1 is exactly 1
    assert Fraction("0.92") < lower.lo < Fraction("0.9222")
    for p in (5, 10):
        lower, upper = stirling_bounds(p)
        assert lower.certainly_le(math.factorial(p))
        assert upper.certainly_ge(math.factorial(p))


def test_unknown_alpha_mode_is_rejected():
    with pytest.raises(BadParams):
        verify_flexible_reduction(uniform(A2, 2), MARKOV, alpha_mode="bogus")


def test_combination_prints_and_decides_as_the_exact_sum():
    p = random_invariant(A3, 4, EXCHANGEABLE, random.Random(9))
    fids = Fidelities(decompose(p, EXCHANGEABLE))
    scale = IntervalScalar(Fraction(3, 2), Fraction(5, 3))
    combo = fids.combination([(k, k + 1, 7) for k in range(len(fids.printed))], scale)
    exact = combo.exact
    assert not exact.is_point
    assert combo.interval().to_json() == exact.to_json()
    for value in (exact.lo, exact.hi, (exact.lo + exact.hi) / 2, exact.lo * Fraction(99, 100),
                  exact.hi * Fraction(101, 100)):
        assert combo.certainly_ge(value) is exact.certainly_ge(value)


def test_markov_lmarkov1_verdicts_agree():
    rng = random.Random(17)
    for _ in range(5):
        p = random_invariant(A2, 5, MARKOV, rng)
        cm = verify_flexible_reduction(p, MARKOV)
        cl = verify_flexible_reduction(p, LMarkov(1))
        assert cm.verdict == cl.verdict


def _certificate_text(p, relation):
    return serialize.dumps(serialize.reduction_certificate_to_json(verify_flexible_reduction(p, relation)))


@pytest.mark.parametrize("alphabet, n, relation", [(A3, 4, EXCHANGEABLE), (A2, 6, MARKOV)])
def test_straddled_grid_point_takes_the_exact_fidelity_path(alphabet, n, relation, monkeypatch):
    p = random_invariant(alphabet, n, relation, random.Random(n))
    expected = _certificate_text(p, relation)
    fids = Fidelities(decompose(p, relation))
    assert not all(f.is_point for f in fids.printed)  # some rows are irrational
    # A bracket that straddles a 10^-40 grid point cannot name the printed
    # endpoint; every row then prints the exact interval, with the same bytes.
    monkeypatch.setattr(reduction, "grid_interval", lambda *args: None)
    fids = Fidelities(decompose(p, relation))
    assert all(fids.printed[k] is fids.exact(k) for k in range(len(fids.printed)))
    assert _certificate_text(p, relation) == expected


def _one_row(bracket, exact):
    """A single fidelity row with the given bracket at shift 64 and exact
    interval, as a ``Combination`` reads it."""
    return SimpleNamespace(
        brackets=[bracket], shift=64, bits=128, exact=lambda k: exact(), printed=[None]
    )


def test_undecided_rhs_enclosure_gives_the_exact_verdict():
    alpha_sq = IntervalScalar(Fraction(3, 2), Fraction(5, 3))
    exact = IntervalScalar(Fraction(1, 3), Fraction(1, 2))
    # [rhs] * alpha_sq = [1/2, 5/6]: below, inside and above it.
    for value, verdict in ((Fraction(1, 2), True), (Fraction(2, 3), None), (Fraction(6, 7), False)):
        assert (exact * alpha_sq).certainly_ge(value) is verdict
        wide = (0, 0, 2**70, 2**70)  # [0, 2^6] at shift 64 decides nothing here
        rhs = Combination(_one_row(wide, lambda: exact), [(0, 1, 1)], alpha_sq)
        assert rhs.certainly_ge(value) is verdict
    # A deciding enclosure never computes the exact sum.
    def unused():
        raise AssertionError("exact right-hand side computed")
    half = Combination(_one_row((2**63,) * 4, unused), [(0, 1, 1)], alpha_sq)
    assert half.certainly_ge(Fraction(1, 2)) is True
    low = Combination(_one_row((0, 0, 2**63, 2**63), unused), [(0, 1, 1)], alpha_sq)
    assert low.certainly_ge(Fraction(6, 7)) is False


@pytest.mark.parametrize("alphabet, n, relation", [(A3, 4, EXCHANGEABLE), (A2, 6, MARKOV)])
def test_exact_rhs_fallback_reproduces_the_certificate(alphabet, n, relation, monkeypatch):
    p = random_invariant(alphabet, n, relation, random.Random(n + 1))
    expected = _certificate_text(p, relation)
    monkeypatch.setattr(reduction, "scaled_certainly_ge", lambda *args: None)
    assert _certificate_text(p, relation) == expected


def _compatible(k, c):
    key_k, _, cover = k.support_signature
    key_c, need, _ = c.support_signature
    return key_k == key_c and not need & ~cover


@pytest.mark.parametrize(
    "relation, alphabet, n",
    [
        (EXCHANGEABLE, A3, 4),
        (MARKOV, A3, 5),
        (LMarkov(2), A2, 7),
        (ProductRelation((EXCHANGEABLE, MARKOV)), Alphabet(4, (2, 2)), 4),
        (ProductRelation((MARKOV, MARKOV)), Alphabet(4, (2, 2)), 3),
    ],
)
def test_support_signatures_decide_exactly_where_pi_is_nonzero(relation, alphabet, n):
    descriptors = enumerate_types(relation, alphabet, n).descriptors()
    seen = set()
    for k in descriptors:
        for c in descriptors:
            nonzero = k.pi_ratio(c)[0] != 0
            assert _compatible(k, c) == nonzero, (k, c)
            seen.add(nonzero)
    assert seen == {True, False}


def test_pi_table_calls_pi_ratio_on_the_nonzero_cells_only(monkeypatch):
    index = enumerate_types(MARKOV, A3, 6)
    calls = []
    pi_ratio = LMarkovType.pi_ratio

    def counted(k, c):
        calls.append((k, c))
        return pi_ratio(k, c)

    monkeypatch.setattr(LMarkovType, "pi_ratio", counted)
    rows = Decomposition(index, tuple(Fraction(1, index.N) for _ in index.items)).pi_rows
    assert len(calls) == sum(map(len, rows)) == 5055
    assert all(num for row in rows for _, num, _ in row)


# check_exchangeable groups supp P by word_key and types each class once.


def _word(digits: str):
    return tuple(int(c) for c in digits)


@pytest.mark.parametrize("relation, alphabet, n", [
    (EXCHANGEABLE, Alphabet(4, (2, 2)), 5),
    (MARKOV, A3, 5),
    (LMarkov(2), A2, 7),
    (ProductRelation((EXCHANGEABLE, MARKOV)), Alphabet(4, (2, 2)), 4),
])
def test_check_exchangeable_types_each_supported_class_once(relation, alphabet, n, monkeypatch):
    calls = []
    typed = reduction.type_of

    def counted(word, relation, alphabet):
        calls.append(word)
        return typed(word, relation, alphabet)

    monkeypatch.setattr(reduction, "type_of", counted)
    p = random_invariant(alphabet, n, relation, random.Random(5))
    values = reduction.check_exchangeable(p, relation)
    assert len(calls) == len(values) < len(p.entries)
    assert [p(w) for w in calls] == list(values.values())


@pytest.mark.parametrize("relation, alphabet, n", [
    (EXCHANGEABLE, Alphabet(4, (2, 2)), 5),
    (MARKOV, A3, 5),
    (LMarkov(2), A2, 7),
    (ProductRelation((EXCHANGEABLE, MARKOV)), Alphabet(4, (2, 2)), 4),
])
def test_decompose_reads_class_sizes_from_its_index(relation, alphabet, n, monkeypatch):
    p = random_invariant(alphabet, n, relation, random.Random(5))
    expected = decompose(p, relation)

    def unsized(descriptor, n):
        raise AssertionError(f"{descriptor} sized again")

    monkeypatch.setattr(reduction, "class_size", unsized)
    assert decompose(p, relation) == expected


# Expected witnesses generated by the word-by-word check this one replaced.
@pytest.mark.parametrize("relation, n, entries, witness", [
    # Both classes of length 3 hold two values; the second class's
    # mismatch (101) comes first in supp P, the first class's (010) wins.
    (EXCHANGEABLE, 3,
     {"001": (1, 4), "011": (1, 8), "101": (1, 4), "010": (1, 8), "100": (1, 8), "110": (1, 8)},
     ("001", "010")),
    (MARKOV, 4,
     {"0010": (1, 4), "1011": (1, 8), "1101": (1, 4), "0100": (1, 8), "0000": (1, 4)},
     ("0010", "0100")),
    # The first class misses 010 and is reported before the second class's
    # value mismatch.
    (EXCHANGEABLE, 3, {"001": (1, 4), "011": (1, 8), "101": (3, 8), "100": (1, 4)}, ("001", "010")),
])
def test_not_exchangeable_witness_is_pinned(relation, n, entries, witness):
    p = FiniteDistribution(A2, n, {_word(w): Fraction(*v) for w, v in entries.items()})
    # decompose checks with the sizes of its index, and reports the same pair.
    for check in (reduction.check_exchangeable, decompose):
        with pytest.raises(NotExchangeable) as err:
            check(p, relation)
        assert err.value.witness == tuple(map(_word, witness))


@pytest.mark.parametrize("relation, alphabet", [
    (LMarkov(2), A2),
    (ProductRelation((EXCHANGEABLE, LMarkov(2))), Alphabet(4, (2, 2))),
])
def test_check_exchangeable_word_too_short_still_wins(relation, alphabet):
    # At n = 2 every word is its own start gram, so every key differs.
    p = FiniteDistribution(alphabet, 2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)})
    with pytest.raises(WordTooShort):
        reduction.check_exchangeable(p, relation)
    # decompose reports the typing's error, not the enumeration's.
    with pytest.raises(WordTooShort, match=r"^l-Markov\(2\) needs words of length >= 3$"):
        decompose(p, relation)


@pytest.mark.parametrize("relation, alphabet, n", [
    (EXCHANGEABLE, A3, 4),
    (MARKOV, A2, 6),
    (ProductRelation((EXCHANGEABLE, MARKOV)), Alphabet(4, (2, 2)), 3),
])
def test_a_class_over_the_cap_still_gets_its_missing_word(relation, alphabet, n):
    # Drop the last word of the largest class: the size check fails, and the
    # witness is found by walking that class's members, never by listing it.
    index = enumerate_types(relation, alphabet, n)
    descr, size = max(index.items, key=lambda item: item[1])
    kept = class_members(descr, n)[:-1]
    p = FiniteDistribution(alphabet, n, {w: Fraction(1, len(kept)) for w in kept})
    with pytest.raises(NotExchangeable) as listed:
        reduction.check_exchangeable(p, relation)
    with pytest.raises(NotExchangeable) as walked:
        reduction.check_exchangeable(p, relation, cap=size - 1)
    for err in (listed, walked):
        first, missing = err.value.witness
        assert first == kept[0] and missing not in p.entries
        assert type_of(missing, relation, alphabet) == descr


# pi_summary and alpha_tight reduce p/q with integers; the Fraction forms they
# replaced are the oracle.


def _fraction_pi_summary(descriptor):
    if isinstance(descriptor, ProductType):
        return {"parts": [_fraction_pi_summary(p) for p in descriptor.parts]}
    if isinstance(descriptor, ExchangeableType):
        n = sum(descriptor.counts)
        return {"pi": [rational_str(Fraction(c, n)) for c in descriptor.counts]}
    kernel = [[rational_str(Fraction(t, r)) for t in row] for row, r in descriptor.kernel]
    return {"start": descriptor.start_json(), "kernel": kernel}


@pytest.mark.parametrize(
    "relation, alphabet, n",
    [
        (EXCHANGEABLE, A3, 5),
        (MARKOV, A3, 5),
        (LMarkov(2), A2, 7),
        (ProductRelation((EXCHANGEABLE, MARKOV)), Alphabet(4, (2, 2)), 3),
    ],
)
def test_integer_pi_summary_and_alpha_tight_match_the_fraction_forms(relation, alphabet, n):
    for descr, size in enumerate_types(relation, alphabet, n).items:
        assert descr.pi_summary() == _fraction_pi_summary(descr), descr
        assert alpha_tight(descr, n) == 1 / (size * descr.pi_at(descr)), descr
