"""Property-based checks of the class combinatorics against brute force.

Relations are drawn from exchangeable, Markov, l-Markov(1), l-Markov(2),
l-Markov(3) and exchangeable x Markov with small alphabets and word lengths,
so that every d^n word can be grouped by its descriptor as an oracle.
"""

import json
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
from hypothesis import given, settings, strategies as st

from exkit import serialize
from exkit.cli import main
from exkit.conditional import X_FACTOR, class_marginal, marginal_type
from exkit.core import Alphabet, FiniteDistribution, marginal
from exkit.intervals import IntervalScalar, run_with_escalation
from exkit.reduction import (
    Decomposition,
    alpha_analytic,
    decompose,
    fidelity_sq_from_pairs,
    triage,
    verify_flexible_reduction,
)
from exkit.relations import (
    EXCHANGEABLE,
    MARKOV,
    ExchangeableType,
    LMarkov,
    LMarkovType,
    ProductRelation,
    ProductType,
    class_members,
    class_size,
    enumerate_types,
    representative,
    type_of,
)
from oracles import brute_force_index, pi_value, transition_graph

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
@given(relation_cases(), st.data())
def test_remix_inverts_decompose(case, data):
    relation, alphabet, n = case
    index = enumerate_types(relation, alphabet, n)
    weights = data.draw(st.lists(st.integers(0, 9), min_size=index.N, max_size=index.N))
    if not any(weights):
        weights[-1] = 1
    entries = {}
    for (descr, size), w in zip(index.items, weights):
        for word in class_members(descr, n):
            if w:
                entries[word] = Fraction(w, sum(weights) * size)
    p = FiniteDistribution(alphabet, n, entries)
    decomp = decompose(p, relation)
    assert decomp.weights == tuple(Fraction(w, sum(weights)) for w in weights)
    assert decomp.remix() == p


@st.composite
def markov_family_cases(draw):
    """(relation, alphabet, n) for Markov and l-Markov(1..3) with d^n <= 243."""
    relation = draw(st.sampled_from([MARKOV, LMarkov(1), LMarkov(2), LMarkov(3)]))
    d = draw(st.integers(1, 3))
    longest = {1: 6, 2: 7, 3: 5}[d]
    return relation, Alphabet(d), draw(st.integers(relation.min_word_length(), longest))


@PROPERTY_SETTINGS
@given(markov_family_cases())
def test_candidates_are_distinct_feasible_and_cover_every_class(case):
    relation, alphabet, n = case
    candidates = list(relation.candidates(alphabet, n))
    assert len(set(candidates)) == len(candidates) <= relation.candidate_count(alphabet, n)
    for descr in candidates:
        transition_graph(descr, n)  # raises NoValidEnd on unbalanced degrees
    assert set(brute_force_index(relation, alphabet, n)) <= set(candidates)


@PROPERTY_SETTINGS
@given(markov_family_cases())
def test_candidates_carry_what_the_tensor_alone_gives(case):
    # The generator hands each tensor its row sums, end gram and factorial
    # pieces; a descriptor built from the tensor alone works them out itself.
    relation, alphabet, n = case
    for descr in relation.candidates(alphabet, n):
        assert {"row_sums", "end", "factorials"} <= vars(descr).keys()
        fresh = LMarkovType(descr.ell, descr.start, descr.trans)
        for name in ("row_sums", "end", "factorials", "size"):
            assert getattr(descr, name) == getattr(fresh, name), name


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


def pi_by_letters(descr, word):
    """pi_k(word) one letter at a time, straight from the descriptor's counts
    (uniform rows for never-visited grams)."""
    if isinstance(descr, ProductType):
        alphabet = descr.alphabet()
        value = Fraction(1)
        for i, part in enumerate(descr.parts):
            value *= pi_by_letters(part, tuple(alphabet.unpack(z)[i] for z in word))
        return value
    if isinstance(descr, ExchangeableType):
        value = Fraction(1)
        for z in word:
            value *= Fraction(descr.counts[z], sum(descr.counts))
        return value
    ell, d = descr.ell, len(descr.trans[0])
    if word[:ell] != descr.start:
        return Fraction(0)
    value = Fraction(1)
    for i in range(ell, len(word)):
        row = descr.trans[sum(v * d ** (ell - 1 - j) for j, v in enumerate(word[i - ell : i]))]
        value *= Fraction(row[word[i]], sum(row)) if sum(row) else Fraction(1, d)
    return value


@settings(derandomize=True, deadline=None, max_examples=40)
@given(relation_cases())
def test_pi_at_equals_letter_by_letter_product_on_every_member(case):
    relation, alphabet, n = case
    groups = brute_force_index(relation, alphabet, n)
    for k in groups:
        for c, members in groups.items():
            value = k.pi_at(c)
            assert all(pi_by_letters(k, w) == value for w in members)
            assert pi_value(k, members[0], n) == value


def test_pi_at_uniform_row_for_a_gram_k_never_visits():
    k = type_of((0, 0, 1), MARKOV, Alphabet(2))
    c = type_of((0, 1, 1), MARKOV, Alphabet(2))
    # 0 -> 1 with probability 1/2; k never leaves 1, so 1 -> 1 gets 1/2.
    assert k.pi_at(c) == pi_value(k, (0, 1, 1), 3) == Fraction(1, 4)


@st.composite
def exchangeable_joints(draw):
    """An exchangeable joint on (A x X)^n with drawn class weights; a drawn
    set of X-classes (never all of them) carries no mass at all."""
    a, x = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(1, 4 if a * x <= 4 else 3))
    joint = Alphabet(a * x, (a, x))
    index = enumerate_types(EXCHANGEABLE, joint, n)
    sigma = [marginal_type(descr, joint) for descr in index.descriptors()]
    x_classes = sorted(set(sigma), key=lambda t: t.counts)
    empty = draw(st.sets(st.sampled_from(x_classes), max_size=len(x_classes) - 1))
    weights = [0 if s in empty else draw(st.integers(0, 3)) for s in sigma]
    if not any(weights):
        weights[next(c for c, s in enumerate(sigma) if s not in empty)] = 1
    entries = {}
    for (descr, size), w in zip(index.items, weights):
        for word in class_members(descr, n):
            entries[word] = Fraction(w, sum(weights) * size)
    return FiniteDistribution(joint, n, {w: v for w, v in entries.items() if v})


@settings(derandomize=True, deadline=None, max_examples=60)
@given(exchangeable_joints())
def test_class_marginal_is_the_word_level_marginal(p):
    by_class = class_marginal(decompose(p, EXCHANGEABLE))
    p_x = marginal(p, X_FACTOR)
    x_alpha = Alphabet(p.alphabet.factors[X_FACTOR])
    for x in x_alpha.words(p.n):
        assert by_class[type_of(x, EXCHANGEABLE, x_alpha)] == p_x(x)


@st.composite
def invariant_distributions(draw):
    """(relation, P) with P relation-invariant: drawn weights on the classes
    of exchangeable, Markov, l-Markov(2) or exchangeable x Markov."""
    kind = draw(st.sampled_from(["exchangeable", "markov", "lmarkov2", "product"]))
    if kind == "product":
        relation, alphabet, n = ProductRelation((EXCHANGEABLE, MARKOV)), Alphabet(4, (2, 2)), draw(st.integers(2, 3))
    elif kind == "lmarkov2":
        relation, alphabet, n = LMarkov(2), Alphabet(2), draw(st.integers(3, 6))
    else:
        relation = EXCHANGEABLE if kind == "exchangeable" else MARKOV
        alphabet, n = Alphabet(draw(st.integers(2, 3))), draw(st.integers(2, 4))
    index = enumerate_types(relation, alphabet, n)
    weights = draw(st.lists(st.integers(0, 9), min_size=index.N, max_size=index.N))
    if not any(weights):
        weights[-1] = 1
    entries = {}
    for (descr, size), w in zip(index.items, weights):
        for word in class_members(descr, n):
            if w:
                entries[word] = Fraction(w, sum(weights) * size)
    return relation, FiniteDistribution(alphabet, n, entries)


def exact_path_certificate(p, relation):
    """Per-class verdicts, bits and fidelities of the flexible reduction with
    every fidelity and right-hand side in exact-rational interval arithmetic."""
    decomp = decompose(p, relation)
    descriptors = decomp.index.descriptors()
    sizes = [size for _, size in decomp.index.items]
    pi = [[k.pi_at(descriptors[c]) for c in decomp.support] for k in descriptors]

    def attempt(bits):
        alpha_sq = alpha_analytic(relation, p.n, p.alphabet, bits).squared
        fid = [
            fidelity_sq_from_pairs(
                [(decomp.values[c] * pv, sizes[c]) for c, pv in zip(decomp.support, row)], bits
            )
            for row in pi
        ]
        checks = ["holds"] * decomp.index.N
        for j, c in enumerate(decomp.support):
            rhs = IntervalScalar.exact(0, bits)
            for k, row in enumerate(pi):
                rhs = rhs + fid[k] * row[j]
            checks[c] = (rhs * alpha_sq).certainly_ge(decomp.values[c])
        verdicts, verdict = triage(checks)
        return SimpleNamespace(verdict=verdict, verdicts=verdicts, bits=bits, fid=fid)

    return decomp, pi, run_with_escalation(attempt, 128)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(invariant_distributions())
def test_fidelity_kernel_matches_the_exact_path(case):
    relation, p = case
    cert = verify_flexible_reduction(p, relation)
    decomp, pi, exact = exact_path_certificate(p, relation)
    assert cert.verdict == exact.verdict and cert.bits == exact.bits
    assert [rec.verdict for rec in cert.records] == exact.verdicts
    mpmath.mp.dps = 60
    slack = mpmath.mpf(10) ** -50
    for rec, fid, row in zip(cert.records, exact.fid, pi):
        assert rec.fidelity_sq.to_json() == fid.to_json()
        f = mpmath.mpf(0)
        for c, pv in zip(decomp.support, row):
            r = decomp.values[c] * pv
            f += decomp.index.items[c][1] * mpmath.sqrt(mpmath.mpf(r.numerator) / r.denominator)
        printed = rec.fidelity_sq.to_json()
        assert mpmath.mpf(printed["lo"]) - slack <= f * f <= mpmath.mpf(printed["hi"]) + slack


@st.composite
def partial_supports(draw):
    """A decomposition of exchangeable, Markov, l-Markov(2) or exchangeable x
    Markov classes whose drawn support leaves some classes out."""
    kind = draw(st.sampled_from(["exchangeable", "markov", "lmarkov2", "product"]))
    if kind == "product":
        relation, alphabet, n = ProductRelation((EXCHANGEABLE, MARKOV)), Alphabet(4, (2, 2)), draw(st.integers(1, 3))
    elif kind == "lmarkov2":
        relation, alphabet, n = LMarkov(2), Alphabet(2), draw(st.integers(3, 7))
    else:
        relation = EXCHANGEABLE if kind == "exchangeable" else MARKOV
        alphabet, n = Alphabet(draw(st.integers(1, 3))), draw(st.integers(1, 5))
    index = enumerate_types(relation, alphabet, n)
    kept = draw(st.lists(st.booleans(), min_size=index.N, max_size=index.N))
    return Decomposition(index, tuple(Fraction(int(b), index.N) for b in kept))


@PROPERTY_SETTINGS
@given(partial_supports())
def test_sparse_pi_rows_are_the_nonzero_dense_entries(decomp):
    descriptors = decomp.index.descriptors()
    for k, row in zip(descriptors, decomp.pi_rows):
        dense = [k.pi_ratio(descriptors[c]) for c in decomp.support]
        assert row == [(j, num, den) for j, (num, den) in enumerate(dense) if num]


def relation_flags(relation) -> list[str]:
    """The ``exkit certify`` flags that name ``relation``."""
    def token(obj):
        return f"lmarkov:{obj['ell']}" if obj["kind"] == "lmarkov" else obj["kind"]

    obj = serialize.relation_to_json(relation)
    if obj["kind"] == "product":
        return ["--relation", "product", "--product", ",".join(map(token, obj["parts"]))]
    return ["--relation", obj["kind"]] + (["--ell", str(obj["ell"])] if "ell" in obj else [])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(invariant_distributions(), st.sampled_from(["analytic", "tight"]))
def test_verify_is_idempotent(case, alpha_mode):
    # A verified certificate re-emits to the same bytes from its own input
    # and options, and the re-emitted one verifies again.
    relation, p = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "p.json").write_text(serialize.dumps(serialize.distribution_to_json(p)))
        flags = relation_flags(relation) + ["--alpha-mode", alpha_mode]
        assert main(["certify", str(tmp / "p.json"), *flags, "--output", str(tmp / "cert.json")]) == 0
        cert = (tmp / "cert.json").read_text()
        (tmp / "input.json").write_text(json.dumps(json.loads(cert)["input"]))
        again = ["certify", str(tmp / "input.json"), *flags, "--output", str(tmp / "again.json")]
        assert main(again) == 0
        assert (tmp / "again.json").read_text() == cert
        for name in ("cert.json", "again.json"):
            verify = ["certify", str(tmp / name), "--verify", "--output", str(tmp / "verified.json")]
            assert main(verify) == 0
            assert json.loads((tmp / "verified.json").read_text()) == {"verified": True, "verdict": "holds"}

