import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from exkit import conditional, reduction, serialize
from exkit.cli import main
from exkit.conditional import (
    condition,
    lift_conditional,
    marginal_type,
    markov_marginal_counterexample,
    verify_conditional_reduction,
)
from exkit.core import (
    Alphabet,
    ConditionalDistribution,
    FiniteDistribution,
    dirac,
    marginal,
    tensor_power,
    uniform,
)
from exkit.errors import CapExceeded, NotConditionallyExchangeable, NotExchangeable, NotFactored
from exkit.intervals import IntervalScalar
from exkit.reduction import uniform_class_dist
from exkit.relations import (
    EXCHANGEABLE,
    ExchangeableType,
    class_members,
    class_size,
    enumerate_types,
    type_of,
)
from oracles import empirical_alpha_prime

JOINT = Alphabet(4, (2, 2))


def random_exchangeable(alphabet, n, rng):
    ix = enumerate_types(EXCHANGEABLE, alphabet, n)
    weights = [rng.randint(0, 20) for _ in range(ix.N)]
    while not any(weights):
        weights = [rng.randint(0, 20) for _ in range(ix.N)]
    total = sum(weights)
    entries = {}
    for (descr, size), w in zip(ix.items, weights):
        if w:
            share = Fraction(w, total * size)
            for word in class_members(descr, n):
                entries[word] = entries.get(word, Fraction(0)) + share
    return FiniteDistribution(alphabet, n, entries)


def test_condition_product_is_input_independent():
    letter = FiniteDistribution(
        JOINT,
        1,
        {
            (JOINT.pack((a, x)),): Fraction(1, 2) * Fraction(1, 2)
            for a in (0, 1)
            for x in (0, 1)
        },
    )
    pc = condition(tensor_power(letter, 2))
    slices = [dict(pc.slices[x].entries) for x in sorted(pc.inputs())]
    assert all(s == slices[0] for s in slices)


def test_condition_dirac_projection():
    word = tuple(JOINT.pack(p) for p in ((0, 0), (1, 0), (1, 1)))
    pc = condition(dirac(JOINT, word))
    assert list(pc.inputs()) == [(0, 0, 1)]
    assert pc.slices[(0, 0, 1)].entries == {(0, 1, 1): Fraction(1)}


def test_condition_uniform_joint_gives_uniform_slices():
    pc = condition(uniform(JOINT, 2))
    for x in pc.inputs():
        assert all(v == Fraction(1, 4) for v in pc.slices[x].entries.values())


def test_condition_requires_factored_alphabet():
    with pytest.raises(NotFactored):
        condition(uniform(Alphabet(4), 2))


def test_lift_round_trip_preserves_conditional():
    rng = random.Random(12)
    for _ in range(10):
        p = random_exchangeable(JOINT, 3, rng)
        pc = condition(p)
        lifted = lift_conditional(pc)
        back = condition(lifted)
        assert set(back.inputs()) == set(pc.inputs())
        for x in pc.inputs():
            assert back.slices[x].entries == pc.slices[x].entries


def test_lift_rejects_non_exchangeable_conditional_with_witness():
    bad = ConditionalDistribution(
        Alphabet(2),
        Alphabet(2),
        2,
        {
            (0, 1): FiniteDistribution(Alphabet(2), 2, {(0, 0): Fraction(1)}),
            (1, 0): FiniteDistribution(Alphabet(2), 2, {(1, 1): Fraction(1)}),
        },
    )
    with pytest.raises(NotConditionallyExchangeable) as err:
        lift_conditional(bad)
    assert err.value.witness is not None


def test_lift_rejects_table_not_closed_under_x_classes():
    partial = ConditionalDistribution(
        Alphabet(2),
        Alphabet(2),
        2,
        {(0, 1): FiniteDistribution(Alphabet(2), 2, {(0, 0): Fraction(1)})},
    )
    with pytest.raises(NotConditionallyExchangeable):
        lift_conditional(partial)


def test_marginal_type_examples():
    joint_type = ExchangeableType((1, 0, 0, 1))  # one (0,0) pair, one (1,1) pair
    assert marginal_type(joint_type, JOINT) == ExchangeableType((1, 1))
    q = uniform_class_dist(joint_type, 2, alphabet=JOINT)
    assert marginal(q, 1).entries == {
        (0, 1): Fraction(1, 2),
        (1, 0): Fraction(1, 2),
    }
    point = ExchangeableType((2, 0, 0, 0))
    assert marginal_type(point, JOINT) == ExchangeableType((2, 0))


def test_marginals_of_extremes_are_extreme_exhaustive():
    for n in range(1, 5):
        for descr, _ in enumerate_types(EXCHANGEABLE, JOINT, n).items:
            q = uniform_class_dist(descr, n, alphabet=JOINT)
            expected = marginal_type(descr, JOINT)
            got = marginal(q, 1)
            size = class_size(expected, n)
            assert len(got.entries) == size
            assert all(v == Fraction(1, size) for v in got.entries.values())


def test_markov_counterexample_report():
    rep = markov_marginal_counterexample()
    assert rep.joint_sequence == ((0, 0), (0, 1), (1, 0), (1, 0))
    assert set(rep.x_class_members) == {(0, 1, 0, 0), (0, 0, 1, 0)}
    assert sorted(rep.marginal_masses) == [Fraction(0), Fraction(1)]
    assert not rep.marginal_is_markov_exchangeable
    assert rep.exchangeable_analogue_holds


def test_certificate_holds_for_product_joint():
    letter = FiniteDistribution(
        JOINT,
        1,
        {
            (JOINT.pack((a, x)),): Fraction(1 + a, 3) * Fraction(1 + x, 3)
            for a in (0, 1)
            for x in (0, 1)
        },
    )
    for n in (1, 2, 3, 4):
        cert = verify_conditional_reduction(tensor_power(letter, n))
        assert cert.verdict == "holds"


def test_certificate_unsupported_rows_for_extreme():
    # An extreme joint leaves every other X-class without mass.
    cert = verify_conditional_reduction(
        uniform_class_dist(ExchangeableType((2, 0, 0, 0)), 2, alphabet=JOINT)
    )
    assert cert.verdict == "holds"
    assert any(rec.verdict == "unsupported" for rec in cert.records)


def test_certificate_alpha_prime_is_one():
    cert = verify_conditional_reduction(uniform(JOINT, 3))
    assert all(rec.alpha_prime_used == 1 for rec in cert.records)
    assert all(rec.alpha_prime_tight <= 1 for rec in cert.records)
    assert max(rec.alpha_prime_tight for rec in cert.records) == 1


def test_certificate_universality_across_inputs():
    rng = random.Random(5)
    tables = set()
    for _ in range(6):
        cert = verify_conditional_reduction(random_exchangeable(JOINT, 3, rng))
        tables.add(cert.universal_rhs_table())
    assert len(tables) == 1


def test_certificate_accepts_conditional_input():
    rng = random.Random(31)
    p = random_exchangeable(JOINT, 3, rng)
    cert = verify_conditional_reduction(condition(p))
    assert cert.verdict == "holds"


def test_conditional_input_is_checked_once(monkeypatch):
    calls = []
    original = reduction.check_exchangeable

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(reduction, "check_exchangeable", counted)
    monkeypatch.setattr(conditional, "check_exchangeable", counted)
    cert = verify_conditional_reduction(condition(uniform(JOINT, 3)))
    assert cert.verdict == "holds"
    assert len(calls) == 1


def test_certificate_rejects_non_invariant_conditional_with_witness():
    bad = ConditionalDistribution(
        Alphabet(2),
        Alphabet(2),
        2,
        {
            (0, 1): FiniteDistribution(Alphabet(2), 2, {(0, 0): Fraction(1)}),
            (1, 0): FiniteDistribution(Alphabet(2), 2, {(1, 1): Fraction(1)}),
        },
    )
    with pytest.raises(NotConditionallyExchangeable) as err:
        verify_conditional_reduction(bad)
    assert err.value.witness is not None


def test_certificate_rejects_non_exchangeable():
    p = FiniteDistribution(JOINT, 2, {(0, 1): Fraction(1)})
    with pytest.raises(NotExchangeable):
        verify_conditional_reduction(p)


def test_empirical_alpha_prime_matches_certificate_for_exchangeable():
    cert = verify_conditional_reduction(uniform(JOINT, 3))
    for rec in cert.records:
        assert empirical_alpha_prime(rec.descriptor, JOINT, 3) == rec.alpha_prime_tight


def test_empirical_alpha_prime_markov_reported_without_claims():
    from exkit.relations import MARKOV

    # Observed values for Markov joints; no growth claim is made, the data
    # is simply exposed.  Includes the counterexample class (a Dirac joint).
    word = tuple(JOINT.pack(p) for p in ((0, 0), (0, 1), (1, 0), (1, 0)))
    descr = type_of(word, MARKOV, JOINT)
    value = empirical_alpha_prime(descr, JOINT, 4)
    assert 0 < value <= 1
    for other, _ in enumerate_types(MARKOV, JOINT, 3).items:
        assert empirical_alpha_prime(other, JOINT, 3) > 0


def test_conditional_rhs_skips_pairs_where_pi_is_zero(monkeypatch):
    joint = Alphabet(6, (3, 2))
    p = random_exchangeable(joint, 5, random.Random(35))
    calls = []
    pi_ratio = ExchangeableType.pi_ratio

    def recorded(k, c):
        calls.append((k, c))
        return pi_ratio(k, c)

    monkeypatch.setattr(ExchangeableType, "pi_ratio", recorded)
    cert = verify_conditional_reduction(p)
    monkeypatch.undo()
    assert cert.verdict == "holds" and calls
    # A pair with supp(c) outside supp(k) has pi_k(c) = 0 and is never asked.
    outside = [
        (k, c) for k, c in calls if any(tc and not tk for tk, tc in zip(k.counts, c.counts))
    ]
    assert outside == []
    assert len(calls) < cert.N**2


# -- the universal right-hand side, kept once per (A, X, n) ----------------------

JOINT_3X2 = Alphabet(6, (3, 2))


def cold(p, **kwargs):
    conditional.universal_rhs.cache_clear()
    conditional._scaled_rhs.cache_clear()
    return verify_conditional_reduction(p, **kwargs)


def kept_shapes():
    return conditional.universal_rhs.cache_info().currsize


def assert_same_certificate(warm, fresh):
    for name in ("records", "prefactor", "alpha", "bits", "verdict"):
        assert getattr(warm, name) == getattr(fresh, name), name
    assert warm == fresh


def interleaved_joints(seed):
    rng = random.Random(seed)
    shapes = [(JOINT, 3), (JOINT_3X2, 2), (JOINT, 4), (JOINT_3X2, 3)]
    return [random_exchangeable(joint, n, rng) for _ in range(3) for joint, n in shapes]


def test_warm_certificates_equal_cold_ones():
    joints = interleaved_joints(43)
    warm = [verify_conditional_reduction(p) for p in joints]
    assert kept_shapes() == 4
    for p, cert in zip(joints, warm):
        assert_same_certificate(cert, cold(p))


def test_warm_certificates_equal_cold_ones_after_escalation(monkeypatch):
    # Below 256 bits alpha(n) is widened to [0, hi], so no supported class is
    # decided there and every certificate escalates once.
    exact_alpha = conditional.alpha_analytic

    def loose_below_256(relation, n, alphabet, bits):
        bound = exact_alpha(relation, n, alphabet, bits)
        if bits >= 256:
            return bound
        return dataclasses.replace(bound, value=IntervalScalar(Fraction(0), bound.value.hi, bits))

    monkeypatch.setattr(conditional, "alpha_analytic", loose_below_256)
    joints = interleaved_joints(47)
    warm = [verify_conditional_reduction(p) for p in joints]
    assert all(cert.bits == 256 and cert.verdict == "holds" for cert in warm)
    for p, cert in zip(joints, warm):
        assert_same_certificate(cert, cold(p))


def test_lower_cap_on_a_warm_shape_still_stops(tmp_path, capsys):
    p = random_exchangeable(JOINT, 3, random.Random(53))
    verify_conditional_reduction(p)
    with pytest.raises(CapExceeded):
        verify_conditional_reduction(p, cap=5)
    path = tmp_path / "joint.json"
    path.write_text(serialize.dumps(serialize.distribution_to_json(p)))
    assert main(["conditional", str(path)]) == 0
    assert main(["conditional", str(path), "--enum-cap", "5"]) == 2
    capsys.readouterr()


def test_non_invariant_joint_on_a_warm_shape_keeps_its_witness():
    p = random_exchangeable(JOINT, 3, random.Random(41))
    verify_conditional_reduction(p)
    entries = dict(p.entries)
    # Move mass between two words of the class of type (1, 1, 1, 0).
    shift = entries[(0, 1, 2)] / 2
    entries[(0, 1, 2)] -= shift
    entries[(2, 1, 0)] += shift
    bad = FiniteDistribution(JOINT, 3, entries)
    with pytest.raises(NotExchangeable) as err:
        verify_conditional_reduction(bad)
    assert err.value.witness == ((0, 1, 2), (0, 2, 1))
    assert str(err.value) == "P((0, 1, 2)) = 7/1080 but P((0, 2, 1)) = 7/540 on the same class"


def count_pi_tables(monkeypatch):
    calls = []
    original = conditional.pi_table

    def counted(rows, columns):
        calls.append(len(rows))
        return original(rows, columns)

    monkeypatch.setattr(conditional, "pi_table", counted)
    return calls


def test_conditional_input_hits_the_joint_memo(monkeypatch):
    calls = count_pi_tables(monkeypatch)
    rng = random.Random(59)
    p = random_exchangeable(JOINT, 3, rng)
    via_joint = verify_conditional_reduction(p)
    via_conditional = verify_conditional_reduction(condition(random_exchangeable(JOINT, 3, rng)))
    assert calls == [20] and kept_shapes() == 1
    assert via_conditional.universal_rhs_table() == via_joint.universal_rhs_table()
    assert_same_certificate(verify_conditional_reduction(condition(p)), cold(condition(p)))


def test_pi_table_is_built_once_per_shape(monkeypatch):
    calls = count_pi_tables(monkeypatch)
    for p in interleaved_joints(61):
        verify_conditional_reduction(p)
    # One table per shape: 20, 21, 35 and 56 classes.
    assert sorted(calls) == [20, 21, 35, 56]


def test_memo_keeps_a_fixed_number_of_shapes(monkeypatch):
    calls = count_pi_tables(monkeypatch)
    kept = conditional.UNIVERSAL_RHS_SHAPES
    joint = Alphabet(2, (1, 2))

    def certify(n):
        verify_conditional_reduction(uniform(joint, n))
        assert kept_shapes() <= kept
        return len(calls)

    for n in range(1, kept + 1):
        assert certify(n) == n
    # n = 1 was used last, so the next new shape drops n = 2, the least
    # recently used one.
    assert certify(1) == kept
    assert certify(kept + 1) == kept + 1
    assert certify(1) == kept + 1
    assert certify(2) == kept + 2
    assert kept_shapes() == kept


def test_conditional_goldens_match_back_to_back(tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "golden"
    for name, joint in [
        ("conditional_2x2_n3.json", "joint_2x2_n3.json"),
        ("conditional_2x2_n3_unsupported.json", "joint_2x2_n3_unsupported.json"),
        ("conditional_2x2_n3.json", "joint_2x2_n3.json"),
    ]:
        out = tmp_path / name
        assert main(["conditional", str(golden / joint), "--output", str(out)]) == 0
        assert out.read_bytes() == (golden / name).read_bytes(), name
        assert kept_shapes() == 1
    capsys.readouterr()


def test_cold_right_hand_sides_agree_across_joints():
    # Each joint rebuilds the right-hand side from a cleared memo, so equal
    # tables show that P never enters it.
    rng = random.Random(67)
    for joint, n in [(JOINT, 4), (JOINT_3X2, 3)]:
        tables = {cold(random_exchangeable(joint, n, rng)).universal_rhs_table() for _ in range(3)}
        assert len(tables) == 1
