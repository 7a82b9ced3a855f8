"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every numeric check is exact (rational equality) or certified
(rational against an outward-rounded interval); no tolerances are deferred.

Criterion 4 checks the analytic pre-factor against the exact per-class
ratios at every n in the shared ranges, including small n where classes have
never-visited states.  The paper's Markov-family formula undershoots there;
``alpha_analytic`` uses a form proven for every n (see its docstring), which
equals the paper's once n is large.  On a failure the test prints the full
defect table.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from exkit.conditional import (
    markov_marginal_counterexample,
    verify_conditional_reduction,
)
from exkit.core import Alphabet, FiniteDistribution, marginal
from exkit.games import (
    chsh_game,
    classical_value,
    definetti_upper_bound,
    iid_kernel,
    parallel_game,
    sequential_game,
    tensor_strategy,
    winning_probability,
)
from exkit.mp import beta_bound, lambda_matrix, mp_of_extreme
from exkit.reduction import (
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
    Markov,
    ProductRelation,
    best_formula_terms,
    class_members,
    class_size,
    enumerate_types,
    type_of,
)
from oracles import (
    DirectedMultigraph,
    arborescence_count,
    brute_force_index,
    eulerian_trajectory_count_bruteforce,
    fidelity_squared,
    is_eulerian,
    spanning_in_trees_bruteforce,
    symmetrize_strategy,
    transition_graph,
)

PAPER_WORD = tuple(int(c) - 1 for c in "11323122")
PAPER_TABLE = {
    "11323122", "11322312", "11312322", "11312232", "11231322", "11223132",
    "13112322", "13112232", "12311322", "13231122", "12231132", "13223112",
}

# (relation, alphabet, range of n) families shared by criteria 2 and 4.
A22 = Alphabet(4, (2, 2))
RANGE_FAMILIES = (
    ("exchangeable", EXCHANGEABLE, Alphabet(1), range(1, 9)),
    ("exchangeable", EXCHANGEABLE, Alphabet(2), range(1, 9)),
    ("exchangeable", EXCHANGEABLE, Alphabet(3), range(1, 9)),
    ("markov", MARKOV, Alphabet(2), range(1, 8)),
    ("markov", MARKOV, Alphabet(3), range(1, 8)),
    ("lmarkov2", LMarkov(2), Alphabet(2), range(3, 9)),
    ("product-ee", ProductRelation((Exchangeable(), Exchangeable())), A22, range(1, 6)),
    ("product-mm", ProductRelation((Markov(), Markov())), A22, range(1, 6)),
    ("product-em", ProductRelation((Exchangeable(), Markov())), A22, range(1, 6)),
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_invariant(alphabet, n, relation, rng):
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


def test_criterion_1_worked_example_exactness():
    start = time.monotonic()
    descr = type_of(PAPER_WORD, MARKOV, Alphabet(3))
    size = class_size(descr, 8)
    members = {"".join(str(v + 1) for v in w) for w in class_members(descr, 8)}
    terms = best_formula_terms(descr, 8)
    g, s, e, aug = transition_graph(descr, 8)
    trees = [arborescence_count(aug, r) for r in range(3)]
    traj = eulerian_trajectory_count_bruteforce(g, s)
    elapsed = time.monotonic() - start
    ok = (
        size == 12
        and members == PAPER_TABLE
        and trees == [3, 3, 3]
        and terms["t_w"] == 2
        and terms["spanning_trees"] == 3
        and terms["factorial_ratio"] == 2
        and terms["t_w"] * terms["spanning_trees"] * terms["factorial_ratio"] == 12
        and traj == 12
        and elapsed < 1.0
    )
    report(1, ok, f"class size 12, table match, T(G0)=3, 2*3*2=12 in {elapsed:.3f}s")


def test_criterion_2_partition_and_formula_vs_oracle():
    start = time.monotonic()
    checked_classes = 0
    for name, relation, alphabet, ns in RANGE_FAMILIES:
        for n in ns:
            if n < relation.min_word_length():
                continue
            index = enumerate_types(relation, alphabet, n)
            oracle = brute_force_index(relation, alphabet, n)
            assert set(index.descriptors()) == set(oracle), (name, n)
            total = 0
            for descr, size in index.items:
                assert size == len(oracle[descr]), (name, n, descr)
                total += size
                checked_classes += 1
            assert total == alphabet.size**n, (name, n)
    elapsed = time.monotonic() - start
    ok = elapsed < 300.0
    report(2, ok, f"{checked_classes} classes across all ranges, formulas == oracle, in {elapsed:.1f}s")


def test_criterion_3_matrix_tree_vs_oracle():
    rng = random.Random(20240131)
    eulerian_seen = 0
    for case in range(200):
        m = rng.randint(1, 5)
        rows = [[0] * m for _ in range(m)]
        for _ in range(rng.randint(0, 8)):
            rows[rng.randrange(m)][rng.randrange(m)] += 1
        g = DirectedMultigraph(m, tuple(tuple(r) for r in rows))
        root = rng.randrange(m)
        assert arborescence_count(g, root) == spanning_in_trees_bruteforce(g, root)
        # Symmetrized edge multiset is balanced; test root independence there.
        sym_rows = tuple(
            tuple(rows[i][j] + rows[j][i] for j in range(m)) for i in range(m)
        )
        sym = DirectedMultigraph(m, sym_rows)
        if is_eulerian(sym) and sym.edge_count:
            eulerian_seen += 1
            counts = {arborescence_count(sym, r) for r in range(m)}
            assert len(counts) == 1
    report(3, True, f"200 random graphs match brute force; {eulerian_seen} Eulerian root-independence checks")


def test_criterion_4_analytic_alpha_dominates_tight_ratios():
    failures = []
    for name, relation, alphabet, ns in RANGE_FAMILIES:
        for n in ns:
            if n < relation.min_word_length():
                continue
            if isinstance(relation, Markov) and n < 2:
                continue
            if isinstance(relation, ProductRelation) and any(
                isinstance(p, Markov) for p in relation.parts
            ) and n < 2:
                continue
            bound = alpha_analytic(relation, n, alphabet)
            bad = []
            for descr, _ in enumerate_types(relation, alphabet, n).items:
                tight = alpha_tight(descr, n)
                if not tight <= bound.value.hi:
                    bad.append((descr, tight))
            if bad:
                worst = max(t for _, t in bad)
                failures.append(
                    f"{name} d={alphabet.size} n={n}: {len(bad)} classes exceed "
                    f"alpha(n) <= {float(bound.value.hi):.4g} (worst exact ratio {worst})"
                )
    detail = (
        "every nonempty class satisfies tight ratio <= analytic alpha(n)"
        if not failures
        else (
            "the closed-form pre-factor undershoots the exact per-class ratio on "
            "classes with never-visited states (the formula's AM-GM step needs "
            "every row sum positive):\n    " + "\n    ".join(failures)
        )
    )
    report(4, not failures, detail)


def test_criterion_5_flexible_reduction_random_suites():
    rng = random.Random(5150)
    a2 = Alphabet(2)
    count_exch = 0
    for i in range(100):
        n = 1 + i % 6
        p = random_invariant(a2, n, EXCHANGEABLE, rng)
        dec = decompose(p, EXCHANGEABLE)
        assert sum(dec.weights, Fraction(0)) == 1
        assert dec.remix().entries == p.entries
        cert = verify_flexible_reduction(p, EXCHANGEABLE)
        assert cert.verdict == "holds", f"exchangeable n={n} draw {i}"
        count_exch += 1
    count_markov = 0
    for i in range(100):
        n = 4 + i % 3  # analytic alpha(n) dominates at every n >= 2 (criterion 4)
        p = random_invariant(a2, n, MARKOV, rng)
        dec = decompose(p, MARKOV)
        assert sum(dec.weights, Fraction(0)) == 1
        assert dec.remix().entries == p.entries
        cert = verify_flexible_reduction(p, MARKOV)
        assert cert.verdict == "holds", f"markov n={n} draw {i}"
        count_markov += 1
    report(5, True, f"{count_exch} exchangeable + {count_markov} Markov random P all Hold; reconstruction bit-exact")


def test_criterion_6_measure_and_prepare():
    for d in (1, 2, 3):
        for n in range(1, 9):
            lam = lambda_matrix(n, d)
            k = len(lam.types)
            for i in range(k):
                assert sum(lam.entries[i], Fraction(0)) == 1
                assert sum((lam.entries[j][i] for j in range(k)), Fraction(0)) == 1
                for j in range(i):
                    assert lam.entries[i][j] == lam.entries[j][i]
    for d in (1, 2):
        for n in range(1, 7):
            lam = lambda_matrix(n, d)
            for t in lam.types:
                mp = mp_of_extreme(t, n)
                assert sum(mp.entries.values(), Fraction(0)) == 1
                for s in lam.types:
                    f2 = fidelity_squared(uniform_class_dist(ExchangeableType(s), n), mp)
                    assert f2.is_point and f2.lo == lam.value(s, t), (d, n, s, t)
    for n in (2, 4, 6, 8, 10):
        bb = beta_bound(n, 2)
        assert bb.argmax_type == (n // 2, n // 2), n
        assert bb.beta_analytic is not None
        assert bb.beta_exact <= bb.beta_analytic.lo, n
    report(6, True, "lambda exactly bistochastic+symmetric (d<=3, n<=8); F^2 == lambda (d<=2, n<=6); flat-type beta bound holds")


def test_criterion_7_conditional_reduction():
    rng = random.Random(7373)
    joint = Alphabet(4, (2, 2))
    rhs_by_n: dict[int, set] = {}
    checked = 0
    for n in range(1, 7):
        for descr, _ in enumerate_types(EXCHANGEABLE, joint, n).items:
            cert = verify_conditional_reduction(
                uniform_class_dist(descr, n, alphabet=joint)
            )
            assert cert.verdict == "holds", (n, descr)
            assert all(r.alpha_prime_tight <= 1 for r in cert.records)
            assert max(r.alpha_prime_tight for r in cert.records) == 1
            rhs_by_n.setdefault(n, set()).add(cert.universal_rhs_table())
            checked += 1
    for i in range(100):
        n = 1 + i % 6
        cert = verify_conditional_reduction(random_invariant(joint, n, EXCHANGEABLE, rng))
        assert cert.verdict == "holds", f"random joint draw {i} (n={n})"
        assert max(r.alpha_prime_tight for r in cert.records) == 1
        rhs_by_n[n].add(cert.universal_rhs_table())
        checked += 1
    assert all(len(tables) == 1 for tables in rhs_by_n.values())
    report(7, True, f"{checked} joints (all extremes n<=6 + 100 random) hold; alpha' = 1 exactly; RHS universal per n")


def test_criterion_8_marginal_lemma_and_counterexample():
    for d_a in (1, 2):
        for d_x in (1, 2):
            joint = Alphabet(d_a * d_x, (d_a, d_x))
            x_alpha = Alphabet(d_x)
            for n in range(1, 5):
                for descr, _ in enumerate_types(EXCHANGEABLE, joint, n).items:
                    q = uniform_class_dist(descr, n, alphabet=joint)
                    got = marginal(q, 1)
                    # marginal of an extreme is the uniform distribution on one X-class
                    x_type = type_of(next(iter(got.entries)), EXCHANGEABLE, x_alpha)
                    size = class_size(x_type, n)
                    assert len(got.entries) == size
                    assert all(v == Fraction(1, size) for v in got.entries.values())
            rng = random.Random(800 + d_a * 10 + d_x)
            for _ in range(10):
                n = rng.randint(1, 4)
                p = random_invariant(joint, n, EXCHANGEABLE, rng)
                got = marginal(p, 1)
                groups = {}
                for w, v in got.entries.items():
                    groups.setdefault(type_of(w, EXCHANGEABLE, x_alpha), set()).add(v)
                assert all(len(vals) == 1 for vals in groups.values())
    rep = markov_marginal_counterexample()
    ok = (
        set(rep.x_class_members) == {(0, 1, 0, 0), (0, 0, 1, 0)}
        and sorted(rep.marginal_masses) == [Fraction(0), Fraction(1)]
        and not rep.marginal_is_markov_exchangeable
        and rep.exchangeable_analogue_holds
    )
    report(8, ok, "marginals of extremes are extreme (d<=2, n<=4); Markov counterexample witnesses (1,2,1,1) vs (1,1,2,1)")


def test_criterion_9_games():
    start = time.monotonic()
    chsh = chsh_game()
    value, witness = classical_value(chsh)
    assert value == Fraction(3, 4)

    g2 = parallel_game(chsh, 2)
    v2, _ = classical_value(g2)
    assert v2 >= value * value
    tensor = tensor_strategy(chsh, witness, 2)
    assert winning_probability(g2, tensor) == value * value

    assert sequential_game(chsh, iid_kernel(chsh), 2) == g2

    rng = random.Random(90210)
    outs = [
        (at, bt)
        for at in itertools.product((0, 1), repeat=2)
        for bt in itertools.product((0, 1), repeat=2)
    ]
    for i in range(50):
        table = {}
        for xt in itertools.product((0, 1), repeat=2):
            for yt in itertools.product((0, 1), repeat=2):
                weights = [rng.randint(0, 9) for _ in outs]
                while not any(weights):
                    weights = [rng.randint(0, 9) for _ in outs]
                total = sum(weights)
                table[(xt, yt)] = {
                    ab: Fraction(w, total) for ab, w in zip(outs, weights) if w
                }
        from exkit.games import Strategy

        sym = symmetrize_strategy(chsh, g2, Strategy(table), EXCHANGEABLE)
        bound = definetti_upper_bound(chsh, 2, sym, mode="parallel")
        assert bound.bound.certainly_ge(bound.winning), f"strategy draw {i}"
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    report(9, ok, f"CHSH=3/4, CHSH^2={v2} >= 9/16, 50 random bounds certified, sequential==parallel, in {elapsed:.1f}s")


def test_criterion_10_stirling_sandwich():
    for p in range(1, 51):
        lower, upper = stirling_bounds(p, bits=128)
        f = math.factorial(p)
        below = lower.certainly_le(f)
        above = upper.certainly_ge(f)
        assert below is True, f"p={p} lower bound inconclusive or false"
        assert above is True, f"p={p} upper bound inconclusive or false"
    report(10, True, "sqrt(2 pi) p^(p+1/2) e^-p <= p! <= e p^(p+1/2) e^-p certified for 1 <= p <= 50 at 128 bits")
