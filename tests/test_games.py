import itertools
import random
from fractions import Fraction

import pytest

import exkit.reduction as reduction
from exkit.errors import BadParams, CapExceeded, KernelNotStationary, NotExchangeable
from exkit.games import (
    Game,
    SequentialKernel,
    Strategy,
    chsh_game,
    classical_value,
    definetti_upper_bound,
    deterministic_strategy,
    iid_kernel,
    joint_weight,
    parallel_game,
    sequential_game,
    tensor_strategy,
    winning_probability,
)
from exkit.relations import EXCHANGEABLE, MARKOV
from oracles import symmetrize_strategy

CHSH = chsh_game()


def trivial_game():
    return Game((0,), (0,), (0,), (0,), {(0, 0): Fraction(1)}, frozenset({(0, 0, 0, 0)}))


def random_strategy(game, n, rng):
    """Random (possibly signalling) conditional over the n-fold repetition."""
    xs = list(itertools.product(game.inputs_x, repeat=n))
    ys = list(itertools.product(game.inputs_y, repeat=n))
    outs = [
        (at, bt)
        for at in itertools.product(game.outputs_a, repeat=n)
        for bt in itertools.product(game.outputs_b, repeat=n)
    ]
    table = {}
    for xt in xs:
        for yt in ys:
            weights = [rng.randint(0, 9) for _ in outs]
            while not any(weights):
                weights = [rng.randint(0, 9) for _ in outs]
            total = sum(weights)
            table[(xt, yt)] = {
                ab: Fraction(w, total) for ab, w in zip(outs, weights) if w
            }
    return Strategy(table)


def test_winning_probability_examples():
    assert winning_probability(trivial_game(), deterministic_strategy(trivial_game(), {0: 0}, {0: 0})) == 1
    constant = deterministic_strategy(CHSH, {0: 0, 1: 0}, {0: 0, 1: 0})
    assert winning_probability(CHSH, constant) == Fraction(3, 4)
    # a = x, b = 0 satisfies the predicate on 3 of the 4 input pairs.  (The
    # build spec quotes 1/2 here, but exhaustive enumeration of the four
    # input pairs gives 3/4; deterministic CHSH strategies only ever score
    # 1/4 or 3/4.)
    echo = deterministic_strategy(CHSH, {0: 0, 1: 1}, {0: 0, 1: 0})
    assert winning_probability(CHSH, echo) == Fraction(3, 4)


def test_classical_value_examples():
    assert classical_value(trivial_game())[0] == 1
    value, witness = classical_value(CHSH)
    assert value == Fraction(3, 4)
    assert winning_probability(CHSH, witness) == Fraction(3, 4)
    losing = Game(CHSH.inputs_x, CHSH.inputs_y, CHSH.outputs_a, CHSH.outputs_b, CHSH.input_law, frozenset())
    assert classical_value(losing)[0] == 0


def test_classical_value_cap():
    with pytest.raises(CapExceeded):
        classical_value(CHSH, cap=4)


def exhaustive_classical_value(game):
    """Every deterministic pair (g, then f, in lexicographic order); the first
    of maximal score is the witness."""
    best = None
    for g_choice in itertools.product(game.outputs_b, repeat=len(game.inputs_y)):
        g = dict(zip(game.inputs_y, g_choice))
        for f_choice in itertools.product(game.outputs_a, repeat=len(game.inputs_x)):
            f = dict(zip(game.inputs_x, f_choice))
            score = sum(
                (t for (x, y), t in game.input_law.items() if game.wins(x, y, f[x], g[y])),
                Fraction(0),
            )
            if best is None or score > best[0]:
                best = (score, f, g)
    return best[0], deterministic_strategy(game, best[1], best[2])


def random_game(rng, size):
    inputs, outputs = tuple(range(size)), tuple(range(size))
    weights = {(x, y): rng.randint(0, 4) for x in inputs for y in inputs}
    weights[(0, 0)] += 1
    total = sum(weights.values())
    predicate = frozenset(
        (x, y, a, b)
        for x in inputs for y in inputs for a in outputs for b in outputs
        if rng.random() < 0.4
    )
    law = {xy: Fraction(w, total) for xy, w in weights.items()}
    return Game(inputs, inputs, outputs, outputs, law, predicate)


@pytest.mark.parametrize("game", [
    CHSH, parallel_game(CHSH, 2), random_game(random.Random(3), 3),
], ids=["chsh", "chsh2", "random3x3"])
def test_classical_value_best_response_matches_exhaustive(game):
    assert classical_value(game) == exhaustive_classical_value(game)


def test_classical_value_cap_counts_best_response_work():
    # CHSH^2: 4^4 Bob tables x 4 inputs x 4 outputs.
    g2 = parallel_game(CHSH, 2)
    assert classical_value(g2, cap=4**4 * 4 * 4)[0] == Fraction(5, 8)
    with pytest.raises(CapExceeded):
        classical_value(g2, cap=4**4 * 4 * 4 - 1)


def test_all_deterministic_chsh_values_are_quarter_or_three_quarters():
    values = set()
    for fa in itertools.product((0, 1), repeat=2):
        for gb in itertools.product((0, 1), repeat=2):
            s = deterministic_strategy(CHSH, dict(zip((0, 1), fa)), dict(zip((0, 1), gb)))
            values.add(winning_probability(CHSH, s))
    assert values == {Fraction(1, 4), Fraction(3, 4)}


def test_parallel_game_identity_at_n1():
    assert parallel_game(CHSH, 1) == CHSH


def test_parallel_value_at_least_tensor():
    value, witness = classical_value(CHSH)
    g2 = parallel_game(CHSH, 2)
    v2, _ = classical_value(g2)
    tensor = tensor_strategy(CHSH, witness, 2)
    assert winning_probability(g2, tensor) == value * value == Fraction(9, 16)
    assert v2 >= value * value
    assert v2 == Fraction(5, 8)  # frozen from exhaustive enumeration


def test_trivial_game_any_repetition_value_one():
    for n in (1, 2, 3):
        g = parallel_game(trivial_game(), n)
        assert classical_value(g)[0] == 1


def test_sequential_with_iid_kernel_equals_parallel():
    assert sequential_game(CHSH, iid_kernel(CHSH), 2) == parallel_game(CHSH, 2)
    assert sequential_game(CHSH, iid_kernel(CHSH), 3) == parallel_game(CHSH, 3)


@pytest.mark.parametrize("n", [2, 3])
def test_parallel_law_is_the_product_of_the_round_laws(n):
    # parallel_game is sequential_game under iid_kernel, so its law is pinned
    # here against prod_i T(x_i, y_i) directly, zero-probability pairs included.
    game = random_game(random.Random(2), 2)
    assert 0 in game.input_law.values()
    expected = {}
    for xt in itertools.product(game.inputs_x, repeat=n):
        for yt in itertools.product(game.inputs_y, repeat=n):
            value = Fraction(1)
            for x, y in zip(xt, yt):
                value *= game.input_law[(x, y)]
            if value:
                expected[(xt, yt)] = value
    assert parallel_game(game, n).input_law == expected


def test_sequential_game_n1_identity():
    assert sequential_game(CHSH, iid_kernel(CHSH), 1) == CHSH


def test_sequential_cycle_kernel():
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    cycle = SequentialKernel(
        {pairs[i]: {pairs[(i + 1) % 4]: Fraction(1)} for i in range(4)}
    )
    g = sequential_game(CHSH, cycle, 2)
    assert len(g.input_law) == 4
    assert all(v == Fraction(1, 4) for v in g.input_law.values())
    # Alice's two inputs identify the path, so the players can always win.
    assert classical_value(g)[0] == 1  # frozen from exhaustive enumeration


def test_kernel_stationarity_enforced():
    skew = SequentialKernel({(x, y): {(0, 0): Fraction(1)} for x in (0, 1) for y in (0, 1)})
    with pytest.raises(KernelNotStationary):
        sequential_game(CHSH, skew, 2)


def test_symmetrize_tensor_power_is_fixed_point():
    _, witness = classical_value(CHSH)
    g2 = parallel_game(CHSH, 2)
    tensor = tensor_strategy(CHSH, witness, 2)
    sym = symmetrize_strategy(CHSH, g2, tensor, EXCHANGEABLE)
    assert sym.table == tensor.table


def test_symmetrize_preserves_winning_probability():
    g2 = parallel_game(CHSH, 2)
    det = deterministic_strategy(
        g2, {x: (0, 0) for x in g2.inputs_x}, {y: (0, 1) for y in g2.inputs_y}
    )
    sym = symmetrize_strategy(CHSH, g2, det, EXCHANGEABLE)
    assert winning_probability(g2, det) == winning_probability(g2, sym)
    rng = random.Random(23)
    for _ in range(10):
        s = random_strategy(CHSH, 2, rng)
        sym = symmetrize_strategy(CHSH, g2, s, EXCHANGEABLE)
        assert winning_probability(g2, s) == winning_probability(g2, sym)
        w = joint_weight(CHSH, g2, sym, 2)
        from exkit.reduction import check_exchangeable

        check_exchangeable(w, EXCHANGEABLE)  # symmetrized joint is invariant


def test_definetti_bound_trivial_game():
    g = trivial_game()
    s = tensor_strategy(g, deterministic_strategy(g, {0: 0}, {0: 0}), 2)
    report = definetti_upper_bound(g, 2, s, mode="parallel")
    assert report.winning == 1
    assert report.bound.certainly_ge(Fraction(1))


def test_definetti_bound_chsh_n2():
    _, witness = classical_value(CHSH)
    g2 = parallel_game(CHSH, 2)
    sym = symmetrize_strategy(CHSH, g2, tensor_strategy(CHSH, witness, 2), EXCHANGEABLE)
    report = definetti_upper_bound(CHSH, 2, sym, mode="parallel")
    assert report.winning == Fraction(9, 16)
    assert report.bound.certainly_ge(report.winning)
    # d = |X||Y||A||B| = 16, so the paper's polynomial degree is 2(d-1) = 30.
    assert report.degree == 30
    assert report.prefactor_certified.lo == 136 * 4  # N = C(17,2), alpha* = 2


def test_definetti_bound_random_exchangeable_strategies():
    rng = random.Random(404)
    g2 = parallel_game(CHSH, 2)
    for _ in range(5):
        sym = symmetrize_strategy(CHSH, g2, random_strategy(CHSH, 2, rng), EXCHANGEABLE)
        report = definetti_upper_bound(CHSH, 2, sym, mode="parallel")
        assert report.bound.certainly_ge(report.winning)


def test_definetti_bound_sequential_mode():
    # At n = 2 Markov classes on the round alphabet are singletons, so any
    # strategy is invariant and the bound applies directly.
    rng = random.Random(9)
    kernel = iid_kernel(CHSH)
    g2 = sequential_game(CHSH, kernel, 2)
    sym = symmetrize_strategy(CHSH, g2, random_strategy(CHSH, 2, rng), MARKOV)
    report = definetti_upper_bound(CHSH, 2, sym, mode="sequential", kernel=kernel)
    assert report.bound.certainly_ge(report.winning)


def test_definetti_bound_sequential_tensor_strategy_n3():
    # Tensor powers are Markov-invariant at every n; use a small game so the
    # n = 3 class index stays cheap.
    small = Game(
        (0, 1), (0,), (0, 1), (0,),
        {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)},
        frozenset({(0, 0, 0, 0), (1, 0, 1, 0)}),
    )
    kernel = iid_kernel(small)
    base = deterministic_strategy(small, {0: 0, 1: 1}, {0: 0})
    t3 = tensor_strategy(small, base, 3)
    report = definetti_upper_bound(small, 3, t3, mode="sequential", kernel=kernel)
    assert report.winning == 1
    assert report.bound.certainly_ge(report.winning)


def test_definetti_bound_rejects_non_exchangeable_strategy():
    rng = random.Random(1)
    s = random_strategy(CHSH, 2, rng)  # not symmetrized
    with pytest.raises(NotExchangeable):
        definetti_upper_bound(CHSH, 2, s, mode="parallel")


def test_definetti_bound_requires_kernel_for_sequential():
    with pytest.raises(BadParams):
        definetti_upper_bound(CHSH, 2, random_strategy(CHSH, 2, random.Random(2)), mode="sequential")


def test_definetti_bound_rejects_a_kernel_in_parallel_mode():
    # Parallel play is the i.i.d. kernel; another kernel is an error, not dropped.
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    cycle = SequentialKernel({pairs[i]: {pairs[(i + 1) % 4]: Fraction(1)} for i in range(4)})
    _, witness = classical_value(CHSH)
    strategy = tensor_strategy(CHSH, witness, 2)  # invariant, so only the kernel can fail
    with pytest.raises(BadParams, match="parallel mode takes no kernel"):
        definetti_upper_bound(CHSH, 2, strategy, mode="parallel", kernel=cycle)


def test_joint_weight_is_a_distribution():
    rng = random.Random(77)
    g2 = parallel_game(CHSH, 2)
    s = random_strategy(CHSH, 2, rng)
    w = joint_weight(CHSH, g2, s, 2)
    assert sum(w.entries.values(), Fraction(0)) == 1
    assert w.alphabet.factors == (2, 2, 2, 2)


def test_bound_fallbacks_reproduce_the_bound(monkeypatch):
    rng = random.Random(404)
    g2 = parallel_game(CHSH, 2)
    sym = symmetrize_strategy(CHSH, g2, random_strategy(CHSH, 2, rng), EXCHANGEABLE)
    report = definetti_upper_bound(CHSH, 2, sym, mode="parallel")
    assert not report.bound.is_point  # the bracketed path, not the all-point one
    # Brackets that straddle a grid point or leave bound >= winning open fall
    # back to the exact bound, which prints the same and decides the same.
    monkeypatch.setattr(reduction, "grid_interval", lambda *args: None)
    monkeypatch.setattr(reduction, "scaled_certainly_ge", lambda *args: None)
    exact = definetti_upper_bound(CHSH, 2, sym, mode="parallel")
    assert exact.bound.to_json() == report.bound.to_json()
    assert exact.bound_ge_winning is report.bound_ge_winning is True
    assert exact.bound.certainly_ge(exact.winning) is True


def test_tensor_strategy_stays_behind_the_enumeration_cap():
    _, witness = classical_value(CHSH)
    assert len(tensor_strategy(CHSH, witness, 3, cap=16**3).table) == 4**3
    with pytest.raises(CapExceeded):
        tensor_strategy(CHSH, witness, 3, cap=16**3 - 1)


def test_symmetrize_one_round_game_with_tuple_labels():
    # The labels of a one-round game may be tuples; n = 1 because the
    # repeated game is the game itself.
    def wrap(axis):
        return tuple((v, v) for v in axis)

    game = Game(
        *map(wrap, CHSH.axes),
        {((x, x), (y, y)): t for (x, y), t in CHSH.input_law.items()},
        frozenset(tuple((v, v) for v in play) for play in CHSH.predicate),
    )
    rng = random.Random(7)
    outs = [(a, b) for a in game.outputs_a for b in game.outputs_b]
    table = {}
    for x in game.inputs_x:
        for y in game.inputs_y:
            weights = [rng.randint(1, 5) for _ in outs]
            table[(x, y)] = {ab: Fraction(w, sum(weights)) for ab, w in zip(outs, weights)}
    strategy = Strategy(table)
    assert symmetrize_strategy(game, parallel_game(game, 1), strategy).table == strategy.table
    repeated = sequential_game(game, iid_kernel(game), 1)
    assert symmetrize_strategy(game, repeated, strategy, MARKOV).table == strategy.table
