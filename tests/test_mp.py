import math
from fractions import Fraction

import pytest

from exkit.errors import BadParams
from exkit.intervals import IntervalScalar
from exkit.mp import beta_bound, cone_constants, dirichlet_moment, lambda_matrix, mp_of_extreme
from exkit.reduction import uniform_class_dist
from exkit.relations import ExchangeableType, compositions
from oracles import fidelity_squared, pointwise_dominates


def test_dirichlet_moment_examples():
    assert dirichlet_moment((1, 1), 2) == Fraction(1, 6)
    assert dirichlet_moment((0, 0), 2) == 1
    for n, d in ((3, 2), (4, 3), (5, 2)):
        t = (n,) + (0,) * (d - 1)
        assert dirichlet_moment(t, d) == Fraction(
            math.factorial(n), math.factorial(n + d - 1)
        )


def test_dirichlet_moment_bad_params():
    with pytest.raises(BadParams):
        dirichlet_moment((1, -1), 2)


def test_lambda_matrix_n1_d2():
    lam = lambda_matrix(1, 2)
    assert lam.entries == (
        (Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(2, 3)),
    )


def test_lambda_matrix_d1_is_identity():
    lam = lambda_matrix(4, 1)
    assert lam.entries == ((Fraction(1),),)


def test_lambda_matrix_bistochastic_and_symmetric():
    for d in (1, 2, 3):
        for n in range(1, 6):
            lam = lambda_matrix(n, d)
            k = len(lam.types)
            for i in range(k):
                assert sum(lam.entries[i], Fraction(0)) == 1
                assert sum((lam.entries[j][i] for j in range(k)), Fraction(0)) == 1
                for j in range(k):
                    assert lam.entries[i][j] == lam.entries[j][i]


def test_mp_of_extreme_examples():
    mp = mp_of_extreme((1, 0), 1)
    assert mp.entries == {(0,): Fraction(2, 3), (1,): Fraction(1, 3)}
    # d = 1: MP(Q) = Q
    mp1 = mp_of_extreme((3,), 3)
    assert mp1.entries == {(0, 0, 0): Fraction(1)}


def test_mp_normalization_is_enforced_exactly():
    for n in (2, 3, 4):
        for t in compositions(n, 2):
            mp = mp_of_extreme(t, n)
            assert sum(mp.entries.values(), Fraction(0)) == 1


def test_fidelity_vs_lambda_cross_check():
    for n in range(1, 7):
        lam = lambda_matrix(n, 2)
        for t in lam.types:
            mp = mp_of_extreme(t, n)
            for s in lam.types:
                qs = uniform_class_dist(ExchangeableType(s), n)
                f2 = fidelity_squared(qs, mp)
                assert f2.is_point and f2.lo == lam.value(s, t)


def test_extreme_below_scaled_mp_pointwise():
    for n in (2, 3, 4):
        lam = lambda_matrix(n, 2)
        for t in lam.types:
            qt = uniform_class_dist(ExchangeableType(t), n)
            mp = mp_of_extreme(t, n)
            scale = IntervalScalar.exact(1 / lam.value(t, t))
            assert pointwise_dominates(scale, mp, qt).holds


def test_beta_bound_examples():
    bb = beta_bound(2, 2)
    assert bb.beta_exact == Fraction(5, 2)
    assert bb.argmax_type == (1, 1)
    assert bb.beta_analytic is not None and bb.beta_analytic.lo == Fraction(5, 2)
    assert beta_bound(3, 1).beta_exact == 1


def test_beta_flat_type_maximizer_even_n():
    for n in (2, 4, 6, 8, 10):
        bb = beta_bound(n, 2)
        assert bb.argmax_type == (n // 2, n // 2)
        assert bb.beta_analytic is not None
        assert bb.beta_exact <= bb.beta_analytic.lo


def test_beta_analytic_undefined_when_d_does_not_divide_n():
    bb = beta_bound(3, 2)
    assert bb.beta_analytic is None
    assert bb.beta_exact > 1


def test_cone_constants_report_smaller_route():
    report = cone_constants((2, 1), 3)
    assert report["alpha_tight"] == Fraction(9, 4)
    assert report["beta_self"] == Fraction(35, 12)
    assert report["smaller"] == "alpha"


@pytest.mark.parametrize("t", [(1, 2), (1, 1, 0), (3, -1)])
def test_types_off_the_lambda_matrix_are_bad_params(t):
    with pytest.raises(BadParams, match=r"d = 2 .* n = 2"):
        lambda_matrix(2, 2).index(t)
    if len(t) == 2:  # mp_of_extreme reads d off the type
        with pytest.raises(BadParams):
            mp_of_extreme(t, 2)


def test_cone_constants_take_no_precision():
    with pytest.raises(TypeError):
        cone_constants((2, 1), 3, 128)
