"""Measure-and-prepare machinery for the exchangeable relation.

The map MP(Q) = ((n+d-1)!/n!) * integral of F(Q, pi^(x)n)^2 pi^(x)n over the
probability simplex sends each extreme Q_t into the cone of i.i.d. mixtures.
Evaluating the Dirichlet moments gives the exact mixing matrix

    lambda_st = C(2n+d-1, n)^-1 * prod_i C(s_i + t_i, s_i),

which is symmetric and doubly stochastic, so MP(Q_t) = sum_s lambda_st Q_s
and Q_t <= lambda_tt^-1 MP(Q_t) pointwise.  beta(n) = max_s 1/lambda_ss is an
alternative pre-factor to alpha(n)^2 for the same cone membership.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import Alphabet, DEFAULT_ENUM_CAP, FiniteDistribution, Word, ZERO
from .errors import BadParams
from .intervals import DEFAULT_BITS, IntervalScalar
from .reduction import alpha_tight
from .relations import ExchangeableType, compositions, class_members, class_size


def dirichlet_moment(t: tuple[int, ...], d: int) -> Fraction:
    """Integral of prod_i pi(i)^t_i over the simplex with Lebesgue measure
    normalized so the answer is prod t_i! / (d - 1 + sum t_i)!."""
    if len(t) != d or any(x < 0 for x in t):
        raise BadParams("moment exponents must be d nonnegative integers")
    num = 1
    for x in t:
        num *= math.factorial(x)
    return Fraction(num, math.factorial(d - 1 + sum(t)))


def _lambda_entry(s: tuple[int, ...], t: tuple[int, ...], n: int) -> Fraction:
    value = Fraction(1, math.comb(2 * n + len(s) - 1, n))
    for si, ti in zip(s, t):
        value *= math.comb(si + ti, si)
    return value


@dataclass(frozen=True)
class LambdaMatrix:
    """F(Q_s, MP(Q_t))^2 indexed by exchangeable types; bi-stochastic and
    symmetric, verified exactly on construction."""

    n: int
    d: int
    types: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[Fraction, ...], ...]

    def index(self, t: tuple[int, ...]) -> int:
        """The position of type t; BadParams unless t is d nonnegative counts
        summing to n."""
        t = tuple(t)
        if len(t) != self.d or any(x < 0 for x in t) or sum(t) != self.n:
            raise BadParams(
                f"type {list(t)} is not d = {self.d} nonnegative counts summing to n = {self.n}"
            )
        return self.types.index(t)

    def value(self, s: tuple[int, ...], t: tuple[int, ...]) -> Fraction:
        return self.entries[self.index(s)][self.index(t)]


@functools.lru_cache(maxsize=4)
def lambda_matrix(n: int, d: int) -> LambdaMatrix:
    """The checked matrix, kept for the last four (n, d): it is immutable."""
    if n < 1 or d < 1:
        raise BadParams("lambda matrix needs n >= 1, d >= 1")
    types = tuple(compositions(n, d))
    rows = tuple(
        tuple(_lambda_entry(s, t, n) for t in types) for s in types
    )
    for i, row in enumerate(rows):
        if sum(row, ZERO) != 1:
            raise AssertionError(f"lambda row {types[i]} does not sum to 1")
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise AssertionError("lambda matrix is not symmetric")
    return LambdaMatrix(n, d, types, rows)


def mp_of_extreme(
    t: tuple[int, ...], n: int, cap: int = DEFAULT_ENUM_CAP
) -> FiniteDistribution:
    """MP(Q_t) = sum_s lambda_st Q_s, materialized exactly over V^n."""
    lam = lambda_matrix(n, len(t))
    entries: dict[Word, Fraction] = {}
    col = lam.index(t)
    for row_idx, s in enumerate(lam.types):
        weight = lam.entries[row_idx][col]
        size = class_size(ExchangeableType(s), n)
        share = weight / size
        for w in class_members(ExchangeableType(s), n, cap):
            entries[w] = entries.get(w, ZERO) + share
    return FiniteDistribution(Alphabet(lam.d), n, entries)


@dataclass(frozen=True)
class BetaBound:
    n: int
    d: int
    beta_exact: Fraction
    argmax_type: tuple[int, ...]
    beta_analytic: Optional[IntervalScalar]  # only defined when d divides n


def beta_bound(n: int, d: int, bits: int = DEFAULT_BITS) -> BetaBound:
    """beta(n) = max_s 1/lambda_ss, exactly; plus the flat-type binomial
    bound C(2n+d-1, n) * C(2n/d, n/d)^-d when d divides n (the flat type
    is only integral then)."""
    lam = lambda_matrix(n, d)
    best: Optional[tuple[Fraction, tuple[int, ...]]] = None
    for i, s in enumerate(lam.types):
        inv = 1 / lam.entries[i][i]
        if best is None or inv > best[0]:
            best = (inv, s)
    analytic = None
    if n % d == 0:
        k = n // d
        value = Fraction(math.comb(2 * n + d - 1, n), math.comb(2 * k, k) ** d)
        analytic = IntervalScalar.exact(value, bits)
    return BetaBound(n, d, best[0], best[1], analytic)


def cone_constants(t: tuple[int, ...], n: int) -> dict:
    """Both certified routes placing Q_t in the cone of i.i.d. mixtures:
    the alpha route (Q_t <= alpha * pi_t^(x)n) and the beta route
    (Q_t <= lambda_tt^-1 MP(Q_t)); reports which constant is smaller."""
    descr = ExchangeableType(tuple(t))
    alpha = alpha_tight(descr, n)
    lam = lambda_matrix(n, len(t))
    idx = lam.index(t)
    beta = 1 / lam.entries[idx][idx]
    return {
        "type": tuple(t),
        "alpha_tight": alpha,
        "beta_self": beta,
        "smaller": "alpha" if alpha <= beta else "beta",
    }
