import math
import random
from fractions import Fraction

import mpmath
import pytest

from exkit.intervals import (
    PLACES,
    IntervalScalar,
    ceil_mul,
    e_bounds,
    floor_mul,
    grid_interval,
    pi_bounds,
    scaled_certainly_ge,
    sqrt_bounds,
)

# 50 truncated decimals; the truth lies in [T, T + 10^-50].
E_TRUNC = Fraction("2.71828182845904523536028747135266249775724709369995")
PI_TRUNC = Fraction("3.14159265358979323846264338327950288419716939937510")
ULP_50 = Fraction(1, 10**50)


def test_constants_enclose_known_digits():
    for bits in (64, 128, 256):
        for (lo, hi), trunc in ((e_bounds(bits), E_TRUNC), (pi_bounds(bits), PI_TRUNC)):
            # Both [lo, hi] and [trunc, trunc + ulp] contain the constant.
            assert lo <= trunc + ULP_50 and hi >= trunc
            assert hi - lo <= Fraction(1, 2 ** (bits - 2))


def test_sqrt_bounds_enclose_and_tighten():
    rng = random.Random(2024)
    for _ in range(200):
        x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
        lo, hi = sqrt_bounds(x, 128)
        assert lo * lo <= x <= hi * hi
        lo2, hi2 = sqrt_bounds(x, 256)
        assert lo <= lo2 <= hi2 <= hi


def test_sqrt_exact_on_perfect_squares():
    lo, hi = sqrt_bounds(Fraction(9, 4), 64)
    assert lo == hi == Fraction(3, 2)


def test_field_ops_contain_exact_rational_results():
    # Rationals embed with lo == hi, and +,-,*,/ on rational endpoints are
    # exact, so containment is equality; sqrt still must contain the truth.
    rng = random.Random(7)
    for _ in range(300):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        ia, ib = IntervalScalar.exact(a), IntervalScalar.exact(b)
        assert (ia + ib).contains(a + b)
        assert (ia - ib).contains(a - b)
        assert (ia * ib).contains(a * b)
        if b != 0:
            assert (ia / ib).contains(a / b)
        if a >= 0:
            s = ia.sqrt()
            assert s.lo * s.lo <= a <= s.hi * s.hi


def test_mixed_sign_multiplication_and_powers():
    x = IntervalScalar(Fraction(-2), Fraction(3))
    sq = x**2
    assert sq.lo == 0 and sq.hi == 9
    cube = x**3
    assert cube.lo == -8 and cube.hi == 27
    y = IntervalScalar(Fraction(-1), Fraction(2)) * IntervalScalar(Fraction(-3), Fraction(5))
    assert y.lo == -6 and y.hi == 10


def test_multiplying_by_a_nonnegative_rational_matches_the_four_products():
    rng = random.Random(11)
    for _ in range(200):
        lo = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        x = IntervalScalar(lo, lo + Fraction(rng.randint(0, 50), rng.randint(1, 9)), rng.choice((64, 128)))
        for r in (0, rng.randint(1, 9), Fraction(rng.randint(0, 50), rng.randint(1, 9))):
            # The interval operand takes the general path: four products.
            general = x * IntervalScalar.exact(r, x.bits)
            assert x * r == r * x == general


def test_division_by_interval_containing_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        IntervalScalar.exact(1) / IntervalScalar(Fraction(-1), Fraction(1))


def test_certified_comparisons():
    a = IntervalScalar(Fraction(1), Fraction(2))
    b = IntervalScalar(Fraction(3), Fraction(4))
    assert a.certainly_le(b) is True
    assert b.certainly_le(a) is False
    c = IntervalScalar(Fraction(3, 2), Fraction(5, 2))
    assert a.certainly_le(c) is None
    assert a.certainly_le(Fraction(2)) is True
    assert a.certainly_ge(Fraction(1)) is True


def test_json_round_trip_is_outward():
    x = IntervalScalar.euler_e(128)
    obj = x.to_json()
    back = IntervalScalar.from_json(obj)
    assert back.lo <= x.lo <= x.hi <= back.hi


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        IntervalScalar(Fraction(2), Fraction(1))


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


@pytest.mark.parametrize("bits", [64, 128, 256, 1024])
def test_enclosures_contain_mpmath_values_within_documented_width(bits):
    # Each width is at most 2^-bits relative to the value enclosed.
    rng = random.Random(bits)
    with mpmath.workprec(2 * bits + 128):
        cases = [(e_bounds(bits), mpmath.e), (pi_bounds(bits), mpmath.pi)]
        for _ in range(20):
            x = Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30))
            cases.append((sqrt_bounds(x, bits), mpmath.sqrt(_mpf(x))))
        for (lo, hi), truth in cases:
            assert _mpf(lo) <= truth <= _mpf(hi)
            assert (hi - lo) * 2**bits <= lo


def _bracket(x: Fraction, shift: int, pad: int) -> tuple[int, int]:
    """An integer bracket of x in units of 2^-shift, widened by ``pad`` units."""
    scaled = x * 2**shift
    return math.floor(scaled) - pad, math.ceil(scaled) + pad


def test_grid_interval_prints_the_exact_strings_when_it_decides():
    rng = random.Random(11)
    shift, decided = 200, 0
    for _ in range(300):
        lo = Fraction(rng.randint(1, 10**60), rng.randint(1, 10**60))
        hi = lo + Fraction(1, rng.randint(1, 10**50))
        pad = rng.choice([0, 1, 2**60])
        printed = grid_interval(_bracket(lo, shift, pad), _bracket(hi, shift, pad), shift, 128)
        if printed is not None:
            decided += 1
            assert printed.lo <= lo <= hi <= printed.hi
            assert printed.to_json() == IntervalScalar(lo, hi, 128).to_json()
    assert decided > 150


def test_grid_interval_declines_a_bracket_that_straddles_a_grid_point():
    # 1/4 lies on the 10^-40 grid, so a bracket around it cannot tell
    # floor(1/4) from the grid point below.
    shift = 200
    on_grid, off_grid = Fraction(1, 4), Fraction(1, 3)
    assert grid_interval(_bracket(on_grid, shift, 1), _bracket(off_grid, shift, 1), shift, 128) is None
    assert grid_interval(_bracket(off_grid, shift, 1), _bracket(on_grid, shift, 1), shift, 128) is None
    printed = grid_interval(_bracket(off_grid, shift, 1), _bracket(off_grid, shift, 1), shift, 128)
    assert printed.to_json()["lo"] == "0." + "3" * PLACES
    assert printed.to_json()["hi"] == "0." + "3" * (PLACES - 1) + "4"


def test_scaled_certainly_ge_agrees_with_every_enclosed_interval():
    rng = random.Random(5)
    shift = 64
    outcomes = set()
    for _ in range(500):
        lo, hi = sorted(rng.randint(0, 2**70) for _ in range(2))
        value = Fraction(rng.randint(0, 2**10), rng.randint(1, 2**4))
        decided = scaled_certainly_ge(lo, hi, shift, value)
        outcomes.add(decided)
        inner_lo = Fraction(rng.randint(lo, hi), 2**shift)
        inner = IntervalScalar(inner_lo, max(inner_lo, Fraction(rng.randint(lo, hi), 2**shift)))
        if decided is not None:
            assert inner.certainly_ge(value) is decided
    assert outcomes == {True, False, None}


def test_floor_mul_and_ceil_mul_round_the_exact_product():
    # Negative and non-integer products separate the two directions.
    factors = [Fraction(p, q) for p in (-7, -3, -1, 0, 1, 2, 5, 9) for q in (1, 2, 3, 7)]
    for x in (-13, -2, -1, 0, 1, 3, 10, 2**70 + 1):
        for f in factors:
            assert floor_mul(x, f) == math.floor(x * f), (x, f)
            assert ceil_mul(x, f) == math.ceil(x * f), (x, f)
    assert (floor_mul(1, Fraction(1, 2)), ceil_mul(1, Fraction(1, 2))) == (0, 1)
    assert (floor_mul(-1, Fraction(1, 2)), ceil_mul(-1, Fraction(1, 2))) == (-1, 0)
