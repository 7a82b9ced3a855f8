"""Outward-rounded interval scalars over exact rationals.

Everything combinatorial in this package (class sizes, probabilities,
tight ratios) is an exact ``fractions.Fraction``.  The only irrational
quantities are square roots and the constants e and 2*pi appearing in the
analytic pre-factor formulas.  Those are carried as closed intervals
[lo, hi] with rational endpoints that certifiably contain the true value:

* field operations (+, -, *, /) on rational endpoints are computed exactly,
  so ``IntervalScalar`` arithmetic introduces no rounding at all;
* sqrt, e and pi are enclosed to a requested number of bits, rounding
  outward by construction.

Exact endpoints of a sum of N square roots have denominators that grow with
every term, so the fidelities F(P, pi_k)^2 and the reduction's right-hand
sides are instead enclosed in guard-bit integers: each endpoint of the exact
interval is bracketed by integers in units of 2^-shift, rounding every term
down for a lower and up for an upper bracket (``guarded_bits``,
``grid_interval``, ``scaled_certainly_ge``).  A printed endpoint is taken
from such a bracket only when both of its ends round to the same 10^-40
grid point, which is then exactly the string the exact endpoint prints; a
comparison is decided from a bracket only when the wider enclosure decides
it, and then the exact interval decides it the same way.  Otherwise the
caller falls back to the exact interval, so printed bytes and verdicts are
those of exact arithmetic.

A comparison between a rational and an interval (or two intervals) is
therefore either certified or declared inconclusive; raising the bit count
can only shrink intervals and turn inconclusive comparisons into certified
ones, never flip a certified answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

DEFAULT_BITS = 128
MAX_BITS = 1024

PLACES = 40  # decimal places of a printed endpoint
GRID_BITS = (10**PLACES).bit_length()  # 2^-GRID_BITS resolves the 10^-PLACES grid
GUARD_BITS = 64  # extra bits of the integer brackets beyond the printed grid

Rational = Union[int, Fraction]


def sqrt_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Enclose sqrt(x) for a nonnegative rational x within 2^-bits relative error.

    Uses sqrt(p/q) = sqrt(p*q)/q and an integer square root of the scaled
    radicand, so both endpoints are exact rationals.
    """
    if x < 0:
        raise ValueError("square root of negative rational")
    if x == 0:
        return Fraction(0), Fraction(0)
    p, q = x.numerator, x.denominator
    radicand = p * q
    scale = 1 << bits
    m = math.isqrt(radicand * scale * scale)
    lo = Fraction(m, q * scale)
    if m * m == radicand * scale * scale:
        return lo, lo
    return lo, Fraction(m + 1, q * scale)


@lru_cache(maxsize=None)
def e_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """Enclose Euler's number within 2^-bits relative error by a Taylor
    partial sum plus a tail bound."""
    m = 2
    while math.factorial(m + 1) < (1 << (bits + 3)):
        m += 1
    partial = sum(Fraction(1, math.factorial(i)) for i in range(m + 1))
    return partial, partial + Fraction(2, math.factorial(m + 1))


def _atan_inv_bounds(x: int, bits: int) -> tuple[Fraction, Fraction]:
    # arctan(1/x) via its alternating series; the truth lies between any two
    # consecutive partial sums.
    assert x >= 2
    total = Fraction(0)
    j = 0
    power = x  # x^(2j+1)
    while True:
        term = Fraction(1, (2 * j + 1) * power)
        if term.denominator > (1 << (bits + 6)) * term.numerator:
            signed_next = term if j % 2 == 0 else -term
            return (total, total + signed_next) if signed_next > 0 else (total + signed_next, total)
        total += term if j % 2 == 0 else -term
        j += 1
        power *= x * x


@lru_cache(maxsize=None)
def pi_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """Enclose pi within 2^-bits relative error with Machin's formula
    pi = 16*atan(1/5) - 4*atan(1/239)."""
    lo5, hi5 = _atan_inv_bounds(5, bits)
    lo239, hi239 = _atan_inv_bounds(239, bits)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def _decimal_floor(x: Fraction, places: int) -> str:
    scaled = x * 10**places
    n = scaled.numerator // scaled.denominator
    return _place_point(n, places)


def _decimal_ceil(x: Fraction, places: int) -> str:
    scaled = x * 10**places
    n = -((-scaled.numerator) // scaled.denominator)
    return _place_point(n, places)


def _place_point(n: int, places: int) -> str:
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"


@dataclass(frozen=True)
class IntervalScalar:
    """Closed interval [lo, hi] of exact rationals; lo <= hi always holds.

    ``bits`` records the enclosure precision used for the irrational pieces
    that fed the interval; rationals embed exactly with lo == hi.
    """

    lo: Fraction
    hi: Fraction
    bits: int = DEFAULT_BITS

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @staticmethod
    def exact(value: Rational, bits: int = DEFAULT_BITS) -> "IntervalScalar":
        f = Fraction(value)
        return IntervalScalar(f, f, bits)

    @staticmethod
    def euler_e(bits: int = DEFAULT_BITS) -> "IntervalScalar":
        lo, hi = e_bounds(bits)
        return IntervalScalar(lo, hi, bits)

    @staticmethod
    def two_pi(bits: int = DEFAULT_BITS) -> "IntervalScalar":
        lo, hi = pi_bounds(bits)
        return IntervalScalar(2 * lo, 2 * hi, bits)

    # -- field operations (exact on rational endpoints) --

    def _coerce(self, other: "IntervalScalar | Rational") -> "IntervalScalar":
        if isinstance(other, IntervalScalar):
            return other
        return IntervalScalar.exact(other, self.bits)

    def __add__(self, other: "IntervalScalar | Rational") -> "IntervalScalar":
        o = self._coerce(other)
        return IntervalScalar(self.lo + o.lo, self.hi + o.hi, min(self.bits, o.bits))

    __radd__ = __add__

    def __neg__(self) -> "IntervalScalar":
        return IntervalScalar(-self.hi, -self.lo, self.bits)

    def __sub__(self, other: "IntervalScalar | Rational") -> "IntervalScalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Rational) -> "IntervalScalar":
        return self._coerce(other) - self

    def __mul__(self, other: "IntervalScalar | Rational") -> "IntervalScalar":
        if isinstance(other, (int, Fraction)) and other >= 0:
            return IntervalScalar(self.lo * other, self.hi * other, self.bits)
        o = self._coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return IntervalScalar(min(products), max(products), min(self.bits, o.bits))

    __rmul__ = __mul__

    def __truediv__(self, other: "IntervalScalar | Rational") -> "IntervalScalar":
        o = self._coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval divisor contains zero")
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return IntervalScalar(min(quotients), max(quotients), min(self.bits, o.bits))

    def __rtruediv__(self, other: Rational) -> "IntervalScalar":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "IntervalScalar":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        if k == 0:
            return IntervalScalar.exact(1, self.bits)
        a, b = self.lo**k, self.hi**k
        lo, hi = min(a, b), max(a, b)
        if k % 2 == 0 and self.lo < 0 < self.hi:
            lo = Fraction(0)
        return IntervalScalar(lo, hi, self.bits)

    def sqrt(self, bits: Optional[int] = None) -> "IntervalScalar":
        b = bits if bits is not None else self.bits
        lo, _ = sqrt_bounds(self.lo, b)
        _, hi = sqrt_bounds(self.hi, b)
        return IntervalScalar(lo, hi, b)

    # -- certified queries --

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value: Rational) -> bool:
        return self.lo <= value <= self.hi

    def certainly_le(self, other: "IntervalScalar | Rational") -> Optional[bool]:
        """True/False when "self <= other" is certified either way, else None.
        A rational ``other`` is compared as it is, with no point interval."""
        lo, hi = (other.lo, other.hi) if isinstance(other, IntervalScalar) else (other, other)
        if self.hi <= lo:
            return True
        if self.lo > hi:
            return False
        return None

    def certainly_ge(self, other: "IntervalScalar | Rational") -> Optional[bool]:
        """True/False when "self >= other" is certified either way, else None."""
        lo, hi = (other.lo, other.hi) if isinstance(other, IntervalScalar) else (other, other)
        if hi <= self.lo:
            return True
        if lo > self.hi:
            return False
        return None

    def to_json(self, places: int = PLACES) -> dict:
        return {
            "lo": _decimal_floor(self.lo, places),
            "hi": _decimal_ceil(self.hi, places),
            "bits": self.bits,
        }

    @staticmethod
    def from_json(obj: dict) -> "IntervalScalar":
        return IntervalScalar(Fraction(obj["lo"]), Fraction(obj["hi"]), int(obj["bits"]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalScalar({float(self.lo):.12g}, {float(self.hi):.12g}, bits={self.bits})"


def guarded_bits(bits: int) -> int:
    """Fractional bits of the integer brackets at precision ``bits``: enough
    to resolve both a ``bits``-bit enclosure and the printed grid, plus the
    guard."""
    return max(bits, GRID_BITS) + GUARD_BITS


def floor_mul(x: int, f: Fraction) -> int:
    """floor(x * f) for an integer x and a rational f."""
    return x * f.numerator // f.denominator


def ceil_mul(x: int, f: Fraction) -> int:
    """ceil(x * f) for an integer x and a rational f."""
    return -(-x * f.numerator // f.denominator)


def grid_interval(
    lo: tuple[int, int], hi: tuple[int, int], shift: int, bits: int
) -> Optional[IntervalScalar]:
    """The printed interval of an exact interval [x, y] known only through
    integer brackets x in [lo[0], lo[1]] * 2^-shift and y in [hi[0], hi[1]]
    * 2^-shift: [floor(x), ceil(y)] on the 10^-PLACES grid, or None when a
    bracket straddles a grid point and the exact endpoint is needed.

    The result encloses [x, y] and its ``to_json`` prints the strings that
    ``IntervalScalar(x, y, bits).to_json()`` prints.
    """
    scale = 10**PLACES
    floor_lo, floor_hi = (lo[0] * scale) >> shift, (lo[1] * scale) >> shift
    ceil_lo, ceil_hi = -((-hi[0] * scale) >> shift), -((-hi[1] * scale) >> shift)
    if floor_lo != floor_hi or ceil_lo != ceil_hi:
        return None
    return IntervalScalar(Fraction(floor_lo, scale), Fraction(ceil_lo, scale), bits)


def scaled_certainly_ge(lo: int, hi: int, shift: int, value: Rational) -> Optional[bool]:
    """``certainly_ge(value)`` of an interval known to lie in
    [lo, hi] * 2^-shift: True/False when this wider enclosure decides it,
    which the interval then decides the same way, else None."""
    value = Fraction(value)
    scaled = value.numerator << shift
    if scaled <= lo * value.denominator:
        return True
    if scaled > hi * value.denominator:
        return False
    return None


def escalate_bits(bits: int) -> Optional[int]:
    """Next precision to try after an inconclusive comparison, None past
    MAX_BITS."""
    return bits * 2 if bits * 2 <= MAX_BITS else None


def run_with_escalation(attempt, bits: int):
    """``attempt(bits)`` at doubling precision until its ``verdict`` is not
    "inconclusive", or the last attempt's result once MAX_BITS is reached."""
    while True:
        result = attempt(bits)
        if result.verdict != "inconclusive":
            return result
        next_bits = escalate_bits(bits)
        if next_bits is None:
            return result
        bits = next_bits
