"""Certified interval arithmetic with exact rational endpoints.

Used for sign determination of real algebraic quantities (log embeddings of
units). Every operation returns an interval guaranteed to contain the true
value; enclosures only ever widen, never shrink, so a sign verdict is a
certificate. Logarithms come from the atanh series with an explicit tail
bound — no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def point(x) -> "RationalInterval":
        x = Fraction(x)
        return RationalInterval(x, x)

    def __add__(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "RationalInterval":
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other: "RationalInterval") -> "RationalInterval":
        return self + (-other)

    def __mul__(self, other: "RationalInterval") -> "RationalInterval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RationalInterval(min(products), max(products))

    def scale(self, c) -> "RationalInterval":
        c = Fraction(c)
        if c >= 0:
            return RationalInterval(self.lo * c, self.hi * c)
        return RationalInterval(self.hi * c, self.lo * c)

    def __abs__(self) -> "RationalInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RationalInterval(Fraction(0), max(-self.lo, self.hi))

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def sign(self) -> int:
        """1 or −1 when certified, 0 when the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def round_outward(self, bits: int) -> "RationalInterval":
        """Widen to dyadic endpoints with denominator 2^bits (controls blowup)."""
        scale = 1 << bits
        lo = Fraction((self.lo * scale).__floor__(), scale)
        hi = Fraction(-((-self.hi * scale).__floor__()), scale)
        return RationalInterval(lo, hi)

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


ZERO = RationalInterval(Fraction(0), Fraction(0))


def eval_poly_interval(coeffs, x: RationalInterval) -> RationalInterval:
    """Horner evaluation of a polynomial (ascending Fraction coeffs) at x."""
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + RationalInterval.point(c)
    return acc


def _atanh_series(z: Fraction, bits: int) -> RationalInterval:
    """Enclosure of atanh(z) for |z| ≤ 1/2 with tail error below 2^-bits."""
    assert abs(z) <= Fraction(1, 2)
    z2 = z * z
    term = z
    total = Fraction(0)
    k = 0
    tol = Fraction(1, 1 << (bits + 2))
    while True:
        total += term / (2 * k + 1)
        term *= z2
        k += 1
        # remaining tail: sum_{j>=k} |z|^(2j+1)/(2j+1) <= |term|/(1-z^2)
        tail = abs(term) / (1 - z2)
        if tail < tol:
            break
    return RationalInterval(total - tail, total + tail).round_outward(bits + 1)


@lru_cache(maxsize=None)
def log2_interval(bits: int) -> RationalInterval:
    # ln 2 = 2 atanh(1/3)
    return _atanh_series(Fraction(1, 3), bits + 2).scale(2).round_outward(bits)


@lru_cache(maxsize=4096)
def log_fraction(q: Fraction, bits: int = 64) -> RationalInterval:
    """Certified enclosure of ln(q) for rational q > 0, error below 2^-bits."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("log of a non-positive rational")
    # normalize q = 2^e * m with m in [1/2, 1)
    e = 0
    m = q
    while m >= 1:
        m /= 2
        e += 1
    while m < Fraction(1, 2):
        m *= 2
        e -= 1
    if m == Fraction(1, 2) and e != 0:
        m, e = Fraction(1), e - 1  # keep z small for exact powers of two
    # ln q = e ln2 + 2 atanh((m-1)/(m+1)), with |(m-1)/(m+1)| <= 1/3
    z = (m - 1) / (m + 1)
    part = _atanh_series(z, bits + 4).scale(2)
    ln2 = log2_interval(bits + 4)
    return (ln2.scale(e) + part).round_outward(bits)


def log_interval(x: RationalInterval, bits: int = 64) -> RationalInterval:
    """Certified ln over a positive interval (monotone in the endpoints)."""
    if x.lo <= 0:
        raise ValueError("log needs a certified-positive interval")
    lo = log_fraction(x.lo, bits).lo
    hi = log_fraction(x.hi, bits).hi
    return RationalInterval(lo, hi)
