import math
import random
from fractions import Fraction

import pytest

from ampletori.intervals import (
    RationalInterval,
    eval_poly_interval,
    log2_interval,
    log_fraction,
    log_interval,
)


def test_interval_arithmetic_contains_truth():
    rng = random.Random(5)
    for _ in range(100):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        ia = RationalInterval(a - Fraction(1, 7), a + Fraction(1, 5))
        ib = RationalInterval(b - Fraction(1, 3), b + Fraction(1, 11))
        assert (ia + ib).contains(a + b)
        assert (ia - ib).contains(a - b)
        assert (ia * ib).contains(a * b)
        assert abs(ia).contains(abs(a))


def test_sign_certification():
    assert RationalInterval(Fraction(1, 10**9), Fraction(1)).sign() == 1
    assert RationalInterval(Fraction(-1), Fraction(-1, 10**9)).sign() == -1
    assert RationalInterval(Fraction(-1), Fraction(1)).sign() == 0


def test_round_outward_contains():
    iv = RationalInterval(Fraction(1, 3), Fraction(2, 3))
    out = iv.round_outward(16)
    assert out.lo <= iv.lo and iv.hi <= out.hi
    assert out.lo.denominator <= 2**16 and out.hi.denominator <= 2**16


def test_log_fraction_against_float_oracle():
    # float log is an independent implementation; agreement at 1e-12 slack
    for q in [Fraction(2), Fraction(1, 2), Fraction(5), Fraction(7, 3), Fraction(10**6)]:
        iv = log_fraction(q, 64)
        assert iv.width <= Fraction(1, 2**62)  # outward rounding costs 2 ulps
        ref = math.log(float(q))
        assert float(iv.lo) - 1e-12 <= ref <= float(iv.hi) + 1e-12


def test_log_fraction_is_exact_at_one():
    assert log_fraction(Fraction(1), 64) == RationalInterval(Fraction(0), Fraction(0))


def test_interval_caches_are_bounded():
    assert log_fraction.cache_info().maxsize is not None
    assert log2_interval.cache_info().maxsize is not None


def test_log_is_additive_within_enclosures():
    rng = random.Random(11)
    for _ in range(50):
        a = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        b = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        la, lb, lab = log_fraction(a, 80), log_fraction(b, 80), log_fraction(a * b, 80)
        s = la + lb
        assert s.lo <= lab.hi and lab.lo <= s.hi  # the enclosures overlap


def test_log_refines_monotonically():
    q = Fraction(3, 7)
    wide = log_fraction(q, 32)
    tight = log_fraction(q, 128)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi
    assert tight.width < wide.width


def test_log_interval_requires_positive():
    with pytest.raises(ValueError):
        log_interval(RationalInterval(Fraction(-1), Fraction(1)))


def test_eval_poly_interval_contains_value():
    coeffs = [Fraction(-1), Fraction(1), Fraction(0), Fraction(1)]
    x = Fraction(7, 11)
    iv = eval_poly_interval(coeffs, RationalInterval(x - Fraction(1, 100), x + Fraction(1, 100)))
    truth = coeffs[0] + coeffs[1] * x + coeffs[3] * x**3
    assert iv.contains(truth)


def _fraction_horner(coeffs, x: RationalInterval) -> RationalInterval:
    """Reference: interval Horner in Fraction arithmetic."""
    acc = RationalInterval(Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = acc * x + RationalInterval.point(c)
    return acc


def _horner_cases():
    rng = random.Random(20260917)
    dyadic = [Fraction(rng.randint(-2**70, 2**70), 2**64) for _ in range(6)]
    rational = [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(6)]
    points = [Fraction(0), Fraction(1), Fraction(-3, 7)] + dyadic + rational
    intervals = [RationalInterval(p, p) for p in points]  # point intervals
    for _ in range(40):
        a, b = sorted(rng.sample(dyadic + rational, 2))
        intervals.append(RationalInterval(a, b))
    intervals += [
        RationalInterval(Fraction(-5, 3), Fraction(-1, 9)),  # negative
        RationalInterval(Fraction(-1, 3), Fraction(2, 7)),  # straddles zero
        RationalInterval(Fraction(0), Fraction(5, 11)),  # ends at zero
        RationalInterval(Fraction(-1, 2**60), Fraction(3, 2**61)),
    ]
    polys = [[], [Fraction(0)], [Fraction(-4, 9)], [Fraction(5)]]  # empty and constant
    for deg in range(1, 7):
        for den in (1, 3, 2**20, 5 * 7 * 11):
            polys.append([Fraction(rng.randint(-50, 50), rng.randint(1, den)) for _ in range(deg + 1)])
    polys.append([Fraction(0), Fraction(0), Fraction(1)])  # x² with zero low terms
    return [(c, x) for c in polys for x in intervals]


def test_eval_poly_interval_matches_fraction_horner():
    for coeffs, x in _horner_cases():
        got, want = eval_poly_interval(coeffs, x), _fraction_horner(coeffs, x)
        assert (got.lo, got.hi) == (want.lo, want.hi), (coeffs, x)
        assert type(got.lo) is Fraction and type(got.hi) is Fraction
