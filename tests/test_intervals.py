import math
import random
from fractions import Fraction

import pytest

from ampletori.intervals import (
    RationalInterval,
    _log_grid,
    log2_interval,
    log_fraction,
)


def test_log_fraction_against_float_oracle():
    # float log is an independent implementation; agreement at 1e-12 slack
    for q in [Fraction(2), Fraction(1, 2), Fraction(5), Fraction(7, 3), Fraction(10**6)]:
        iv = log_fraction(q, 64)
        assert iv.hi - iv.lo <= Fraction(1, 2**62)  # outward rounding costs 2 ulps
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
        # the enclosures of ln a + ln b and of ln(ab) overlap
        assert la.lo + lb.lo <= lab.hi and lab.lo <= la.hi + lb.hi


def test_log_refines_monotonically():
    q = Fraction(3, 7)
    wide = log_fraction(q, 32)
    tight = log_fraction(q, 128)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi
    assert tight.hi - tight.lo < wide.hi - wide.lo


def test_log_interval_requires_positive():
    # the lower end of [−1, 1] is not positive, and neither part may be
    with pytest.raises(ValueError):
        _log_grid(-1, 1, 64)
    with pytest.raises(ValueError):
        _log_grid(1, 0, 64)


def test_log_grid_ignores_a_common_factor():
    # |A(α)|² reaches _log_grid unreduced: its grid integers must be those of
    # the reduced fraction, which log_fraction reads
    rng = random.Random(12)
    for _ in range(50):
        a, b, c = (rng.randint(1, 10**30) for _ in range(3))
        q = Fraction(a, b)
        lo, hi = _log_grid(a * c, b * c, 64)
        assert (lo, hi) == _log_grid(q.numerator, q.denominator, 64)
        assert log_fraction(q, 64) == RationalInterval(Fraction(lo, 2**64), Fraction(hi, 2**64))
