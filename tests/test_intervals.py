import math
import random
from fractions import Fraction

import pytest

from ampletori.intervals import _atanh_grid, _ln2_grid, log_grid


def test_log_grid_against_float_oracle():
    # float log is an independent implementation; agreement at 1e-12 slack
    for a, b in [(2, 1), (1, 2), (5, 1), (7, 3), (10**6, 1)]:
        lo, hi = log_grid(a, b, 64)
        assert hi - lo <= 2  # outward rounding costs 2 grid steps
        ref = math.log(a / b)
        assert lo / 2**64 - 1e-12 <= ref <= hi / 2**64 + 1e-12


def test_log_grid_is_exact_at_one():
    assert log_grid(1, 1, 64) == (0, 0)
    assert log_grid(7, 7, 100) == (0, 0)


def test_ln2_cache_is_bounded_and_holds_the_atanh_pair():
    assert _ln2_grid.cache_info().maxsize is not None
    for p in (32, 68, 133):
        # ln 2 = 2 atanh(1/3): the pair on the grid 2^-(p+1), read on 2^-p
        assert _ln2_grid(p) == _atanh_grid(1, 3, p + 1)
        lo, hi = _ln2_grid(p)
        assert lo / 2**p - 1e-12 <= math.log(2) <= hi / 2**p + 1e-12


def test_log_is_additive_within_enclosures():
    rng = random.Random(11)
    for _ in range(50):
        a = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        b = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        la, lb, lab = (log_grid(q.numerator, q.denominator, 80) for q in (a, b, a * b))
        # the enclosures of ln a + ln b and of ln(ab) overlap
        assert la[0] + lb[0] <= lab[1] and lab[0] <= la[1] + lb[1]


def test_log_refines_monotonically():
    wide = log_grid(3, 7, 32)
    tight = log_grid(3, 7, 128)
    scale = 2 ** (128 - 32)  # wide, read on the grid 2^-128
    assert wide[0] * scale <= tight[0] and tight[1] <= wide[1] * scale
    assert tight[1] - tight[0] < (wide[1] - wide[0]) * scale


def test_log_interval_requires_positive():
    # the lower end of [−1, 1] is not positive, and neither part may be
    with pytest.raises(ValueError):
        log_grid(-1, 1, 64)
    with pytest.raises(ValueError):
        log_grid(1, 0, 64)


def test_log_grid_ignores_a_common_factor():
    # |A(α)|² reaches log_grid unreduced: its grid integers must be those of
    # the reduced fraction, as the S-prime logs read them
    rng = random.Random(12)
    for _ in range(50):
        a, b, c = (rng.randint(1, 10**30) for _ in range(3))
        q = Fraction(a, b)
        assert log_grid(a * c, b * c, 64) == log_grid(q.numerator, q.denominator, 64)
