"""Differential tests of the certified logarithms against mpmath.

mpmath ships with sympy, a test-only oracle (the `test` extra in
pyproject.toml); the library never imports it. Every case is seeded. The
reference runs at mp.prec = 4·bits + 64, far below the width of the
enclosures, and each enclosure must contain it and meet its width bound.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from ampletori.intervals import (
    _atanh_fixed,
    _atanh_series,
    _log_grid,
    log_fraction,
)

BITS = (32, 64, 100, 128, 256)


def _mp(x: Fraction):
    """x as an mpf; exact for the dyadic endpoints at the oracle's precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def _is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


def _rational(rng, max_digits=300):
    """A positive rational whose numerator and denominator have 1–300 digits."""
    def part():
        return rng.randint(1, 10 ** rng.randint(1, max_digits))
    return Fraction(part(), part())


def _log_cases(seed):
    rng = random.Random(seed)
    qs = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3 ** 200, 7), Fraction(1, 10 ** 60)]
    for k in range(-1000, 1001, 50):
        qs += [Fraction(2) ** k, Fraction(2) ** k + 1, Fraction(2) ** k * 3]
        # the normalization edges m = 2/3 and m = 4/3, and the old ones z = ±1/3
        for m in (Fraction(2, 3), Fraction(4, 3), Fraction(1, 2), Fraction(2)):
            qs += [Fraction(2) ** k * m, Fraction(2) ** k * m * (1 + Fraction(1, 10 ** 40))]
    qs += [_rational(rng) for _ in range(300)]
    qs += [_rational(rng, 6) for _ in range(100)]
    return qs


LOG_CASES = _log_cases(8)


@pytest.mark.parametrize("bits", BITS)
def test_log_fraction_contains_mpmath_log(bits):
    with mpmath.workprec(4 * bits + 64):
        for q in LOG_CASES:
            iv = log_fraction(q, bits)
            assert _is_dyadic(iv.lo) and _is_dyadic(iv.hi)
            assert iv.hi - iv.lo <= Fraction(2, 1 << bits), (q, bits)
            ref = mpmath.log(_mp(q))
            assert _mp(iv.lo) <= ref <= _mp(iv.hi), (q, bits)


def _atanh_cases(seed):
    rng = random.Random(seed)
    half = Fraction(1, 2)
    zs = [Fraction(0), half, -half, Fraction(1, 3), Fraction(-1, 3), Fraction(1, 5),
          Fraction(-1, 5), Fraction(1, 7), Fraction(1, 10 ** 100), Fraction(-1, 2 ** 70)]
    zs += [half - Fraction(1, 10 ** 50), -half + Fraction(1, 3 ** 90)]
    for _ in range(400):
        den = rng.randint(1, 10 ** rng.randint(1, 300))
        zs.append(Fraction(rng.randint(-den // 2, den // 2), den))
    return zs


ATANH_CASES = _atanh_cases(9)


@pytest.mark.parametrize("bits", BITS)
def test_atanh_series_contains_mpmath_atanh(bits):
    with mpmath.workprec(4 * bits + 64):
        for z in ATANH_CASES:
            iv = _atanh_series(z, bits)
            assert _is_dyadic(iv.lo) and _is_dyadic(iv.hi)
            assert iv.hi - iv.lo <= Fraction(1, 1 << bits), (z, bits)
            ref = mpmath.atanh(_mp(z))
            assert _mp(iv.lo) <= ref <= _mp(iv.hi), (z, bits)


@pytest.mark.parametrize("bits", BITS)
def test_log_interval_contains_mpmath_logs(bits):
    rng = random.Random(bits)
    with mpmath.workprec(4 * bits + 64):
        for _ in range(150):
            lo = _rational(rng, 40)
            hi = lo + Fraction(rng.randint(0, 10 ** 6), 10 ** rng.randint(0, 60))
            # ln over [lo, hi] from the grid integers of its endpoints' logs
            grid_lo = _log_grid(lo.numerator, lo.denominator, bits)[0]
            grid_hi = _log_grid(hi.numerator, hi.denominator, bits)[1]
            iv_lo, iv_hi = Fraction(grid_lo, 1 << bits), Fraction(grid_hi, 1 << bits)
            ref_lo, ref_hi = mpmath.log(_mp(lo)), mpmath.log(_mp(hi))
            assert _mp(iv_lo) <= ref_lo and ref_hi <= _mp(iv_hi), (lo, hi, bits)
            assert _mp(iv_hi - iv_lo) <= ref_hi - ref_lo + mpmath.mpf(2) ** (2 - bits)


# The raw series before rounding: summed to the end, its error is the
# truncations; stopped early, the tail. Either part of the bound is tested.
FIXED_Q = (40, 64, 100, 200, 400)
FIXED_CASES = [z for z in ATANH_CASES if z > 0]


@pytest.mark.parametrize("q", FIXED_Q)
@pytest.mark.parametrize("stop", ("end", "long tail"))
def test_atanh_fixed_error_bound_holds(q, stop):
    threshold = 0 if stop == "end" else 1 << (q // 2)
    with mpmath.workprec(4 * q + 64):
        for z in FIXED_CASES:
            total, err = _atanh_fixed(z.numerator, z.denominator, q, threshold)
            ref = mpmath.atanh(_mp(z)) * mpmath.mpf(2) ** q
            assert total - err <= ref <= total + err, (z, q, stop)


def test_atanh_series_rejects_z_beyond_one_half():
    for z in (Fraction(1, 2) + Fraction(1, 10 ** 30), Fraction(-2, 3), Fraction(1)):
        with pytest.raises(ValueError):
            _atanh_series(z, 64)
