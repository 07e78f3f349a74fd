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

from ampletori.intervals import _atanh_fixed, _atanh_grid, _ln2_grid, log_grid

BITS = (32, 64, 100, 128, 256)


def _mp(x: Fraction):
    """x as an mpf; exact for the dyadic endpoints at the oracle's precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def _grid(k: int, bits: int):
    """k·2^-bits as an mpf, exactly."""
    return mpmath.ldexp(k, -bits)


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
def test_log_grid_contains_mpmath_log(bits):
    with mpmath.workprec(4 * bits + 64):
        for q in LOG_CASES:
            lo, hi = log_grid(q.numerator, q.denominator, bits)
            assert lo <= hi <= lo + 2, (q, bits)
            ref = mpmath.log(_mp(q))
            assert _grid(lo, bits) <= ref <= _grid(hi, bits), (q, bits)


@pytest.mark.parametrize("bits", BITS)
def test_ln2_grid_contains_mpmath_ln2(bits):
    with mpmath.workprec(4 * bits + 64):
        lo, hi = _ln2_grid(bits)
        assert lo <= hi <= lo + 2
        assert _grid(lo, bits) <= mpmath.log(2) <= _grid(hi, bits)


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
def test_atanh_grid_contains_mpmath_atanh(bits):
    with mpmath.workprec(4 * bits + 64):
        for z in ATANH_CASES:
            lo, hi = _atanh_grid(z.numerator, z.denominator, bits)
            assert lo <= hi <= lo + 2, (z, bits)
            ref = mpmath.atanh(_mp(z))
            assert _grid(lo, bits) <= ref <= _grid(hi, bits), (z, bits)


@pytest.mark.parametrize("bits", BITS)
def test_log_interval_contains_mpmath_logs(bits):
    rng = random.Random(bits)
    with mpmath.workprec(4 * bits + 64):
        for _ in range(150):
            lo = _rational(rng, 40)
            hi = lo + Fraction(rng.randint(0, 10 ** 6), 10 ** rng.randint(0, 60))
            # ln over [lo, hi] from the grid integers of its endpoints' logs
            grid_lo = log_grid(lo.numerator, lo.denominator, bits)[0]
            grid_hi = log_grid(hi.numerator, hi.denominator, bits)[1]
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


def test_atanh_grid_rejects_z_beyond_one_half():
    for z in (Fraction(1, 2) + Fraction(1, 10 ** 30), Fraction(-2, 3), Fraction(1)):
        with pytest.raises(ValueError):
            _atanh_grid(z.numerator, z.denominator, 64)
