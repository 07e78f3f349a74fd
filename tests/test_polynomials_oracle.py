"""Differential tests of is_irreducible_q and factor_mod_p against sympy's
factor_list.

sympy is a test-only oracle; the library never imports it. The inputs to
is_irreducible_q are seeded monic integral polynomials of degree 2 to 6:
random ones (mostly irreducible), products of two random factors, squares,
and constant terms far too large to factor by trial division. factor_mod_p
is checked at every prime below 400 on seeded polynomials of degree 1 to 6,
products of linear factors and polynomials with repeated factors.
"""

import functools
import random

import pytest
import sympy

from ampletori.polynomials import QPoly, factor_mod_p, is_irreducible_q

X = sympy.Symbol("x")


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _monic(rng, degree):
    return tuple(rng.randint(-9, 9) for _ in range(degree)) + (1,)


def _cases() -> list[tuple[int, ...]]:
    rng = random.Random(20261018)
    # a random sextic costs ~0.1 s: its split prime is near the 720th on average
    cases = [_monic(rng, rng.randint(2, 5)) for _ in range(104)] + [_monic(rng, 6) for _ in range(12)]
    for _ in range(80):
        d = rng.randint(1, 3)
        cases.append(_mul(_monic(rng, d), _monic(rng, rng.randint(1, 6 - d))))
    cases += [_mul(c, c) for c in (_monic(rng, 1), _monic(rng, 2), _monic(rng, 3))]
    big = 10**15
    cases += [
        (10**30 + 3, 0, 0, 0, 1),
        _mul((big + 7, 0, 1), (big + 9, 1, 1)),
        (10**14 + 3, 0, 0, 0, 1),
        (4 * 10**28, 0, 0, 0, 1),  # x^4 + 4c^4 = (x^2 + 2cx + 2c^2)(x^2 - 2cx + 2c^2)
    ]
    return cases


CASES = _cases()


def _sympy_irreducible(coeffs) -> bool:
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(coeffs)), X))
    return len(factors) == 1 and factors[0][1] == 1


def test_the_cases_cover_every_degree_and_both_answers():
    assert len(CASES) >= 200
    assert {len(c) - 1 for c in CASES} == {2, 3, 4, 5, 6}
    answers = [_sympy_irreducible(c) for c in CASES]
    assert 50 <= sum(answers) <= len(CASES) - 50


@pytest.mark.parametrize("coeffs", CASES, ids=str)
def test_irreducibility_matches_sympy(coeffs):
    assert is_irreducible_q(QPoly(coeffs)) == _sympy_irreducible(coeffs)


PRIMES = [p for p in range(2, 400) if sympy.isprime(p)]


def _mod_p_cases(p) -> list[tuple[int, ...]]:
    rng = random.Random(f"factor_mod_p/{p}")
    cases = [_monic(rng, d) for d in range(1, 7)]
    linears = [(-rng.randrange(p), 1) for _ in range(6)]
    for k in (2, 4, 6):  # split, with a repeated root whenever two draws agree
        cases.append(functools.reduce(_mul, linears[:k]))
    a, b = _monic(rng, 1), _monic(rng, 2)
    cases += [_mul(_mul(a, a), b), _mul(b, b), _mul(_mul(a, a), a)]
    return cases


@pytest.mark.parametrize("p", PRIMES)
def test_factor_mod_p_matches_sympy(p):
    for coeffs in _mod_p_cases(p):
        _, factors = sympy.Poly(list(reversed(coeffs)), X, modulus=p).factor_list()
        want = [([int(c) % p for c in reversed(f.all_coeffs())], m) for f, m in factors]
        want.sort(key=lambda fm: (len(fm[0]), fm[0]))
        assert factor_mod_p(QPoly(coeffs), p) == want, coeffs
