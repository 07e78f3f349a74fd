"""Differential tests of PrimePlaces.valuation against sympy's prime ideals.

sympy is a test-only oracle; the library never imports it. sympy works in
the maximal order and decomposes p by its own algorithm (prime_decomp); each
of its primes (p, α) is matched to our place (p, g_i(x)) by α mod p, which
g_i divides for exactly one i when p splits. ord_P(a) is the largest k with
a in P^k, whose Hermite basis sympy computes as an ideal power. sympy's own
prime_valuation is not used: it raises CoercionFailed on some principal
ideals, such as (126·(x − 1)) in Z[√10] at 3. The fields are every corpus
and benchmark-workload polynomial, at every unramified prime below 50.
"""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.numberfields.primes import prime_decomp

from ampletori.etale import element
from ampletori.pipeline import corpus_dir
from ampletori.places import PrimePlaces
from ampletori.polynomials import QPoly, discriminant, fp_mod, fp_strip, is_prime, strip_primes

X = sympy.Symbol("x")
WORKLOADS = Path(__file__).resolve().parent.parent / "ampbench" / "workloads.py"
PRIMES = [p for p in range(2, 50) if is_prime(p)]


def _fields() -> list[tuple[int, ...]]:
    found = set()
    for path in sorted(corpus_dir().glob("*.json")):
        for factor in json.loads(path.read_text())["request"]["algebra"]["factors"]:
            found.add(tuple(int(c) for c in factor))
    for args in re.findall(r"_poly\(([-\d, ]+)\)", WORKLOADS.read_text()):
        found.add(tuple(int(c) for c in args.split(",")))
    return sorted(found, key=lambda c: (len(c), c))


CASES = [
    (coeffs, p)
    for coeffs in _fields()
    for p in PRIMES
    if discriminant(QPoly(coeffs)) % p != 0
]


def _sympy_poly(coeffs) -> sympy.Poly:
    """sympy's polynomial of ascending coefficients."""
    return sympy.Poly(list(reversed(coeffs)), X, domain=QQ)


def _elements(t: sympy.Poly, pp: PrimePlaces, rng: random.Random) -> list[list[int]]:
    """The power-basis coordinates of integral elements: a random one, and
    g_i(x)^3 times a random one for each place i, so ord ≥ 3 there (p³
    times a random one when p is inert)."""
    n = t.degree()

    def small():
        return _sympy_poly([rng.randint(-30, 30) for _ in range(n)])

    cubes = [_sympy_poly(g) ** 3 for g in pp.factors] if pp.count > 1 else [_sympy_poly([pp.p**3])]
    out = [small()] + [(c * small()).rem(t) for c in cubes]
    return [
        [int(c) for c in reversed(a.all_coeffs())] + [0] * (n - 1 - a.degree())
        for a in out
        if not a.is_zero
    ]


def _v_p(n: int, p: int) -> int:
    return strip_primes(n, (p,))[1][p]


def _sympy_order(powers, ints) -> int:
    """The largest k with a in P^k, for a with these power-basis coordinates.

    powers = [P, P², …] as sympy submodules of the power basis, extended as
    needed; a lies in P^k when it has integral coordinates on its basis.
    """
    a = DomainMatrix([[QQ(c)] for c in ints], (len(ints), 1), QQ)
    k = 0
    while True:
        if k == len(powers):
            powers.append(powers[-1] * powers[0])
        ideal = powers[k]
        coords = ideal.matrix.convert_to(QQ).inv() * a * ideal.denom
        if any(c.denominator != 1 for c in coords.to_Matrix()):
            return k
        k += 1


@pytest.mark.parametrize("coeffs,p", CASES, ids=[f"{c}-{p}" for c, p in CASES])
def test_valuations_match_sympy_prime_ideals(coeffs, p):
    f = QPoly(coeffs)
    pp = PrimePlaces(f, p)
    t = sympy.Poly(list(reversed(coeffs)), X)
    primes = prime_decomp(p, t)
    assert sorted(P.f for P in primes) == sorted(pp.residue_degrees)
    # our place index for each sympy prime, by its generator α mod p
    match = []
    for P in primes:
        numerator = reversed(P.alpha.poly().all_coeffs())
        alpha = fp_strip([int(c) * pow(int(P.alpha.denom), -1, p) % p for c in numerator])
        hits = [i for i, g in enumerate(pp.factors) if not fp_mod(alpha, g, p)]
        assert len(hits) == 1 or pp.count == 1
        match.append(hits[0])
    assert sorted(match) == list(range(pp.count))
    prime_powers = [[P.as_submodule()] for P in primes]
    rng = random.Random(f"{coeffs}:{p}")
    deepest = 0
    for ints in _elements(t, pp, rng):
        want = [_sympy_order(powers, ints) for powers in prime_powers]
        deepest = max(deepest, *want)
        # a denominator p^k·m lowers every valuation by k
        den = rng.choice([1, 6, p, 3 * p**2])
        k = _v_p(den, p)
        coords = tuple(Fraction(c, den) for c in ints)
        power = element(coords)
        assert [pp.valuation(i, power) for i in match] == [w - k for w in want], (ints, den)
        norm = Fraction(str(t.resultant(_sympy_poly(coords))))
        v_norm = _v_p(norm.numerator, p) - _v_p(norm.denominator, p)
        ords = [pp.valuation(i, power) for i in range(pp.count)]
        assert sum(fi * v for fi, v in zip(pp.residue_degrees, ords)) == v_norm
    assert deepest >= 3
