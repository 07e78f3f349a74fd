import random
from fractions import Fraction

import pytest

from ampletori import polynomials, units
from ampletori.errors import CompositeModulusError, NonMonicError
from ampletori.etale import EtaleAlgebra, element
from ampletori.polynomials import (
    QPoly,
    _integer_roots,
    discriminant,
    factor_mod_p,
    fp_mul,
    is_irreducible_q,
    is_square_integer,
    squarefree_root,
)
from ampletori.places import signature

from oracles import oracle_count_real_roots, oracle_fp_irreducible

X = QPoly([0, 1])
CUBIC = QPoly([-1, 1, 0, 1])  # x^3 + x - 1
QUARTIC = QPoly([1, -16, 20, -8, 1])  # x^4 - 8x^3 + 20x^2 - 16x + 1
GAUSS = QPoly([1, 0, 1])  # x^2 + 1


def test_qpoly_holds_integer_coefficients():
    assert QPoly([Fraction(6, 2), 0, 1, 0]).coeffs == (3, 0, 1)
    assert all(type(c) is int for c in QPoly([Fraction(-4, 2), 1]).coeffs)
    assert repr(QPoly([-2, 0, -1, 1])) == "QPoly(-2 + -1*x^2 + x^3)"
    for bad in (Fraction(1, 2), 0.5, "3"):
        with pytest.raises(ValueError):
            QPoly([bad, 1])


def test_discriminant_quadratics():
    assert discriminant(GAUSS) == -4
    assert discriminant(QPoly([-1, 0, 1])) == 4


def test_discriminant_cubic_matches_formula():
    # oracle: disc(x^3 + px + q) = -4p^3 - 27q^2
    p, q = 1, -1
    assert discriminant(CUBIC) == -4 * p**3 - 27 * q**2 == -31


def test_discriminant_rejects_nonmonic():
    with pytest.raises(NonMonicError):
        discriminant(QPoly([1, 0, 2]))


def test_signature_spec_examples():
    assert signature(GAUSS).r1 == 0
    assert signature(CUBIC).r1 == oracle_count_real_roots(CUBIC) == 1
    assert signature(QUARTIC).r1 == oracle_count_real_roots(QUARTIC) == 4


def test_signature_agrees_with_bisection_oracle():
    rng = random.Random(20260809)
    done = 0
    while done < 400:
        deg = rng.randint(1, 6)
        bound = rng.choice([9, 10**6])
        f = QPoly([rng.randint(-bound, bound) for _ in range(deg)] + [1])
        if not discriminant(f):
            continue  # root disks need simple roots
        assert signature(f).r1 == oracle_count_real_roots(f), f
        done += 1


@pytest.mark.parametrize(
    "f, r1",
    [
        # x⁴ − 2(10⁶x − 1)²: two real roots about 1.4·10⁻¹⁸ apart near 10⁻⁶
        (QPoly([-2, 4 * 10**6, -2 * 10**12, 0, 1]), 4),
        (QPoly([-(10**30) - 1, 0, 1]), 2),
        (QPoly([10**14 + 3, 0, 0, 0, 1]), 0),
    ],
)
def test_signature_on_hard_cases(f, r1):
    assert signature(f).r1 == oracle_count_real_roots(f) == r1


def test_factor_mod_p_spec_examples():
    assert factor_mod_p(GAUSS, 5) == [([2, 1], 1), ([3, 1], 1)]
    assert factor_mod_p(GAUSS, 3) == [([1, 0, 1], 1)]
    assert factor_mod_p(CUBIC, 2) == [([1, 1, 0, 1], 1)]


def _fp_product(factors, p):
    prod = [1]
    for g in factors:
        prod = fp_mul(prod, g, p)
    return prod


# each needs an equal-degree split: distinct irreducibles of one degree (the
# trace map at p = 2), or distinct roots past the root search's p·deg ≤ 10^4
SPLIT_CASES = [
    (_fp_product([[1, 1, 0, 1], [1, 0, 1, 1]], 2), 2),
    (_fp_product([[1, 0, 1], [2, 1, 1], [2, 2, 1]], 3), 3),
    (_fp_product([[1, 0, 1], [2, 0, 1], [4, 0, 1], [5, 0, 0, 1], [4, 0, 0, 1]], 7), 7),
    (_fp_product([[-r % 10007, 1] for r in (3, 77, 5000, 10006)], 10007), 10007),
]


@pytest.mark.parametrize("f, p", SPLIT_CASES)
def test_factor_mod_p_answers_do_not_depend_on_the_seed(monkeypatch, f, p):
    expected = factor_mod_p(f, p)
    assert len(expected) >= 2 and all(m == 1 for _, m in expected)
    for seed in (0, 987654321):
        seeded = []
        monkeypatch.setattr(
            polynomials, "_seeded_rng", lambda fp, q: seeded.append(fp) or random.Random(seed)
        )
        assert factor_mod_p(f, p) == expected
        assert seeded  # the forced generator did the splitting


def test_factor_mod_p_rejects_composite():
    with pytest.raises(CompositeModulusError):
        factor_mod_p(GAUSS, 6)


def test_factor_remultiplies_and_factors_irreducible():
    rng = random.Random(99)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7, 11])
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(0, p - 1) for _ in range(deg)] + [1]
        factors = factor_mod_p(coeffs, p)
        prod = [1]
        for g, m in factors:
            for _ in range(m):
                prod = fp_mul(prod, g, p)
        assert prod == coeffs
        for g, _ in factors:
            assert oracle_fp_irreducible(g, p)


def test_discriminant_vs_repeated_factors():
    rng = random.Random(4242)
    primes = [p for p in range(2, 101) if all(p % q for q in range(2, p))]
    polys = []
    for _ in range(40):
        deg = rng.randint(1, 5)
        polys.append(QPoly([rng.randint(-9, 9) for _ in range(deg)] + [1]))
    for f in polys:
        disc = discriminant(f)
        for p in primes:
            repeated = any(m > 1 for _, m in factor_mod_p(f, p))
            assert (disc % p == 0) == repeated, (f, p)


def test_is_square_integer():
    assert is_square_integer(4)
    assert not is_square_integer(-31)
    assert is_square_integer(25 * 49)
    assert is_square_integer(0)


def test_integer_roots_with_huge_coefficients_need_no_divisors():
    # trial division up to sqrt(2e16) took seconds here; the root search
    # works from p-adic lifts instead
    big = 20477502388745870
    assert _integer_roots(QPoly([0, big, 1])) == [-big, 0]
    p, q = 1000000007, 998244353
    assert _integer_roots(QPoly([p * q, -q - p, 1])) == [q, p]
    assert not is_irreducible_q(QPoly([0, big, 1]))
    assert is_irreducible_q(QPoly([big, 0, 1]))
    # a root modulo every prime, yet no rational root
    assert _integer_roots(QPoly([-2, 0, 1]) * QPoly([-3, 0, 1]) * QPoly([-6, 0, 1])) == []


def test_integer_roots_match_sympy():
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    done = 0
    while done < 150:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1]
        for _ in range(rng.randint(0, 2)):  # times (x - r): an integer root
            r = rng.randint(-6, 6)
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        f = QPoly(coeffs)
        if not discriminant(f):
            continue  # the root search needs a squarefree f
        expected = sorted(int(r) for r in sympy.roots(sympy.Poly(coeffs[::-1], x), filter="Z"))
        assert _integer_roots(f) == expected, coeffs
        done += 1


def _sympy_squarefree_root(g: QPoly):
    """(g₀, m) with g = g₀^m for g₀ sympy's squarefree part of g, or None."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(g.coeffs[::-1], x)
    part = poly.sqf_part()
    m, rem = divmod(poly.degree(), part.degree())
    if rem or part**m != poly:
        return None
    return QPoly([int(c) for c in reversed(part.all_coeffs())]), m


# quartics with their subfield generators, as power-basis coordinates
SUBFIELDS = [
    ((1, 0, 0, 0, 1), [(0, 0, 1, 0), (0, 1, 0, -1)]),  # V4: i = x², √2 = x − x³
    ((-2, 0, 0, 0, 1), [(0, 0, 1, 0)]),  # D4: √2 = x²
    ((5, 0, -5, 0, 1), [(0, 0, 1, 0)]),  # C4: Q(√5) = Q(x²)
]


def test_squarefree_root_matches_sympy_sqf_part():
    rng = random.Random("squarefree_root")
    charpolys = []
    for coeffs, subfield in SUBFIELDS:
        e = EtaleAlgebra([QPoly(coeffs)])
        for _ in range(10):
            a = rng.randint(-5, 5)
            charpolys.append(e.charpoly(element([a, 0, 0, 0])))  # (x − a)⁴
            beta = [a, 0, 0, 0]
            for s in subfield:
                b = rng.randint(-5, 5)
                beta = [u + b * v for u, v in zip(beta, s)]
            charpolys.append(e.charpoly(element(beta)))  # g₀², or (x − a)⁴
            charpolys.append(e.charpoly(element([rng.randint(-5, 5) for _ in range(4)])))
    charpolys += [QPoly(phi) ** k for phi in units.CYCLOTOMIC.values() for k in (1, 2, 3)]
    non_power = QPoly([-1, 1]) ** 3 * QPoly([-2, 1])  # (x − 1)³(x − 2)
    charpolys.append(non_power)
    roots = [squarefree_root(g) for g in charpolys]
    assert roots == [_sympy_squarefree_root(g) for g in charpolys]
    assert {1, 2, 3, 4, None} <= {r and r[1] for r in roots}
    assert sum(1 for r in roots if r and r[1] == 2 and r[0].degree == 2) >= 15
    assert roots[-1] is None
    assert EtaleAlgebra([QPoly([1, 0, 0, 0, 1])]).elements_with_charpoly(non_power) == []


def test_irreducibility_degree_four():
    assert is_irreducible_q(QUARTIC)
    assert is_irreducible_q(GAUSS)
    assert is_irreducible_q(CUBIC)
    assert not is_irreducible_q(QPoly([1, 2, 1]))  # (x+1)^2
    assert not is_irreducible_q(QPoly([1, 0, 2, 0, 1]))  # (x^2+1)^2
    assert not is_irreducible_q(QPoly([4, 0, 5, 0, 1]))  # (x^2+1)(x^2+4)
    assert is_irreducible_q(QPoly([1, 1, 1, 1, 1]))  # Phi_5
    assert is_irreducible_q(QPoly([-2, 0, 0, 0, 1]))  # x^4 - 2
