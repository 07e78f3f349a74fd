"""μ(O), the roots of unity of an order, against a plain powering oracle.

The oracle powers the regular matrix of every element of a box in the power
basis of Z[x]/(f) and keeps those of finite order; the fields' roots of unity
all have power-basis coordinates in {−1, 0, 1}, inside the box of sup-norm 2.
Each power-basis vector is mapped into the order by sympy's exact inverse of
the order basis. The orders are Z[x]/(f) in seeded random unimodular bases,
and one smaller order: Z[y] for y = ζ₅ − ζ₅⁻¹ (x⁴ + 5x² + 5), which lacks ζ₅.
"""

import functools
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from ampletori import linalg, pipeline, units
from ampletori.errors import InvalidUnitSystemError
from ampletori.etale import EtaleAlgebra, element
from ampletori.pipeline import PipelineRequest, run_pipeline
from ampletori.polynomials import QPoly
from ampletori.units import UnitSystem, roots_of_unity, torsion_units, verify_unit_system

from oracles import oracle_torsion_order
from test_memos import fresh_memos

# Z[i], Z[ζ₃], Z[ζ₈], Z[ζ₅], x⁴−x²+1 (ζ₁₂), x³−x−1, Z[√2], the D4 field
# x⁴+2, the V4 field x⁴+3x²+1 (which holds i) and the C4 order x⁴+5x²+5
FIELDS = {
    (1, 0, 1): 4, (1, 1, 1): 6, (1, 0, 0, 0, 1): 8, (1, 1, 1, 1, 1): 10,
    (1, 0, -1, 0, 1): 12, (-1, -1, 0, 1): 2, (-2, 0, 1): 2,
    (2, 0, 0, 0, 1): 2, (1, 0, 3, 0, 1): 4, (5, 0, 5, 0, 1): 2,
}


def _unimodular(rng, n, steps):
    """A seeded integer matrix of determinant 1: row operations on I."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


@functools.cache
def _power_basis_roots(coeffs, bound=2):
    """{power-basis coordinates: order} of every root of unity in the box."""
    power = EtaleAlgebra([QPoly(coeffs)])
    box = itertools.product(range(-bound, bound + 1), repeat=len(coeffs) - 1)
    orders = {v: oracle_torsion_order(power, element(list(v))) for v in box}
    return {v: m for v, m in orders.items() if m is not None}


def _oracle_roots(coeffs, basis):
    """{order coordinates: order} of the roots of unity of the order."""
    inv = sympy.Matrix(basis).inv()
    out = {}
    for v, order in _power_basis_roots(coeffs).items():
        coords = sympy.Matrix([list(v)]) * inv  # v = c·B for the basis rows B
        out[element([Fraction(int(x.p), int(x.q)) for x in coords])] = order
    return out


def _cases():
    rng = random.Random(20261019)
    for coeffs in FIELDS:
        n = len(coeffs) - 1
        for steps in (0, 4, 4):  # the power basis, then two skewed bases
            yield coeffs, _unimodular(rng, n, steps)


CASES = list(_cases())


@pytest.mark.parametrize("coeffs, basis", CASES, ids=str)
def test_roots_of_unity_match_the_powering_oracle(coeffs, basis):
    e = EtaleAlgebra([QPoly(coeffs)], linalg.matrix(basis))
    expected = _oracle_roots(coeffs, basis)
    mu = roots_of_unity(e)
    assert len(mu) == len(expected) == FIELDS[coeffs]
    assert {z: units._is_torsion(e, z) for z in mu} == expected
    gen, order = torsion_units(e)
    # fewest nonzero coordinates, then lexicographically greatest, among the
    # elements of largest order
    best = [z for z, m in expected.items() if m == order]
    assert gen == max(best, key=lambda z: (-sum(1 for c in z[0] if c), z[0]))
    assert all(mu[k] == e.power(gen, k) for k in range(order))


def test_skewed_gaussian_basis_reports_order_four(monkeypatch):
    # the basis [[-5, -3], [2, 1]] puts i outside the box of sup-norm 3
    fresh_memos(monkeypatch, pipeline._searched_units)
    request = {
        "algebra": {"factors": [["1", "0", "1"]], "order_basis": [["-5", "-3"], ["2", "1"]]},
        "ambient": "SL",
        "places": "inf,5",
        "unit_source": {"search": {"coord_bound": 3}},
    }
    report = run_pipeline(PipelineRequest.from_json(request))
    assert report.sanity["all_pass"]["pass"]
    assert report.unit_system.torsion_order == 4
    assert report.generators.provenance["torsion:0"]["order"] == 4


def test_torsion_units_of_a_skewed_basis_finds_i():
    e = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[9, 2], [4, 1]]))
    gen, order = torsion_units(e)
    assert order == 4 and e.power(gen, 2) != e.one() == e.power(gen, 4)


def test_verification_rejects_torsion_that_misses_i():
    gauss = EtaleAlgebra([QPoly([1, 0, 1])])
    minus_one = UnitSystem(gauss, element([-1, 0]), 2, [element([2, 1])], (5,))
    with pytest.raises(
        InvalidUnitSystemError,
        match=r"^torsion generator has order 2, claimed 2, but the roots of unity of O\[1/S\] "
        r"have order 4$",
    ):
        verify_unit_system(minus_one)
    i_unit = minus_one._replace(torsion_generator=element([0, 1]), torsion_order=4)
    assert verify_unit_system(i_unit).rank == 1
    # μ(Z[3i]) = ±1, but i = 3i/3 lies in Z[3i][1/3]: the order named is O[1/S]
    z3i = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 3]]))
    assert len(roots_of_unity(z3i, ())) == 2
    minus_one = UnitSystem(z3i, element([-1, 0]), 2, [element([3, 0])], (3,))
    with pytest.raises(
        InvalidUnitSystemError,
        match=r"^torsion generator has order 2, claimed 2, but the roots of unity of O\[1/S\] "
        r"have order 4$",
    ):
        verify_unit_system(minus_one)


def test_the_gates_skip_the_split_prime(monkeypatch):
    # a real place, odd degree, or an A4 or S4 quartic leaves ±1 with no prime
    def refuse(*args):
        raise AssertionError("a gate should have answered")

    fields = [(-2, 0, 1), (-1, -1, 0, 1), (1, -1, 1, 0, 1), (12, 8, 0, 0, 1)]
    algebras = [EtaleAlgebra([QPoly(c)]) for c in fields]  # x⁴−x³+x²+1: S4, x⁴+8x+12: A4
    monkeypatch.setattr(units, "split_prime", refuse)
    monkeypatch.setattr(EtaleAlgebra, "elements_with_charpoly", refuse)
    fresh_memos(monkeypatch, units._field_roots_of_unity)
    for e in algebras:
        assert torsion_units(e) == ((tuple(-c for c in e.one()[0]), 1), 2)


def _s_number(d, s_primes):
    for p in s_primes:
        while d % p == 0:
            d //= p
    return d == 1


# Z[x]/(f) is the maximal order of these fields (every one but x⁴+5x²+5), so
# the box holds every root of unity of K
MAXIMAL = [coeffs for coeffs in FIELDS if coeffs != (5, 0, 5, 0, 1)]


@pytest.mark.parametrize("coeffs", MAXIMAL, ids=str)
@pytest.mark.parametrize("k", [2, 3])
def test_roots_of_unity_of_o_s_match_the_powering_oracle(coeffs, k):
    # Z + k·Z[x], basis 1, k·x, …, k·x^(n−1): a root of unity of K lies in its
    # O[1/S] exactly when its coordinates' denominator is an S-number
    n = len(coeffs) - 1
    basis = [[k if i == j and i else int(i == j) for j in range(n)] for i in range(n)]
    e = EtaleAlgebra([QPoly(coeffs)], linalg.matrix(basis))
    every_root = _oracle_roots(coeffs, basis)
    for s_primes in ((), (k,), (5,), (k, 5)):
        expected = {z: m for z, m in every_root.items() if _s_number(z[1], s_primes)}
        mu = roots_of_unity(e, s_primes)
        assert len(mu) == len(expected) and set(mu) == set(expected)
        assert {z: units._is_torsion(e, z, s_primes) for z in mu} == expected
        gen, order = torsion_units(e, s_primes)
        best = [z for z, m in expected.items() if m == order]
        assert gen == max(
            best, key=lambda z: (-sum(1 for c in z[0] if c), [Fraction(c, z[1]) for c in z[0]])
        )
        assert all(mu[j] == e.power(gen, j) for j in range(order))


def test_zeta_five_lies_in_the_equation_order_with_two_inverted():
    # Z[y], y = ζ₅ − ζ₅⁻¹, has index 4 in Z[ζ₅]: μ(Z[y]) = ±1, μ(Z[y][1/2]) = μ₁₀
    e = EtaleAlgebra([QPoly([5, 0, 5, 0, 1])])
    assert torsion_units(e) == (element([-1, 0, 0, 0]), 2)
    assert torsion_units(e, (5,)) == (element([-1, 0, 0, 0]), 2)
    gen, order = torsion_units(e, (2,))
    assert order == 10 == oracle_torsion_order(e, gen) and gen[1] == 2


def test_a_new_s_reuses_the_cached_roots(monkeypatch):
    def refuse(*args):
        raise AssertionError("the roots of unity of K are cached per order")

    fresh_memos(monkeypatch, units._field_roots_of_unity)
    z3i = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 3]]))
    assert torsion_units(z3i) == (element([-1, 0]), 2)
    monkeypatch.setattr(EtaleAlgebra, "elements_with_charpoly", refuse)
    assert torsion_units(z3i, (3,)) == (element([0, Fraction(1, 3)]), 4)
    assert torsion_units(z3i, (5,)) == (element([-1, 0]), 2)
    assert units._field_roots_of_unity.cache_info().currsize == 1


def test_z3i_unit_system_with_three_inverted_holds_i():
    z3i = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 3]]))
    system = units.assemble_unit_system(z3i, (3,), 3)
    assert (system.torsion_generator, system.torsion_order) == (element([0, Fraction(1, 3)]), 4)
    assert verify_unit_system(system).rank == system.rank == 1
