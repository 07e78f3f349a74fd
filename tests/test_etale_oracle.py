"""The integer ring core of EtaleAlgebra against plain Fraction loops.

The reference functions below compute every structure-constant product in
`Fraction`s, straight from the order basis and its inverse. Each ring
operation must return the same exact rationals on seeded elements of
algebras of degree 1–4, products of two fields, bases with a non-integral
inverse, orders among them, bases that are not orders (structure constants
with denominators) and S-unit ratios (elements with denominators): an
element as its integer form (ints, den) in lowest terms, a norm or trace as
(num, den) in lowest terms, a matrix as linalg's integer form (rows, den) in
lowest terms. Equal values must give equal forms and equal hashes.
"""

import functools
import math
import random
from fractions import Fraction

import pytest

from ampletori import linalg
from ampletori.errors import SingularMatrixError
from ampletori.etale import EtaleAlgebra, coordinates, element
from ampletori.polynomials import QPoly
from ampletori.units import search_units

from oracles import as_fractions, oracle_det, oracle_mat_inv, oracle_mat_trace, oracle_solve

ALGEBRAS = {
    "linear": EtaleAlgebra([QPoly([-3, 1])]),
    "gauss": EtaleAlgebra([QPoly([1, 0, 1])]),
    "sqrt2-shifted": EtaleAlgebra([QPoly([-2, 0, 1])], linalg.matrix([[1, 5], [0, 1]])),
    "z[2i]": EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 2]])),
    "gauss-non-order": EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, Fraction(1, 2)]])),
    "cubic": EtaleAlgebra([QPoly([-1, 1, 0, 1])]),
    "cubic-sublattice": EtaleAlgebra([QPoly([-1, 1, 0, 1])], linalg.matrix([[1, 0, 0], [0, 3, 0], [1, 1, 3]])),
    "cubic-non-order": EtaleAlgebra(
        [QPoly([-1, 1, 0, 1])], linalg.matrix([[1, 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(2, 5)]])
    ),
    "quartic": EtaleAlgebra([QPoly([1, -16, 20, -8, 1])]),
    "cyclotomic-8": EtaleAlgebra(
        [QPoly([1, 0, 0, 0, 1])], linalg.matrix([[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    ),
    "linear-x-quadratic": EtaleAlgebra([QPoly([-2, 1]), QPoly([1, 1, 1])]),
    "gauss-x-sqrt2": EtaleAlgebra([QPoly([1, 0, 1]), QPoly([-2, 0, 1])]),
    "gauss-x-sqrt2-mixed": EtaleAlgebra(
        [QPoly([1, 0, 1]), QPoly([-2, 0, 1])],
        linalg.matrix([[1, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    ),
}

DENOMINATORS = (1, 1, 1, 2, 3, 5, 25, 7)


# -- the reference: every product in Fractions -------------------------------


def ref_to_power(e, coords):
    b = as_fractions(e.order_basis)
    return tuple(sum((coords[i] * b[i][j] for i in range(e.n)), Fraction(0)) for j in range(e.n))


def ref_from_power(e, power):
    b = oracle_mat_inv(as_fractions(e.order_basis))
    return tuple(sum((power[i] * b[i][j] for i in range(e.n)), Fraction(0)) for j in range(e.n))


@functools.cache
def ref_table(e):
    basis = as_fractions(e.order_basis)
    return [[ref_from_power(e, e._mul_power(basis[i], basis[j])) for j in range(e.n)] for i in range(e.n)]


def ref_mul(e, a, b):
    table = ref_table(e)
    out = [Fraction(0)] * e.n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            for k in range(e.n):
                out[k] += ai * bj * table[i][j][k]
    return tuple(out)


def ref_regular_rep(e, a):
    table = ref_table(e)
    cols = []
    for j in range(e.n):
        col = [Fraction(0)] * e.n
        for i, ai in enumerate(a):
            for k in range(e.n):
                col[k] += ai * table[i][j][k]
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(e.n)) for i in range(e.n))


def ref_one(e):
    power = [Fraction(0)] * e.n
    for off in e.offsets:
        power[off] = Fraction(1)
    return ref_from_power(e, power)


def ref_inverse(e, a):
    return oracle_solve(ref_regular_rep(e, a), ref_one(e))


def ref_power(e, a, k):
    if k < 0:
        return ref_power(e, ref_inverse(e, a), -k)
    result = ref_one(e)
    for _ in range(k):
        result = ref_mul(e, result, a)
    return result


# -- the cases ----------------------------------------------------------------


def _elements(e, seed, count=8):
    rng = random.Random(f"{seed}/{e!r}")
    out = [(Fraction(0),) * e.n, ref_one(e)]
    for _ in range(count):
        out.append(
            tuple(Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(e.n))
        )
    return out


def _exact(got, want):
    """got is the integer form of the rational matrix want: (rows, den) in
    lowest terms with den > 0."""
    rows, den = got
    flat = [x for row in rows for x in row]
    in_form = all(type(x) is int for x in (*flat, den)) and den > 0 and math.gcd(den, *flat) == 1
    return in_form and as_fractions(got) == want


def _same(got, want):
    """got is the integer form of the rationals want: (ints, den) in lowest
    terms with den > 0, so that equal values give equal forms."""
    ints, den = got
    in_form = all(type(x) is int for x in (*ints, den)) and den > 0 and math.gcd(den, *ints) == 1
    return in_form and coordinates(got) == tuple(want)


def _lowest(pair, want):
    num, den = pair
    return den > 0 and math.gcd(num, den) == 1 and Fraction(num, den) == want


def _check_element_ops(e, a, b):
    """Every element operation on a and b (rational tuples) against the references."""
    ea, eb = element(a), element(b)
    rep = ref_regular_rep(e, a)
    assert _exact(e.regular_rep(ea), rep)
    assert _lowest(e.norm(ea), oracle_det(rep))
    assert _lowest(e.trace(ea), oracle_mat_trace(rep))
    assert _same(e.mul(ea, eb), ref_mul(e, a, b))
    assert _same(e.to_power(ea), ref_to_power(e, a))
    assert _same(e.from_power(ea), ref_from_power(e, a))
    assert e.from_power(e.to_power(ea)) == ea


@pytest.mark.parametrize("name", ALGEBRAS)
def test_structure_and_coordinates_match_fraction_loops(name):
    e = ALGEBRAS[name]
    # the integer structure constants over their common denominator D
    table = [
        [tuple(Fraction(dict(pairs).get(k, 0), e._den) for k in range(e.n)) for pairs in row]
        for row in e._table
    ]
    assert table == ref_table(e)
    # D exceeds 1 off an order
    assert (e._den > 1) == (not e.is_order()[0])
    assert _same(e.one(), ref_one(e))
    for a in _elements(e, 1):
        assert element(a) == element(coordinates(element(a)))
        assert _same(e.to_power(element(a)), ref_to_power(e, a))
        assert _same(e.from_power(element(a)), ref_from_power(e, a))
        assert e.from_power(e.to_power(element(a))) == element(a)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_ring_operations_match_fraction_loops(name):
    e = ALGEBRAS[name]
    elements = _elements(e, 2)
    for a in elements:
        for b in elements:
            _check_element_ops(e, a, b)


def _check_inverse_and_powers(e, a):
    ea = element(a)
    assert _same(e.power(ea, 0), ref_one(e))
    for k in (1, 2, 5):
        assert _same(e.power(ea, k), ref_power(e, a, k))
    try:
        inv = ref_inverse(e, a)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            e.inverse(ea)
        return
    assert _same(e.inverse(ea), inv)
    for k in (-1, -3):
        assert _same(e.power(ea, k), ref_power(e, a, k))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_inverse_and_powers_match_fraction_loops(name):
    e = ALGEBRAS[name]
    for a in _elements(e, 3, count=4):
        _check_inverse_and_powers(e, a)


def test_integer_coordinates_are_accepted():
    # integer coordinates are the form (ints, 1), as the unit search emits them
    e = ALGEBRAS["cubic-sublattice"]
    a, b = (1, -2, 3), (0, 4, -1)
    fa, fb = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    assert element(a) == element(fa) == (a, 1)
    assert _same(e.mul((a, 1), (b, 1)), ref_mul(e, fa, fb))
    assert _exact(e.regular_rep((a, 1)), ref_regular_rep(e, fa))
    assert _same(e.to_power((a, 1)), ref_to_power(e, fa))


def test_s_unit_ratios_match_fraction_loops():
    # pairwise ratios of the {13}-unit search, as assembly forms them: their
    # denominators are 1 or 13
    e = ALGEBRAS["gauss"]
    found = search_units(e, 3, (13,))
    ratios = sorted({e.mul(a, e.inverse(b)) for a in found for b in found if a != b})
    assert {den for _, den in ratios} == {1, 13}
    for u in ratios[::7]:
        u = coordinates(u)
        _check_element_ops(e, u, coordinates(found[0]))
        _check_inverse_and_powers(e, u)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_equal_values_give_equal_forms_and_hashes(name):
    e = ALGEBRAS[name]
    a, b, c = (element(x) for x in _elements(e, 4, count=3)[2:])
    pairs = [
        (e.mul(a, b), e.mul(b, a)),
        (e.mul(e.mul(a, b), c), e.mul(a, e.mul(b, c))),
        (e.power(a, 3), e.mul(a, e.mul(a, a))),
        (e.from_power(e.to_power(c)), c),
        (element([x / 1 for x in coordinates(b)]), b),
    ]
    try:
        pairs.append((e.mul(a, e.inverse(a)), e.one()))
        pairs.append((e.power(e.inverse(a), 2), e.inverse(e.mul(a, a))))
    except SingularMatrixError:
        pass
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert _same(x, coordinates(y))
