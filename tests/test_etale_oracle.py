"""The integer ring core of EtaleAlgebra against plain Fraction loops.

The reference functions below compute every structure-constant product in
`Fraction`s, straight from the order basis and its inverse. Each ring
operation must return the same exact rationals, as `Fraction`s, on seeded
elements of algebras of degree 1–4, products of two fields, bases with a
non-integral inverse, orders among them, and bases that are not orders
(structure constants with denominators).
"""

import functools
import random
from fractions import Fraction

import pytest

from ampletori import linalg
from ampletori.errors import SingularMatrixError
from ampletori.etale import EtaleAlgebra
from ampletori.polynomials import QPoly

from oracles import oracle_mat_inv, oracle_mat_trace, oracle_solve

ALGEBRAS = {
    "linear": EtaleAlgebra([QPoly([-3, 1])]),
    "gauss": EtaleAlgebra([QPoly([1, 0, 1])]),
    "sqrt2-shifted": EtaleAlgebra([QPoly([-2, 0, 1])], [[1, 5], [0, 1]]),
    "z[2i]": EtaleAlgebra([QPoly([1, 0, 1])], [[1, 0], [0, 2]]),
    "gauss-non-order": EtaleAlgebra([QPoly([1, 0, 1])], [[1, 0], [0, Fraction(1, 2)]]),
    "cubic": EtaleAlgebra([QPoly([-1, 1, 0, 1])]),
    "cubic-sublattice": EtaleAlgebra([QPoly([-1, 1, 0, 1])], [[1, 0, 0], [0, 3, 0], [1, 1, 3]]),
    "cubic-non-order": EtaleAlgebra(
        [QPoly([-1, 1, 0, 1])], [[1, 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(2, 5)]]
    ),
    "quartic": EtaleAlgebra([QPoly([1, -16, 20, -8, 1])]),
    "cyclotomic-8": EtaleAlgebra(
        [QPoly([1, 0, 0, 0, 1])], [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
    ),
    "linear-x-quadratic": EtaleAlgebra([QPoly([-2, 1]), QPoly([1, 1, 1])]),
    "gauss-x-sqrt2": EtaleAlgebra([QPoly([1, 0, 1]), QPoly([-2, 0, 1])]),
    "gauss-x-sqrt2-mixed": EtaleAlgebra(
        [QPoly([1, 0, 1]), QPoly([-2, 0, 1])],
        [[1, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    ),
}

DENOMINATORS = (1, 1, 1, 2, 3, 5, 25, 7)


# -- the reference: every product in Fractions -------------------------------


def ref_to_power(e, coords):
    b = e.order_basis
    return tuple(sum((coords[i] * b[i][j] for i in range(e.n)), Fraction(0)) for j in range(e.n))


def ref_from_power(e, power):
    b = oracle_mat_inv(e.order_basis)
    return tuple(sum((power[i] * b[i][j] for i in range(e.n)), Fraction(0)) for j in range(e.n))


@functools.cache
def ref_table(e):
    basis = e.order_basis
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
    out = [(Fraction(0),) * e.n, e.one()]
    for _ in range(count):
        out.append(
            tuple(Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(e.n))
        )
    return out


def _exact(got, want):
    """Equal as rationals, and every entry a Fraction."""
    flat = [x for row in got for x in row] if got and isinstance(got[0], tuple) else list(got)
    return got == want and all(type(x) is Fraction for x in flat)


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
    assert _exact(e.one(), ref_one(e))
    for a in _elements(e, 1):
        assert _exact(e.to_power(a), ref_to_power(e, a))
        assert _exact(e.from_power(a), ref_from_power(e, a))
        assert _exact(e.from_power(e.to_power(a)), a)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_ring_operations_match_fraction_loops(name):
    e = ALGEBRAS[name]
    elements = _elements(e, 2)
    for a in elements:
        rep = ref_regular_rep(e, a)
        assert _exact(e.regular_rep(a), rep)
        norm, trace = e.norm(a), e.trace(a)
        assert type(norm) is Fraction and norm == linalg.mat_det(rep)
        assert type(trace) is Fraction and trace == oracle_mat_trace(rep)
        for b in elements:
            assert _exact(e.mul(a, b), ref_mul(e, a, b))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_inverse_and_powers_match_fraction_loops(name):
    e = ALGEBRAS[name]
    for a in _elements(e, 3, count=4):
        assert _exact(e.power(a, 0), ref_one(e))
        for k in (1, 2, 5):
            assert _exact(e.power(a, k), ref_power(e, a, k))
        try:
            inv = ref_inverse(e, a)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                e.inverse(a)
            continue
        assert _exact(e.inverse(a), inv)
        for k in (-1, -3):
            assert _exact(e.power(a, k), ref_power(e, a, k))


def test_integer_coordinates_are_accepted():
    e = ALGEBRAS["cubic-sublattice"]
    a, b = (1, -2, 3), (0, 4, -1)
    fa, fb = tuple(map(Fraction, a)), tuple(map(Fraction, b))
    assert _exact(e.mul(a, b), ref_mul(e, fa, fb))
    assert _exact(e.regular_rep(a), ref_regular_rep(e, fa))
    assert _exact(e.to_power(a), ref_to_power(e, fa))
