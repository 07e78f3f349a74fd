import random
from fractions import Fraction
from operator import add

import pytest

from ampletori import linalg
from ampletori.errors import UnsupportedError
from ampletori.etale import EtaleAlgebra, coordinates, element
from ampletori.polynomials import QPoly

from oracles import as_fractions, fraction_matrix, oracle_mat_inv, oracle_mat_mul

CUBIC = EtaleAlgebra([QPoly([-1, 1, 0, 1])])
GAUSS = EtaleAlgebra([QPoly([1, 0, 1])])
QUARTIC = EtaleAlgebra([QPoly([1, -16, 20, -8, 1])])
PRODUCT = EtaleAlgebra([QPoly([1, 0, 1]), QPoly([-2, 0, 1])])  # Q(i) x Q(sqrt2)


def test_regular_rep_cubic_generator_is_paper_matrix():
    g = CUBIC.regular_rep(CUBIC.generator(0))
    assert g == linalg.matrix([[0, 0, 1], [1, 0, -1], [0, 1, 0]])


def test_regular_rep_gauss_i():
    assert GAUSS.regular_rep(GAUSS.generator(0)) == linalg.matrix([[0, -1], [1, 0]])


def test_regular_rep_of_one_is_identity():
    for e in (CUBIC, GAUSS, QUARTIC, PRODUCT):
        assert e.regular_rep(e.one()) == linalg.identity(e.n)


def test_norm_trace_examples():
    # norms and traces are rationals (num, den) in lowest terms
    assert GAUSS.norm(GAUSS.generator(0)) == (1, 1)
    assert CUBIC.norm(CUBIC.generator(0)) == (1, 1)  # det of the companion matrix
    g = element([Fraction(4, 5), Fraction(3, 5)])
    assert GAUSS.norm(g) == (1, 1)
    assert GAUSS.norm(element([Fraction(1, 2), 0])) == (1, 4)
    assert GAUSS.trace(element([Fraction(3, 4), 5])) == (3, 2)
    assert CUBIC.trace(CUBIC.one()) == (3, 1)
    assert GAUSS.trace(GAUSS.generator(0)) == (0, 1)
    assert CUBIC.trace(CUBIC.generator(0)) == (0, 1)


def test_is_order_witnesses():
    assert CUBIC.is_order() == (True, None)
    bad = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, Fraction(1, 2)]]))
    ok, witness = bad.is_order()
    assert not ok
    assert witness["pair"] == (1, 1) and witness["value"] == "-1/4"
    z2i = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 2]]))
    assert z2i.is_order() == (True, None)


def test_element_integrality():
    assert CUBIC.element_is_integral(CUBIC.generator(0))
    assert not CUBIC.element_is_integral(element([0, Fraction(1, 2), 0]))
    assert not GAUSS.element_is_integral(element([Fraction(4, 5), Fraction(3, 5)]))


def _random_element(rng, e):
    return element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(e.n)])


def _add(a, b):
    return element(list(map(add, coordinates(a), coordinates(b))))


def _rational(pair):
    return Fraction(*pair)


@pytest.mark.parametrize("algebra", [CUBIC, GAUSS, QUARTIC, PRODUCT])
def test_regular_rep_is_ring_homomorphism(algebra):
    rng = random.Random(2026)
    for _ in range(100):
        a = _random_element(rng, algebra)
        b = _random_element(rng, algebra)
        ma, mb = as_fractions(algebra.regular_rep(a)), as_fractions(algebra.regular_rep(b))
        product = as_fractions(algebra.regular_rep(algebra.mul(a, b)))
        assert [list(row) for row in product] == oracle_mat_mul(ma, mb)
        assert as_fractions(algebra.regular_rep(_add(a, b))) == tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(ma, mb)
        )


@pytest.mark.parametrize("algebra", [CUBIC, GAUSS, PRODUCT])
def test_norm_multiplicative_trace_additive(algebra):
    rng = random.Random(7)
    for _ in range(100):
        a = _random_element(rng, algebra)
        b = _random_element(rng, algebra)
        norm = _rational(algebra.norm(algebra.mul(a, b)))
        assert norm == _rational(algebra.norm(a)) * _rational(algebra.norm(b))
        trace = _rational(algebra.trace(_add(a, b)))
        assert trace == _rational(algebra.trace(a)) + _rational(algebra.trace(b))


@pytest.mark.parametrize("algebra", [CUBIC, GAUSS, QUARTIC])
def test_charpoly_of_generator_is_defining_polynomial(algebra):
    assert algebra.charpoly(algebra.generator(0)) == algebra.factors[0]


def test_charpoly_of_a_non_integral_element_is_refused():
    with pytest.raises(ValueError, match="not integral"):
        GAUSS.charpoly(element([Fraction(3, 5), Fraction(4, 5)]))  # (3 + 4i)/5, of norm 1
    assert GAUSS.charpoly(element([3, 4])) == QPoly([25, -6, 1])


def test_basis_change_conjugates_inside_glnz():
    # same order, new Z-basis U·B: representations conjugate by one
    # unimodular matrix for every element simultaneously
    rng = random.Random(31)
    e = CUBIC
    u = fraction_matrix([[1, 2, 0], [0, 1, -3], [0, 0, 1]])  # unimodular
    e2 = EtaleAlgebra(e.factors, linalg.matrix(oracle_mat_mul(u, as_fractions(e.order_basis))))
    conj = tuple(zip(*oracle_mat_inv(u)))
    conj_inv = oracle_mat_inv(conj)
    for _ in range(25):
        a_power = element([rng.randint(-9, 9) for _ in range(e.n)])
        m1 = as_fractions(e.regular_rep(e.from_power(a_power)))
        m2 = as_fractions(e2.regular_rep(e2.from_power(a_power)))
        assert [list(row) for row in m2] == oracle_mat_mul(oracle_mat_mul(conj, m1), conj_inv)
        assert all(x.denominator == 1 for row in conj + conj_inv for x in row)


def test_product_algebra_structure():
    import sympy

    assert PRODUCT.n == 4
    # norm is the product of the factor norms, each Res(f_k, a_k) by sympy
    x = sympy.Symbol("x")
    a = PRODUCT.from_power(element([1, 2, 3, 1]))
    ints, den = PRODUCT.to_power(a)
    norms = [
        sympy.resultant(
            sympy.Poly(f.coeffs[::-1], x),
            sympy.Poly([sympy.Rational(c, den) for c in ints[off : off + d]][::-1], x),
        )
        for f, off, d in zip(PRODUCT.factors, PRODUCT.offsets, PRODUCT.degrees)
    ]
    assert norms == [5, 7]  # N(1 + 2i), N(3 + √2)
    assert _rational(PRODUCT.norm(a)) == norms[0] * norms[1]


def test_inverse_round_trip():
    a = element([Fraction(4, 5), Fraction(3, 5)])
    inv = GAUSS.inverse(a)
    assert GAUSS.mul(a, inv) == GAUSS.one()


def test_rejects_reducible_factor():
    # the factor is named by its ascending coefficients, not a Python repr
    with pytest.raises(ValueError, match=r"^factor \[1, 2, 1\] is reducible over Q$"):
        EtaleAlgebra([QPoly([1, 2, 1])])


def test_rejects_singular_basis():
    from ampletori.errors import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [2, 0]]))


def test_elements_with_charpoly_examples():
    i, one_plus_i = element([0, 1]), element([1, 1])
    assert GAUSS.elements_with_charpoly(QPoly([1, 0, 1])) == [element([0, -1]), i]
    assert GAUSS.elements_with_charpoly(QPoly([2, -2, 1])) == [element([1, -1]), one_plus_i]
    assert GAUSS.elements_with_charpoly(QPoly([9, -6, 1])) == [element([3, 0])]  # (x − 3)²
    # (x − 1)(x − 2) is squarefree and reducible: no field element has it
    assert GAUSS.elements_with_charpoly(QPoly([2, -3, 1])) == []
    # x² + 3 splits in Q(√−3), not in Q(i)
    assert GAUSS.elements_with_charpoly(QPoly([3, 0, 1])) == []
    z2i = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 2]]))
    # ±i = ±(1/2)·2i lie outside the order: sorted as rationals
    assert z2i.elements_with_charpoly(QPoly([1, 0, 1])) == [
        element([0, Fraction(-1, 2)]),
        element([0, Fraction(1, 2)]),
    ]


def test_elements_with_charpoly_rejects_bad_input():
    with pytest.raises(ValueError):
        GAUSS.elements_with_charpoly(QPoly([Fraction(1, 2), 0, 1]))
    with pytest.raises(ValueError):
        GAUSS.elements_with_charpoly(QPoly([1, 0, 0, 1]))
    with pytest.raises(UnsupportedError):
        PRODUCT.elements_with_charpoly(QPoly([1, 0, 0, 0, 1]))


@pytest.mark.parametrize(
    "coeffs, basis",
    [
        ([-3, 0, 1], None),
        ([-1, -1, 0, 1], None),
        ([1, -16, 20, -8, 1], None),  # V4
        ([-2, 0, 0, 0, 1], None),  # D4
        ([1, -1, 1, 0, 1], None),  # S4
        ([1, 0, 1], linalg.matrix([[1, 0], [0, 2]])),  # Z[2i]
    ],
)
def test_elements_with_charpoly_find_every_box_element(coeffs, basis):
    # each sampled order element is among those returned for its charpoly,
    # and everything returned has that charpoly
    e = EtaleAlgebra([QPoly(coeffs)], basis)
    rng = random.Random(sum(coeffs))
    for _ in range(12):
        beta = element([rng.randint(-3, 3) for _ in range(e.n)])
        g = e.charpoly(beta)
        found = e.elements_with_charpoly(g)
        assert beta in found
        assert all(e.charpoly(b) == g for b in found)
        assert len(found) <= e.n
