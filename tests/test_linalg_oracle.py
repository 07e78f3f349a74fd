"""Differential tests of the exact elimination core against sympy.Matrix.

sympy is a test-only oracle (the `test` extra in pyproject.toml); the
library never imports it. Every case is seeded and compared exactly.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy import ZZ
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors

from ampletori import linalg
from ampletori.errors import SingularMatrixError

from oracles import as_fractions, fraction_matrix, oracle_mat_vec, vector

DENOMINATORS = (1, 1, 1, 2, 3, 5, 12)
SQUARE = [(n, n) for n in range(1, 6)]
TALL = [(4, 1), (5, 2), (6, 3), (6, 4)]
WIDE = [(1, 4), (2, 5), (3, 6)]
KINDS = ("full", "low-rank", "zero-row", "zero-column")
EMPTY = [(), ((),), ((), (), ())]


def _entry(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def _random_matrix(rng, rows, cols, kind):
    """Mixed denominators and signs; `low-rank` has rank below min(rows, cols)."""
    if kind == "low-rank":
        k = rng.randint(0, min(rows, cols) - 1)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        right = [[_entry(rng) for _ in range(cols)] for _ in range(k)]
        m = [
            [sum((row[t] * right[t][j] for t in range(k)), Fraction(0)) / rng.choice(DENOMINATORS)
             for j in range(cols)]
            for row in left
        ]
    else:
        m = [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero-row":
        m[rng.randrange(rows)] = [0] * cols
    elif kind == "zero-column":
        c = rng.randrange(cols)
        for row in m:
            row[c] = 0
    return fraction_matrix(m)


def _cases(shapes, seed):
    rng = random.Random(seed)
    return [
        _random_matrix(rng, rows, cols, kind)
        for rows, cols in shapes
        for kind in KINDS
        for _ in range(3)
    ]


def _sym(a):
    ncols = len(a[0]) if a else 0
    return sympy.Matrix(
        len(a), ncols, [sympy.Rational(x.numerator, x.denominator) for row in a for x in row]
    )


def _q(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _from_sym(s):
    return tuple(tuple(_q(s[i, j]) for j in range(s.cols)) for i in range(s.rows))


def _det(a) -> Fraction:
    """det a, from the integer determinant of a's integer form."""
    rows, den = linalg.matrix(a)
    return Fraction(linalg._det([list(row) for row in rows]), den ** len(rows))


def _int_rows(a) -> list[list[int]]:
    """Each row of a rational matrix times the lcm of its denominators."""
    return [linalg._integer_form(row)[0] for row in a]


@pytest.mark.parametrize("a", _cases(SQUARE + TALL + WIDE, 11) + EMPTY)
def test_rref_and_rank_match_sympy(a):
    # the integer d·RREF of the rows scaled to integers, over d, is the RREF
    ncols = len(a[0]) if a else 0
    scaled, pivots, d = linalg._int_rref(_int_rows(a), ncols)
    expected, expected_pivots = _sym(a).rref()
    assert pivots == list(expected_pivots)
    reduced = tuple(tuple(Fraction(x, d) for x in row) for row in scaled)
    assert reduced + ((Fraction(0),) * ncols,) * (len(a) - len(pivots)) == _from_sym(expected)
    assert all(type(x) is int for row in scaled for x in row)
    assert len(pivots) == _sym(a).rank()


@pytest.mark.parametrize("a", _cases(SQUARE, 12) + [()])
def test_det_and_inverse_match_sympy(a):
    s = _sym(a)
    det = _q(s.det())
    assert _det(a) == det
    if det == 0:
        with pytest.raises(SingularMatrixError):
            linalg._int_inv(linalg.matrix(a))
    else:
        assert as_fractions(linalg._int_inv(linalg.matrix(a))) == _from_sym(s.inv())


def test_int_det_matches_sympy():
    rng = random.Random(13)
    for n in range(7):
        for rank in range(n + 1):
            if rank == n:
                a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            else:  # the product of n×rank and rank×n factors
                left = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(n)]
                right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rank)]
                a = [
                    [sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(n)]
                    for i in range(n)
                ]
            assert linalg.int_det(a) == sympy.Matrix(n, n, [x for row in a for x in row]).det()


@pytest.mark.parametrize("a", _cases(SQUARE, 16) + [()])
def test_charpoly_matches_sympy(a):
    # rational, singular (low-rank, zero row or column), 1×1 to 5×5 and 0×0:
    # coefficient k of _berkowitz(rows) is den^(n−k) times that of det(tI − a)
    rows, den = linalg.matrix(a)
    n = len(rows)
    expected = [_q(c) for c in reversed(_sym(a).charpoly().all_coeffs())]
    assert linalg._berkowitz(rows) == [den ** (n - k) * c for k, c in enumerate(expected)]
    integral = all(c.denominator == 1 for c in expected)
    assert linalg.integral_charpoly((rows, den)) == (expected if integral else None)


@pytest.mark.parametrize("a", _cases(SQUARE + TALL + WIDE, 14) + EMPTY)
def test_kernel_matches_sympy_nullspace(a):
    ncols = len(a[0]) if a else 0
    kernel = linalg._int_kernel(_int_rows(a), ncols)
    expected = _sym(a).nullspace() if a else []
    assert len(kernel) == len(expected)
    for v in kernel:
        assert all(x == 0 for x in oracle_mat_vec(a, vector(v)))
    # sympy's basis is the normal form, 1 at each free column in turn; ours
    # is that form times a positive integer
    free = [c for c in range(ncols) if c not in _sym(a).rref()[1]]
    for v, w, fc in zip(kernel, expected, free):
        assert v[fc] > 0 and list(v) == [v[fc] * _q(x) for x in w]
    if kernel:
        ours = _sym(kernel)
        theirs = sympy.Matrix.hstack(*expected).T
        assert ours.rank() == len(kernel)
        assert sympy.Matrix.vstack(ours, theirs).rank() == len(kernel)
    assert all(len(v) == ncols for v in kernel)


@pytest.mark.parametrize("a", _cases(SQUARE, 15))
def test_inverse_applied_to_a_vector_solves_like_sympy(a):
    # the integer inverse applied to b, as EtaleAlgebra.inverse applies it to 1
    rng = random.Random(repr(a))
    x = vector([_entry(rng) for _ in range(len(a))])
    b = oracle_mat_vec(a, x)
    ia = linalg.matrix(a)
    if _sym(a).rank() < len(a):
        with pytest.raises(SingularMatrixError):
            linalg._int_inv(ia)
        return
    form = lambda v: linalg._int_vec(*linalg._integer_form(v))  # noqa: E731
    assert linalg._int_mat_vec(linalg._int_inv(ia), form(b)) == form(x)


# ---------------------------------------------------------------------------
# the private integer form (rows, den) against sympy
# ---------------------------------------------------------------------------

S_DENOMINATORS = (1, 1, 1, 5, 25, 125, 2)  # 1 and powers of S = {5}, with one outsider


def _s_cases(seed):
    """Square pairs with mixed S-power denominators: full, low-rank, zero-row."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice(S_DENOMINATORS))

    out = []
    for n in range(1, 5):
        for kind in ("full", "low-rank", "zero-row"):
            a = [[entry() for _ in range(n)] for _ in range(n)]
            if kind == "low-rank" and n > 1:
                a[-1] = [2 * x - y for x, y in zip(a[0], a[-2])]
            elif kind == "zero-row":
                a[rng.randrange(n)] = [0] * n
            b = [[entry() for _ in range(n)] for _ in range(n)]
            out.append((fraction_matrix(a), fraction_matrix(b)))
    return out


def _is_int_form(m) -> bool:
    rows, den = m
    return den > 0 and math.gcd(den, *[x for row in rows for x in row]) == 1


IDENTITY_AND_ZERO = (fraction_matrix(linalg.identity(3)[0]), fraction_matrix([[0] * 3] * 3))


@pytest.mark.parametrize("a, b", _s_cases(21) + [IDENTITY_AND_ZERO])
def test_int_form_product_inverse_det_match_sympy(a, b):
    ia, ib = linalg.matrix(a), linalg.matrix(b)
    assert _is_int_form(ia) and _is_int_form(ib)
    assert as_fractions(ia) == a
    product = _from_sym(_sym(a) * _sym(b))
    got = linalg._int_mul(ia, ib)
    # the form is canonical: equal matrices give equal forms
    assert _is_int_form(got) and got == linalg.matrix(product)
    assert as_fractions(got) == product
    det = _q(_sym(a).det())
    assert _det(a) == det
    if det == 0:
        with pytest.raises(SingularMatrixError):
            linalg._int_inv(ia)
    else:
        inv = linalg._int_inv(ia)
        assert _is_int_form(inv) and as_fractions(inv) == _from_sym(_sym(a).inv())
        assert linalg._int_mul(ia, inv) == linalg.identity(len(a))
    assert (ia == ib) == (a == b)


def test_int_form_equality_ignores_how_the_matrix_was_scaled():
    assert linalg.matrix([[Fraction(2, 5), 0], [0, Fraction(4, 25)]]) == (((10, 0), (0, 4)), 25)
    assert linalg._int_form([[20, 0], [0, 8]], -50) == (((-10, 0), (0, -4)), 25)
    assert linalg.matrix([[0, 0], [0, 0]]) == (((0, 0), (0, 0)), 1)
    assert linalg.matrix([[Fraction(1, 2), 1], [Fraction(3, 4), -2]]) == (((2, 4), (3, -8)), 4)


# ---------------------------------------------------------------------------
# integer lattices: row HNF and SNF against sympy
# ---------------------------------------------------------------------------


def _int_cases(seed):
    rng = random.Random(seed)
    out = []
    for rows, cols in [(1, 1), (2, 2), (2, 3), (3, 3), (3, 2), (4, 4), (4, 3), (3, 5)]:
        a = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        out.append(a)
        if rows > 1:  # a dependent last row, and a zero row
            dep = [r + 2 * s for r, s in zip(a[0], a[1])]
            out.append(a[:-1] + [dep])
            out.append([[0] * cols] + a[1:])
    return out


@pytest.mark.parametrize("a", _int_cases(31))
def test_hnf_rows_matches_sympy(a):
    h, u = linalg.hnf_rows(a)
    s_a, s_u = sympy.Matrix(a), sympy.Matrix(u)
    assert s_u * s_a == sympy.Matrix(h) and abs(s_u.det()) == 1
    # sympy's HNF is column-style from the last row; with the columns of a
    # reversed and the result transposed back it is the row HNF, rows reversed
    flipped = sympy.Matrix([row[::-1] for row in a]).T
    w = hermite_normal_form(flipped).T if any(map(any, a)) else sympy.zeros(0, len(a[0]))
    expected = [tuple(w.row(i))[::-1] for i in range(w.rows)][::-1]
    nonzero = [row for row in h if any(row)]
    assert nonzero == [tuple(int(x) for x in row) for row in expected]
    assert all(not any(row) for row in h[len(nonzero):])


@pytest.mark.parametrize("a", _int_cases(32))
def test_snf_with_transforms_matches_sympy(a):
    d, u, v = linalg.snf_with_transforms(a)
    s_u, s_v = sympy.Matrix(u), sympy.Matrix(v)
    assert s_u * sympy.Matrix(a) * s_v == sympy.Matrix(d)
    assert abs(s_u.det()) == 1 and abs(s_v.det()) == 1
    k = min(len(a), len(a[0]))
    assert all(d[i][j] == 0 for i in range(len(a)) for j in range(len(a[0])) if i != j)
    diagonal = [d[i][i] for i in range(k)]
    expected = list(invariant_factors(sympy.Matrix(a), domain=ZZ))
    assert diagonal == [int(x) for x in expected] + [0] * (k - len(expected))
