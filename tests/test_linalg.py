import random
from fractions import Fraction

import pytest

from ampletori import linalg
from ampletori.errors import SingularMatrixError

from oracles import (
    as_fractions,
    fraction_matrix,
    oracle_det,
    oracle_intersect_row_spaces,
    oracle_mat_mul,
    oracle_mat_trace,
    oracle_mat_vec,
    oracle_rref,
    oracle_solve,
    vector,
)


def _rand_int_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_det_bareiss_matches_fraction_gaussian():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = _rand_int_matrix(rng, n, n)
        assert linalg.int_det(a) == oracle_det(fraction_matrix(a))


def test_inverse_and_solve():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = _rand_int_matrix(rng, n, n)
        m = fraction_matrix(a)
        if oracle_det(m) == 0:
            with pytest.raises(SingularMatrixError):
                linalg._int_inv(linalg.matrix(a))
            continue
        inv = linalg._int_inv(linalg.matrix(a))
        assert oracle_mat_mul(m, as_fractions(inv)) == [[int(i == j) for j in range(n)] for i in range(n)]
        # the integer inverse applied to b, in the integer form (ints, den)
        b = [rng.randint(-9, 9) for _ in range(n)]
        ints, den = linalg._int_mat_vec(inv, (tuple(b), 1))
        assert oracle_mat_vec(m, [Fraction(x, den) for x in ints]) == vector(b)


def test_charpoly_trace_and_det():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = _rand_int_matrix(rng, n, n)
        rows, den = linalg.matrix(a)
        cp = linalg._berkowitz(rows)  # den = 1, so det(tI − a) itself
        assert den == 1 and linalg.integral_charpoly((rows, den)) == cp
        assert cp[n] == 1
        assert cp[n - 1] == -oracle_mat_trace(a)
        assert cp[0] == (-1) ** n * oracle_det(fraction_matrix(a))


def test_kernel_basis():
    rng = random.Random(4)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = _rand_int_matrix(rng, rows, cols)
        kernel = linalg._int_kernel([list(row) for row in a], cols)
        assert len(kernel) == cols - len(oracle_rref(a))
        for v in kernel:
            assert all(x == 0 for x in oracle_mat_vec(a, vector(v)))


def _square_basis_contains(basis_rows, vectors):
    """Every vector is an integer combination of the square basis rows."""
    for v in vectors:
        try:
            sol = oracle_solve(list(zip(*basis_rows)), vector(v))
        except SingularMatrixError:
            return False
        if not all(x.denominator == 1 for x in sol):
            return False
    return True


def test_hnf_preserves_lattice_and_is_unimodular():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = rng.randint(n, n + 3)
        a = _rand_int_matrix(rng, rows, n)
        h, u = linalg.hnf_rows(a)
        # U unimodular with U*A = H proves L(H) = L(A) as row lattices
        assert abs(linalg.int_det(u)) == 1
        assert oracle_mat_mul(u, a) == [list(row) for row in h]
        nonzero = [r for r in h if any(r)]
        if len(oracle_rref(a)) == n and len(nonzero) == n:
            # and concretely: every original row solves integrally in it
            assert _square_basis_contains(nonzero, [r for r in a])


def test_snf_transforms_and_divisibility():
    rng = random.Random(6)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = _rand_int_matrix(rng, rows, cols)
        d, u, v = linalg.snf_with_transforms(a)
        assert abs(linalg.int_det(u)) == 1 and abs(linalg.int_det(v)) == 1
        assert oracle_mat_mul(oracle_mat_mul(u, a), v) == [list(row) for row in d]
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[i] and diag[j]:
                    assert diag[j] % diag[i] == 0
            if diag[i] == 0:
                assert all(x == 0 for x in diag[i:])
        # off-diagonal entries vanish
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_int_kernel_basis():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = _rand_int_matrix(rng, rows, cols, -5, 5)
        kernel = linalg.int_kernel_basis(a)
        assert len(kernel) == cols - len(oracle_rref(a))
        for vec in kernel:
            for row in a:
                assert sum(x * y for x, y in zip(row, vec)) == 0


def test_intersect_row_spaces():
    # the reference that the torus ranks are tested against
    a = [vector([1, 0, 0]), vector([0, 1, 0])]
    b = [vector([0, 1, 0]), vector([0, 0, 1])]
    inter = oracle_intersect_row_spaces(a, b)
    assert len(inter) == 1
    assert inter[0][0] == 0 and inter[0][2] == 0
    rng = random.Random(8)
    for _ in range(20):
        dim = rng.randint(1, 5)
        a = [vector([rng.randint(-4, 4) for _ in range(dim)]) for _ in range(rng.randint(0, 3))]
        b = [vector([rng.randint(-4, 4) for _ in range(dim)]) for _ in range(rng.randint(0, 3))]
        inter = oracle_intersect_row_spaces(a, b)
        scaled, _, d = linalg._int_rref([linalg._integer_form(row)[0] for row in inter], dim)
        assert inter == [tuple(Fraction(x, d) for x in row) for row in scaled]  # in RREF
        ra, rb = len(oracle_rref(a)), len(oracle_rref(b))
        sum_rank = len(oracle_rref(list(a) + list(b)))
        assert len(inter) == ra + rb - sum_rank
