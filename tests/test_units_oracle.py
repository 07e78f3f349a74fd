"""Differential tests of the log embedding's two ball bounds against sympy.

A log row is a list of integer balls (m, r), the reals within r of m. A
minor is certified when the integer determinant of its midpoints exceeds
`units._det_radius`, and `units._ball_solve` encloses the solution of
x·A = u for every minor A and row u inside the balls. On zero-radius balls,
`units.find_certified_minor` takes the exact greedy independent rows and
their pivot columns (`linalg._int_rref`). Matrices and vectors
are drawn inside seeded balls, at corners (where the bounds are nearly met)
and inside; sympy is the exact reference (the `test` extra in
pyproject.toml; the library never imports it).
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from ampletori import linalg, units


def _inside(rng, m, r):
    """A rational within r of m: a corner, the centre or a random point."""
    t = rng.choice([Fraction(-1), Fraction(1), Fraction(0), Fraction(rng.randint(-99, 99), 100)])
    return m + t * r


def _exact_det(mat):
    return sympy.Matrix(mat).det(method="bareiss")


def _random_balls(rng, n, mid, rad):
    mids = [[rng.randint(-mid, mid) for _ in range(n)] for _ in range(n)]
    rads = [[rng.randint(0, rad) for _ in range(n)] for _ in range(n)]
    return mids, rads


def _det_cases():
    """Random balls of size 1–5, then sharp ones: M with orthogonal rows
    (2s, s), (−s, 2s) and E along them, where Hadamard's bound is met, for
    s√5 and t√5 just below an integer so that isqrt(·) + 1 is nearly exact."""
    rng = random.Random(20261018)
    for n in range(1, 6):
        for _ in range(30):
            mids, rads = _random_balls(rng, n, rng.choice([3, 1 << 12]), rng.choice([1, 1 << 6]))
            for _ in range(4):
                yield mids, rads, [
                    [_inside(rng, m, r) for m, r in zip(mrow, rrow)]
                    for mrow, rrow in zip(mids, rads)
                ]
    for s, t in itertools.product(range(1, 60), repeat=2):
        mids, rads = [[2 * s, s], [-s, 2 * s]], [[2 * t, t], [t, 2 * t]]
        yield mids, rads, [[2 * (s + t), s + t], [-(s + t), 2 * (s + t)]]


def test_det_radius_bounds_every_determinant_in_the_balls():
    for mids, rads, mat in _det_cases():
        bound = units._det_radius(mids, rads)
        assert abs(_exact_det(mat) - _exact_det(mids)) <= bound, (mids, rads, mat)


def _emb(rows):
    """A log embedding holding the given ball rows."""
    columns = [units.LogColumn("real", 0, j) for j in range(len(rows[0]) if rows else 2)]
    return units.LogEmbedding(columns, rows, 64)


def test_a_certified_minor_has_no_singular_matrix_in_its_balls():
    def minor(rows, limit=None):
        return units.find_certified_minor(_emb(rows), limit)

    # the ball of row 0 at column 0 holds 0, and row 0 is 0 at column 1:
    # row 0 is not taken, and row 1 is, at column 1
    assert minor([[(100, 100), (0, 0)], [(0, 0), (100, 0)]]) == ([1], (1,))
    # row 1 repeats row 0, so it extends no minor
    assert minor([[(100, 0), (100, 0)], [(100, 0), (100, 0)]]) == ([0], (0,))
    assert minor([[(100, 0), (0, 0)], [(0, 0), (100, 0)]]) == ([0, 1], (0, 1))
    # the first certified column pair, in lexicographic order
    rows = [[(0, 0), (500, 1), (0, 0)], [(0, 0), (0, 0), (500, 1)]]
    assert minor(rows) == ([0, 1], (1, 2))
    assert minor(rows, 1) == ([0], (1,))
    assert minor([]) == ([], ())


def _low_rank_rows(rng):
    """Seeded integer rows, some of them combinations of earlier ones and
    some columns zero, so that rows drop out and pivots skip columns."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
    zero = {j for j in range(ncols) if rng.random() < 0.25}
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([0 if j in zero else rng.randint(-3, 3) for j in range(ncols)])
    return rows


def test_certified_minor_is_the_exact_greedy_rows_and_pivot_columns():
    # zero-radius balls on a fine grid: every nonzero determinant certifies,
    # so the routine is exact, and its columns are the pivot columns of the
    # rows' reduced echelon form (the rows taken span the same space)
    rng = random.Random(20261019)
    scale = 1 << 64
    for _ in range(400):
        rows = _low_rank_rows(rng)
        ncols = len(rows[0])
        emb = units.LogEmbedding(
            [units.LogColumn("real", 0, j) for j in range(ncols)],
            [[(scale * x, 0) for x in row] for row in rows],
            64,
        )
        greedy = []
        for i, row in enumerate(rows):
            if sympy.Matrix([rows[k] for k in greedy] + [row]).rank() > len(greedy):
                greedy.append(i)
        _, pivots, _ = linalg._int_rref([list(row) for row in rows], ncols)
        assert units.find_certified_minor(emb) == (greedy, tuple(pivots)), rows


def _solve_cases():
    """Random invertible balls of size 1–4 with small radii, then sharp
    ones: 1×1 balls, where the bound is met at a corner, and diagonal 2×2
    balls with all the radius in one row."""
    rng = random.Random(9)
    for n in range(1, 5):
        for _ in range(40):
            mids, rads = _random_balls(rng, n, 1 << 16, rng.choice([1, 1 << 4]))
            if _exact_det(mids) == 0:
                continue
            u = [(rng.randint(-(1 << 16), 1 << 16), rng.randint(0, 1 << 4)) for _ in range(n)]
            yield mids, rads, u
    for m, r, um, ur in itertools.product((7, -9, 40), (0, 1, 3), (-5, 0, 11), (0, 2)):
        yield [[m]], [[r]], [(um, ur)]
    for m, r in itertools.product((50, -70), (1, 4)):
        yield [[m, 0], [0, 3 * m]], [[r, r], [0, 0]], [(m + 1, 1), (-m, 0)]


def test_minor_inverse_is_the_exact_inverse():
    for mids, rads, _ in _solve_cases():
        rows = [list(zip(mrow, rrow)) for mrow, rrow in zip(mids, rads)]
        adj, d, _, _ = units._minor_inverse(rows, tuple(range(len(mids))))
        inverse = sympy.Matrix(mids).inv()
        assert sympy.Matrix(adj) / d == inverse


def test_ball_solve_encloses_every_solution_in_the_balls():
    rng = random.Random(10)
    solved = 0
    for mids, rads, u in _solve_cases():
        n = len(mids)
        rows = [list(zip(mrow, rrow)) for mrow, rrow in zip(mids, rads)]
        minv = units._minor_inverse(rows, tuple(range(n)))
        got = units._ball_solve(minv, u, tuple(range(n)))
        if got is None:
            continue
        solved += 1
        nums, den, dn, dd = got
        for _ in range(6):
            a = sympy.Matrix([[_inside(rng, m, r) for m, r in row] for row in rows])
            v = sympy.Matrix([[_inside(rng, m, r) for m, r in u]])
            x = v * a.inv()
            for j in range(n):
                assert abs(x[j] - sympy.Rational(nums[j], den)) <= sympy.Rational(dn, dd), (
                    mids, rads, u, j)
    assert solved >= 150


@pytest.mark.parametrize("mids, rads", [([[1]], [[1]]), ([[3, 0], [0, 1]], [[0, 0], [0, 2]])])
def test_ball_solve_misses_when_the_balls_may_be_singular(mids, rads):
    # ‖R‖·‖adj‖ ≥ |d|: some matrix in the balls may be singular, so no answer
    rows = [list(zip(mrow, rrow)) for mrow, rrow in zip(mids, rads)]
    cols = tuple(range(len(mids)))
    minv = units._minor_inverse(rows, cols)
    assert units._ball_solve(minv, [(1, 0)] * len(mids), cols) is None
