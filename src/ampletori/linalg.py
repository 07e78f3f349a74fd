"""Exact linear algebra over Q and over Z, on integers.

Everything here is exact; no floating point is ever used. Every matrix in
the package has one form, the `IntMat` (rows, den): integer rows over one
positive common denominator, gcd(den, entries) = 1, so equal matrices have
equal forms; an `IntVec` (ints, den) is the same form for a vector.
`matrix` makes one from int or Fraction entries, as serialize reads them
where a matrix enters the package; no module here imports `fractions`.
`_int_mul`, `_int_mat_vec`, `_int_inv` and `integral_charpoly` work on
them, and `_mul_rows` multiplies the integer rows alone, for checks that do
not depend on scale.

Elimination is integer-first and has one core, `_echelon`: a fraction-free
(Bareiss) row echelon form of integer rows, read off by `_det`, `_int_rref`
(the integer d·RREF) and `_int_kernel`. A rational matrix enters it as an
IntMat's rows."""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .errors import SingularMatrixError

IntMat = tuple[tuple[tuple[int, ...], ...], int]  # (rows, den)
IntVec = tuple[tuple[int, ...], int]  # (ints, den)


def matrix(rows: Sequence[Sequence]) -> IntMat:
    """The IntMat of a rational matrix, its entries ints or Fractions (any
    value with .numerator and .denominator): den is the lcm of their denominators."""
    if rows and any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    flat, den = _integer_form([x for row in rows for x in row])
    n = len(rows[0]) if rows else 0
    return tuple(tuple(flat[i * n : i * n + n]) for i in range(len(rows))), den


def identity(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1


def transpose(a: IntMat) -> IntMat:
    return tuple(zip(*a[0])), a[1]


def _integer_form(v) -> tuple[list[int], int]:
    """(ints, d) with d the lcm of the denominators of the rationals v and v = ints/d."""
    d = math.lcm(*[x.denominator for x in v])
    return [x.numerator * (d // x.denominator) for x in v], d


def _int_vec(ints, den: int) -> IntVec:
    """ints/den as an IntVec: divided by gcd(den, ints), den made positive."""
    g = math.gcd(den, *ints) * (1 if den > 0 else -1)
    return (tuple(ints), den) if g == 1 else (tuple(x // g for x in ints), den // g)


def _int_form(rows, den: int) -> IntMat:
    """rows/den as an IntMat: divided by gcd(den, entries), den made positive."""
    g = math.gcd(den, *[x for row in rows for x in row]) * (1 if den > 0 else -1)
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def _ratio_str(num: int, den: int) -> str:
    """num/den, den > 0, in lowest terms as "p/q" text, or "p" when q = 1."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _mul_rows(a, b) -> list[list[int]]:
    """The product of integer rows a and b, rows again."""
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _int_mul(a: IntMat, b: IntMat) -> IntMat:
    return _int_form(_mul_rows(a[0], b[0]), a[1] * b[1])


def _int_mat_vec(m: IntMat, v: IntVec) -> IntVec:
    return _int_vec([sum(map(mul, row, v[0])) for row in m[0]], m[1] * v[1])


def _int_inv(a: IntMat) -> IntMat:
    """The inverse, from the integer d·RREF of [rows | I]; raises when singular."""
    rows, den = a
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    scaled, pivots, d = _int_rref(m, 2 * n)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return _int_form([[x * den for x in row[n:]] for row in scaled], d)


def _echelon(m: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of integer rows, in place.

    Returns the pivot columns and the sign of the row permutation. After the
    k-th pivot every entry below it is a (k+1)-minor of the row-permuted
    input, so each division by the previous pivot is exact, and the last
    pivot of a nonsingular square matrix is the sign times its determinant.
    """
    nrows = len(m)
    pivots: list[int] = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if not m[r][c]:
            swap = next((i for i in range(r + 1, nrows) if m[i][c]), None)
            if swap is None:
                continue
            m[r], m[swap] = m[swap], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        right = range(c + 1, ncols)
        for row in m[r + 1:]:
            f = row[c]
            for j in right:
                row[j] = (row[j] * p - f * top[j]) // prev
            row[c] = 0
        prev = p
        pivots.append(c)
    return pivots, sign


def _det(m: list[list[int]]) -> int:
    """Determinant of square integer rows: the last pivot of the echelon."""
    n = len(m)
    if n == 0:
        return 1
    pivots, sign = _echelon(m, n)
    return sign * m[n - 1][n - 1] if len(pivots) == n else 0


def _int_rref(m: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """(d·R, pivots, d): the rank rows of the reduced row echelon form R of
    integer rows m (consumed), back-substituted in integers, d the last pivot."""
    pivots, _ = _echelon(m, ncols)
    r = len(pivots)
    d = m[r - 1][pivots[-1]] if r else 1
    scaled: list[list[int]] = [[]] * r  # d·RREF, filled bottom up
    for k in range(r - 1, -1, -1):
        row = m[k]
        acc = [d * x for x in row]
        for l in range(k + 1, r):
            f, lower = row[pivots[l]], scaled[l]
            if f:
                for j in range(pivots[l], ncols):
                    acc[j] -= f * lower[j]
        p = row[pivots[k]]
        scaled[k] = [x // p for x in acc]
    return scaled, pivots, d


def int_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix, without Fractions."""
    return _det([list(map(int, row)) for row in a])


def _int_kernel(m: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the right kernel {x : m·x = 0} of integer rows m (consumed):
    per free column c of the RREF, the x with 1 at c and 0 at the other free
    columns, times |d| for d the last pivot, a positive integer scale."""
    scaled, pivots, d = _int_rref(m, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = abs(d)
        for row, pc in zip(scaled, pivots):
            v[pc] = -row[fc] if d > 0 else row[fc]
        basis.append(v)
    return basis


class _Span(list):
    """A growing row space: (pivot, primitive integer row) pairs, each row
    zero at the pivots before it."""

    def _reduce(self, v) -> list[int]:
        for p, row in self:
            if f := v[p]:
                v = [x * row[p] - f * y for x, y in zip(v, row)]
        return v

    def add(self, v) -> bool:
        """Insert v; True when it enlarges the span."""
        v = self._reduce(v)
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            g = math.gcd(*v)
            self.append((pivot, [x // g for x in v]))
        return pivot is not None

    def __contains__(self, v) -> bool:
        return not any(self._reduce(v))


def integral_charpoly(a: IntMat) -> list[int] | None:
    """det(tI − a) as ints when its coefficients are integers, else None:
    coefficient k of _berkowitz(rows) must be divisible by den^(n−k)."""
    rows, d = a
    n, coeffs = len(rows), []
    for k, c in enumerate(_berkowitz(rows)):
        q, r = divmod(c, d ** (n - k))
        if r:
            return None
        coeffs.append(q)
    return coeffs


def _berkowitz(m) -> list[int]:
    """det(tI − m) of square integer rows m, ascending coefficients, by
    Berkowitz's division-free algorithm (Inf. Proc. Lett. 18, 1984)."""
    n = len(m)
    poly = [1]  # descending coefficients for the leading r×r block of m
    for r in range(n):
        col, row = [m[i][r] for i in range(r)], m[r][:r]
        toep = [1, -m[r][r]]  # 1, −m_rr, −row·col, −row·M·col, …, M the r×r block
        for _ in range(r):
            toep.append(-sum(map(mul, row, col)))
            col = [sum(map(mul, m[i], col)) for i in range(r)]  # m[i] cut to r by col
        poly = [sum(toep[i - j] * poly[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return poly[::-1]


# ---------------------------------------------------------------------------
# Integer lattice algorithms (row-style HNF, SNF with transforms)
# ---------------------------------------------------------------------------


def hnf_rows(a: Sequence[Sequence[int]]):
    """Row Hermite normal form of an integer matrix.

    Returns (H, U) with U·A = H and U unimodular. Zero rows are moved to the
    bottom; pivots are positive and entries above a pivot are reduced into
    [0, pivot).
    """
    m = [list(map(int, row)) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        # clear column c below row r by gcd steps
        while True:
            nz = [i for i in range(r, nrows) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            if i0 != r:
                m[r], m[i0] = m[i0], m[r]
                u[r], u[i0] = u[i0], u[r]
            if all(m[i][c] == 0 for i in range(r + 1, nrows)):
                break
            for i in range(r + 1, nrows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        if r < nrows and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == nrows:
                break
    return tuple(tuple(row) for row in m), tuple(tuple(row) for row in u)


def snf_with_transforms(a: Sequence[Sequence[int]]):
    """Smith normal form: returns (D, U, V) with U·A·V = D, U, V unimodular."""
    m = [list(map(int, row)) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(nrows, ncols):
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t] != 0:
                add_row(i, t, m[i][t] // m[t][t])
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, ncols):
            if m[t][j] != 0:
                add_col(j, t, m[t][j] // m[t][t])
                dirty = dirty or m[t][j] != 0
        if dirty or any(m[i][t] for i in range(t + 1, nrows)) or any(
            m[t][j] for j in range(t + 1, ncols)
        ):
            continue
        # divisibility sweep: m[t][t] must divide everything below-right
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, -1)  # row_t += row_off; the next column
            # reduction against the pivot leaves a remainder smaller than
            # the pivot, so the smallest-entry selection strictly descends
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (
        tuple(tuple(row) for row in m),
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
    )


def int_kernel_basis(a: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice {x ∈ Z^n : a·x = 0}."""
    if not a:
        return []
    d, _, v = snf_with_transforms(a)
    nrows, ncols = len(a), len(a[0])
    rank_ = sum(1 for i in range(min(nrows, ncols)) if d[i][i] != 0)
    return [tuple(v[i][j] for i in range(ncols)) for j in range(rank_, ncols)]
