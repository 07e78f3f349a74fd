"""Étale algebras over Q: products of number fields with a fixed order basis.

An algebra is a product E = ∏ Q[x]/(f_k) of number fields given by monic
irreducible integral polynomials, together with an invertible matrix whose
rows express a Z-basis of an order O ⊂ E in the concatenated power bases.
Elements are coordinate vectors in the order basis, so integrality of an
element is integrality of its coordinates. The regular representation sends
an element to the matrix of multiplication-by-it in the order basis; all the
explicit matrices downstream come from this map.

An element has one integer form, `Coords` = (ints, den): coordinates ints/den
in lowest terms, den > 0, as in linalg's IntMat, so == and hash are value
equality; a norm or trace is (num, den) in lowest terms. The ring operations
run on Python integers, and `element` and `coordinates` convert from and to
rational coordinates where a value enters or leaves the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .errors import NotAnOrderError, SingularMatrixError, UnsupportedError
from .linalg import IntMat, IntVec, _int_vec, _ratio_str
from .polynomials import (
    QPoly,
    _linear_product,
    _mul_mod_monic,
    _symmetric_residue,
    cauchy_bound,
    discriminant,
    is_irreducible_q,
    padic_roots,
    split_prime,
    squarefree_root,
)

Coords = IntVec  # (ints, den): the coordinates ints/den in lowest terms


def element(coords: Sequence) -> Coords:
    """The integer form of rational (or integer) coordinates."""
    ints, den = linalg._integer_form(coords)  # lcm of reduced denominators: in lowest terms
    return tuple(ints), den


def coordinates(a: Coords) -> tuple[Fraction, ...]:
    """The rational coordinates of an element, as Fractions."""
    return tuple(Fraction(x, a[1]) for x in a[0])


def sorted_elements(elements, key: Callable = tuple) -> list[Coords]:
    """The elements sorted by key of their integers over the lcm of their
    denominators: tuples that order as the rational coordinates do."""
    den = math.lcm(*[d for _, d in elements])
    return sorted(elements, key=lambda a: key(tuple(x * (den // a[1]) for x in a[0])))


class EtaleAlgebra:
    """Product of number fields with an order given by a Z-basis.

    The order basis is an IntMat whose rows are the basis in the power
    bases (linalg.matrix makes one from rational rows), the identity when
    None. Elements are `Coords` (ints, den) in the order basis. The structure
    constants are built once, when the algebra is made, in integers over
    their common denominator D: `_table[i][j]` holds the sparse (k, D·c_k)
    pairs of b_i·b_j = Σ c_k·b_k, and `_traces[i]` is D·Tr(b_i). D is 1
    exactly when the basis products are integral. Algebras with the same
    factors and basis are equal and hash alike, so memos key on them.
    """

    def __init__(
        self,
        factors: Sequence[QPoly | Sequence],
        order_basis: IntMat | None = None,
    ):
        self.factors: tuple[QPoly, ...] = tuple(
            f if isinstance(f, QPoly) else QPoly(f) for f in factors
        )
        if not self.factors:
            raise ValueError("an etale algebra needs at least one factor")
        for f in self.factors:
            if f.degree < 1 or not f.is_monic():
                raise ValueError(f"factor {f!r} must be monic integral of degree >= 1")
            if not is_irreducible_q(f):
                raise ValueError(f"factor {f!r} is reducible over Q")
        self.degrees = tuple(f.degree for f in self.factors)
        self.n = n = sum(self.degrees)
        self.offsets = []
        off = 0
        for d in self.degrees:
            self.offsets.append(off)
            off += d
        self.order_basis: IntMat = linalg.identity(n) if order_basis is None else order_basis
        rows = self.order_basis[0]
        if len(rows) != n or len(rows[0]) != n:
            raise ValueError("order basis must be n x n")
        # coordinates are rows, so to_power and from_power apply the transposes
        self._basis_int = linalg.transpose(self.order_basis)
        # what == and hash compare: the factors' coefficients and the basis's IntMat
        self._key = (tuple(f.coeffs for f in self.factors), self._basis_int)
        try:
            self._inv_int = linalg._int_inv(self._basis_int)
        except SingularMatrixError:
            raise SingularMatrixError("order basis matrix is singular") from None
        (cols, bden), (inv, iden) = self._basis_int, self._inv_int
        basis = list(zip(*cols))  # the basis rows times bden
        prods = [self._mul_power(bi, bj) for bi in basis for bj in basis]
        # the order coordinates of b_i·b_j at row i·n + j, over one D
        cells, self._den = linalg._int_mul((prods, bden**2), (tuple(zip(*inv)), iden))
        self._table = [
            [[(k, c) for k, c in enumerate(cells[i * n + j]) if c] for j in range(n)]
            for i in range(n)
        ]
        self._traces = [sum(cells[i * n + j][j] for j in range(n)) for i in range(n)]
        self._one = self.from_power(([int(k in self.offsets) for k in range(n)], 1))

    # -- coordinates ---------------------------------------------------------
    def to_power(self, coords: Coords) -> Coords:
        """Order-basis coordinates -> concatenated power-basis coordinates."""
        return linalg._int_mat_vec(self._basis_int, coords)

    def from_power(self, power: Coords) -> Coords:
        return linalg._int_mat_vec(self._inv_int, power)

    def one(self) -> Coords:
        return self._one

    def generator(self, k: int = 0) -> Coords:
        """The image of x in factor k, as an element of E (zero elsewhere)."""
        f = self.factors[k]
        power = [0] * self.n
        if f.degree == 1:
            power[self.offsets[k]] = -f.coeffs[0]  # x = root of monic linear
        else:
            power[self.offsets[k] + 1] = 1
        return self.from_power((power, 1))

    # -- ring structure ------------------------------------------------------
    def _mul_power(self, p1: Sequence, p2: Sequence) -> tuple:
        """The product of two power-basis coordinate vectors, integer or rational."""
        out = []
        for f, off, d in zip(self.factors, self.offsets, self.degrees):
            out.extend(_mul_mod_monic(p1[off : off + d], p2[off : off + d], f.coeffs))
        return tuple(out)

    def mul(self, a: Coords, b: Coords) -> Coords:
        (a, da), (b, db) = a, b
        out = [0] * self.n
        for ai, row in zip(a, self._table):
            if ai:
                for bj, pairs in zip(b, row):
                    if bj:
                        c = ai * bj
                        for k, t in pairs:
                            out[k] += c * t
        return _int_vec(out, self._den * da * db)

    def power(self, a: Coords, k: int) -> Coords:
        if k < 0:
            return self.power(self.inverse(a), -k)
        result, base = self.one(), a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inverse(self, a: Coords) -> Coords:
        """The solution x of π(a)·x = 1; a zero divisor raises SingularMatrixError."""
        (rows, den), (one, one_den), n = self._int_rep(a), self._one, self.n
        # [R | den·1] for π(a) = R/den; its d·RREF is d·[I | den·R⁻¹·1]
        scaled, pivots, d = linalg._int_rref([[*row, den * c] for row, c in zip(rows, one)], n + 1)
        if pivots != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return _int_vec([row[n] for row in scaled], d * one_den)

    # -- the regular representation ------------------------------------------
    def _int_rep(self, a: Coords) -> IntMat:
        """The matrix of multiplication-by-a, column j the coordinates of
        a·b_j, in linalg's integer form."""
        a, da = a
        m = [[0] * self.n for _ in range(self.n)]
        for ai, row in zip(a, self._table):
            if ai:
                for j, pairs in enumerate(row):
                    for k, t in pairs:
                        m[k][j] += ai * t
        return linalg._int_form(m, da * self._den)

    regular_rep = _int_rep  # the public name: column j holds the coordinates of a·b_j

    def norm(self, a: Coords) -> tuple[int, int]:
        rows, den = self._int_rep(a)
        (num,), den = _int_vec([linalg._det([list(row) for row in rows])], den**self.n)
        return num, den

    def trace(self, a: Coords) -> tuple[int, int]:
        (num,), den = _int_vec([sum(x * t for x, t in zip(a[0], self._traces))], a[1] * self._den)
        return num, den

    def charpoly(self, a: Coords) -> QPoly:
        """det(t − π(a)) for a integral over Z; ValueError for any other a."""
        cp = linalg.integral_charpoly(self._int_rep(a))
        if cp is None:
            raise ValueError("element is not integral: its characteristic polynomial is not")
        return QPoly(cp)

    def elements_with_charpoly(self, g: QPoly) -> list[Coords]:
        """Every β in the field K = Q[x]/(f) whose characteristic polynomial is g.

        g is monic integral of degree n, so β is integral, and D·β = H(x)
        with H ∈ Z[x] of degree < n for D = |disc f| (O_K ⊂ Z[x]/f′(x), and
        D/f′(x) ∈ Z[x]). g is g₀^m for β's minimal polynomial g₀, which is
        squarefree (`squarefree_root`); no β has g when g is no such power. At
        p = split_prime(f, ·), with p ∤ disc g₀, f has n simple roots rᵢ in
        Z_p, and β's images yᵢ = H(rᵢ)/D are the roots of g with their
        multiplicities; H is the Lagrange interpolant of D·yᵢ at the rᵢ. Over
        C the same sum bounds H's coefficients: D/f′(αᵢ) = ±∏_{j≠i} f′(αⱼ),
        so |H_k| ≤ M = n·B_g·F^(n−1)·(1 + B_f)^(n−1), with B_f, B_g Cauchy
        root bounds of f, g and F = Σ k·|f_k|·B_f^(k−1) ≥ |f′(αᵢ)|. Every
        arrangement of the yᵢ is interpolated modulo p^k > 2M, read in
        (−p^k/2, p^k/2], and kept when it is within M and charpoly(β) = g
        holds exactly, compared in integers (Acciaro–Klüners, Math. Comp.
        68, 1999). Order-basis integer forms, sorted as rationals; single
        field factor only.
        """
        if self.num_factors != 1:
            raise UnsupportedError("elements_with_charpoly needs a single field factor")
        f, n = self.factors[0], self.n
        if g.degree != n or not g.is_monic():
            raise ValueError(f"{g!r} is not monic integral of degree {n}")
        root = squarefree_root(g)
        if root is None:
            return []  # a field element's charpoly is a power of its minimal polynomial
        g0, m = root
        p = split_prime(f) if g0 == f else split_prime(f, discriminant(g0))
        bf, bg = cauchy_bound(f), cauchy_bound(g)
        fprime = sum(k * abs(c) * bf ** (k - 1) for k, c in enumerate(f.coeffs) if k)
        bound, q = n * bg * fprime ** (n - 1) * (1 + bf) ** (n - 1), p
        while q <= 2 * bound:
            q *= p
        roots = padic_roots(f, p, q)
        targets = roots if g0 == f else padic_roots(g0, p, q)
        if len(targets) < g0.degree:
            return []  # g₀ does not split at p, but every conjugate of β lies in Z_p
        d = abs(discriminant(f))
        lagrange = []  # D·∏_{j≠i} (x − r_j)/(r_i − r_j) mod q
        for i, ri in enumerate(roots):
            others = roots[:i] + roots[i + 1 :]
            scale = d * pow(math.prod(ri - rj for rj in others), -1, q)
            lagrange.append([a * scale % q for a in _linear_product(others, q)])
        out = []
        for ys in sorted(set(itertools.permutations(targets * m))):
            h = [_symmetric_residue(sum(y * b[k] for y, b in zip(ys, lagrange)), q) for k in range(n)]
            if max(map(abs, h)) > bound:
                continue
            beta = self.from_power((h, d))
            if linalg.integral_charpoly(self._int_rep(beta)) == list(g.coeffs):
                out.append(beta)
        return sorted_elements(out)

    def element_is_integral(self, a: Coords) -> bool:
        """True iff π(a) is an integer matrix (coordinate integrality for orders)."""
        return self._int_rep(a)[1] == 1

    # -- order verification ----------------------------------------------------
    def is_order(self) -> tuple[bool, dict | None]:
        """Check 1 ∈ Z-span(basis) and closure of the basis under products.

        Returns (True, None) or (False, witness) where the witness names the
        offending pair and its non-integral coordinate, its value "p/q" text.
        """
        ints, one_den = self._one
        for k, c in enumerate(ints):
            if c % one_den:
                value, reason = _ratio_str(c, one_den), "1 not in Z-span"
                return False, {"pair": None, "coordinate": k, "value": value, "reason": reason}
        den = self._den
        if den == 1:
            return True, None
        for i in range(self.n):
            for j in range(i, self.n):
                for k, c in self._table[i][j]:
                    if c % den:
                        return False, {
                            "pair": (i, j),
                            "coordinate": k,
                            "value": _ratio_str(c, den),
                            "reason": f"b_{i}*b_{j} has non-integral coordinate",
                        }
        return True, None

    def require_order(self):
        ok, witness = self.is_order()
        if not ok:
            raise NotAnOrderError(f"basis is not an order: {witness['reason']}", witness)

    @property
    def num_factors(self) -> int:
        return len(self.factors)

    def __eq__(self, other):
        return isinstance(other, EtaleAlgebra) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"EtaleAlgebra(factors={list(self.factors)!r}, n={self.n})"

