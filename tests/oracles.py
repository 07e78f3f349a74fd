"""Independent oracles used to freeze expected test values.

These deliberately avoid the code paths they check: real roots are counted
by recursion on the derivative (between consecutive critical points a
squarefree polynomial is monotone, so sign changes at certified sample
points count roots exactly), with sympy's squarefree part, divisibility by
sympy's division, irreducibility over F_p by exhaustive trial division.
Desk-scale and exact.
"""

from __future__ import annotations

import itertools
import json
import operator
from fractions import Fraction

from ampletori.places import GaloisTag, perm_compose
from ampletori.polynomials import (
    FpPoly,
    QPoly,
    fp_divmod,
    fp_strip,
)
from ampletori.serialize import matrix_to_json


def _sympy_poly(coeffs):
    """sympy's polynomial over QQ of ascending rational coefficients."""
    import sympy

    return sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], sympy.Symbol("x"), domain="QQ")


def _squarefree_part(coeffs) -> list[Fraction]:
    """The squarefree part, by sympy, as ascending Fractions."""
    part = _sympy_poly(coeffs).sqf_part()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(part.all_coeffs())]


def _derivative(g: list[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(g)][1:]


def _value(g: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(g):
        acc = acc * x + c
    return acc


def _cauchy_bound(g: list[Fraction]) -> Fraction:
    return Fraction(1) + max((abs(c) / abs(g[-1]) for c in g[:-1]), default=Fraction(0))


def _lipschitz(g: list[Fraction], radius: Fraction) -> Fraction:
    r = max(Fraction(1), radius)
    return sum((abs(c) * r**i for i, c in enumerate(_derivative(g))), Fraction(0)) + 1


def _separating_points(g: list[Fraction]) -> list[Fraction]:
    """Sample points with g ≠ 0 certified, at most one root of g between
    consecutive ones. One representative per critical point, plus ±bound."""
    m = _cauchy_bound(g)
    if len(g) == 2:
        return [-m, m]
    deriv = _squarefree_part(_derivative(g))
    crit = _isolating_intervals(deriv) if len(deriv) >= 2 else []
    reps = []
    for lo, hi in crit:
        radius = max(m, abs(lo), abs(hi))
        lip = _lipschitz(g, radius)
        dlo = _value(deriv, lo)
        while True:
            mid = (lo + hi) / 2
            if _value(deriv, mid) == 0:
                reps.append(mid)  # the critical point itself; g(mid) != 0
                break
            if abs(_value(g, mid)) > lip * (hi - lo):
                reps.append(mid)
                break
            if dlo * _value(deriv, mid) < 0:
                hi = mid
            else:
                lo, dlo = mid, _value(deriv, mid)
        assert _value(g, reps[-1]) != 0
    bound = max([m] + [abs(r) + 1 for r in reps])
    return sorted([-bound] + reps + [bound])


def oracle_count_real_roots(f: QPoly) -> int:
    """Distinct real roots by monotone bisection between critical points."""
    g = _squarefree_part(f.coeffs)
    if len(g) <= 1:
        return 0
    pts = _separating_points(g)
    signs = []
    for x in pts:
        v = _value(g, x)
        assert v != 0, "oracle sampled a root"
        signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _isolating_intervals(g: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    g = _squarefree_part(g)
    if len(g) <= 1:
        return []
    pts = _separating_points(g)
    out = []
    for a, b in zip(pts, pts[1:]):
        if (_value(g, a) > 0) != (_value(g, b) > 0):
            out.append((a, b))
    return out


def oracle_isolate_real_roots(f: QPoly) -> list[tuple[Fraction, Fraction]]:
    return _isolating_intervals(f.coeffs)


def vector(entries) -> tuple[Fraction, ...]:
    """A vector of Fractions, as the oracles take it."""
    return tuple(Fraction(x) for x in entries)


def fraction_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    """A matrix of Fractions, as the oracles take it."""
    return tuple(vector(row) for row in rows)


def as_fractions(m) -> tuple[tuple[Fraction, ...], ...]:
    """The Fraction rows of linalg's integer form (rows, den)."""
    rows, den = m
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def oracle_mat_trace(a) -> Fraction:
    """Sum of the diagonal entries."""
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def oracle_mat_vec(a, v) -> tuple[Fraction, ...]:
    """a·v by plain Fraction sums."""
    return tuple(sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in a)


def oracle_matrix_is_s_integral(m, s_primes) -> bool:
    """Every entry's denominator is a product of the S-primes."""
    for row in m:
        for x in row:
            d = Fraction(x).denominator
            for p in s_primes:
                while d % p == 0:
                    d //= p
            if d != 1:
                return False
    return True


def oracle_rref(rows) -> list[tuple[Fraction, ...]]:
    """The nonzero rows of the reduced row echelon form, by plain
    Gauss–Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return [tuple(row) for row in m[:r]]


def oracle_solve(a, b) -> tuple[Fraction, ...]:
    """The unique x with a·x = b (square or tall a), by Gauss–Jordan on the
    augmented matrix; SingularMatrixError when there is no unique solution."""
    from ampletori.errors import SingularMatrixError

    ncols = len(a[0]) if a else 0
    reduced = oracle_rref([tuple(row) + (y,) for row, y in zip(a, b)])
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    if pivots != list(range(ncols)):
        raise SingularMatrixError("system has no unique solution")
    return tuple(row[ncols] for row in reduced)


def oracle_mat_inv(a):
    """The inverse, read off the Gauss–Jordan form of [a | I]."""
    n = len(a)
    augmented = [tuple(row) + tuple(int(i == j) for j in range(n)) for i, row in enumerate(a)]
    reduced = oracle_rref(augmented)
    assert len(reduced) == n and all(row[i] == 1 for i, row in enumerate(reduced)), "singular"
    return tuple(row[n:] for row in reduced)


def oracle_intersect_row_spaces(a_rows, b_rows) -> list[tuple[Fraction, ...]]:
    """RREF basis of span(a) ∩ span(b), by Zassenhaus's algorithm: reduce
    [a | a] over [b | 0]; the rows with a zero left half span the
    intersection in their right half."""
    if not a_rows or not b_rows:
        return []
    n = len(a_rows[0])
    stacked = [tuple(v) + tuple(v) for v in a_rows] + [tuple(v) + (0,) * n for v in b_rows]
    right = [row[n:] for row in oracle_rref(stacked) if not any(row[:n])]
    return oracle_rref(right)


def oracle_module_basis(n: int, ambient: str) -> list[tuple[Fraction, ...]]:
    """The cocharacter module of a degree-n torus: Q^n for GL, the zero-sum
    subspace (spanned by e_i − e_{i+1}) for SL."""
    if ambient == "GL":
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    return [tuple(Fraction((j == i) - (j == i + 1)) for j in range(n)) for i in range(n - 1)]


def oracle_isotypic_bases(tag, ambient: str) -> list[tuple[str, list]]:
    """(character name, RREF basis) of each nonzero isotypic component of the
    module: the image of the projector (χ(1)/|G|)·Σ χ(g)·g, where g moves
    coordinate i to g[i]."""
    out = []
    for char in tag.characters:
        images = []
        for v in oracle_module_basis(tag.degree, ambient):
            acc = [Fraction(0)] * tag.degree
            for g, chi in zip(tag.elements, char.values):
                for i, x in enumerate(v):
                    acc[g[i]] += chi * x
            images.append(tuple(Fraction(char.dim, tag.order) * x for x in acc))
        basis = oracle_rref(images)
        if basis:
            out.append((char.name, basis))
    return out


def regular_action(tag: GaloisTag) -> GaloisTag:
    """The same group acting on itself by left multiplication.

    Builds modules with repeated components: the standard rep of S3 appears
    twice in its regular permutation module.
    """
    index = {g: i for i, g in enumerate(tag.elements)}
    perms = tuple(
        tuple(index[perm_compose(g, h)] for h in tag.elements) for g in tag.elements
    )
    return GaloisTag(tag.group + "-regular", perms, tag.characters)


def _permute(g, v) -> tuple[Fraction, ...]:
    """g·v, where g moves coordinate i to g[i]."""
    out = [Fraction(0)] * len(v)
    for i, x in enumerate(v):
        out[g[i]] = x
    return tuple(out)


def oracle_isotypic_copies(tag, ambient: str, name: str, k: int) -> list[tuple[Fraction, ...]]:
    """RREF basis of an explicit G-stable submodule isomorphic to V_χ^k in
    the isotypic part of the rational character χ called name.

    The submodule is a sum of G-spans of vectors (1 + τ)·v, for τ the
    identity or an involution and v a basis vector of the isotypic part:
    for a reflection τ, (1 + τ)·v spans a single copy of a standard
    representation, where v alone may span two. A G-stable subspace of the
    isotypic part has dimension a multiple of dim χ, so a span is added only
    when it adds exactly dim χ, one copy. The result is checked to have
    dimension k·dim χ and to be G-stable.
    """
    char = next(c for c in tag.characters if c.name == name)
    part = dict(oracle_isotypic_bases(tag, ambient)).get(name, [])
    one = tag.elements[0]
    involutions = [g for g in tag.elements if perm_compose(g, g) == one]
    rows: list[tuple[Fraction, ...]] = []
    for v, tau in itertools.product(part, involutions):
        if len(rows) == k * char.dim:
            break
        w = tuple(a + b for a, b in zip(v, _permute(tau, v)))
        grown = oracle_rref(rows + [_permute(g, w) for g in tag.elements])
        if len(grown) == len(rows) + char.dim:
            rows = grown
    assert len(rows) == k * char.dim, (name, k, len(rows))
    moved = [_permute(g, v) for g in tag.elements for v in rows]
    assert len(oracle_rref(rows + moved)) == len(rows), "not G-stable"
    return rows


def oracle_invariants(basis, orbits, n: int) -> list[tuple[Fraction, ...]]:
    """RREF basis of span(basis) ∩ span of the orbit indicator vectors, which
    is the subspace fixed by the group with those orbits."""
    indicators = [tuple(Fraction(int(i in orbit)) for i in range(n)) for orbit in orbits]
    return oracle_intersect_row_spaces(list(basis), indicators)


def oracle_is_unipotent(m) -> bool:
    """All eigenvalues 1, read as (m − I)^n = 0 by plain Fraction products."""
    n = len(m)
    nil = [[Fraction(x) - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    acc = nil
    for _ in range(n - 1):
        acc = [[sum(acc[i][k] * nil[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return not any(x for row in acc for x in row)


def oracle_mat_mul(a, b):
    """a·b by plain Fraction sums."""
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def oracle_s_integral_both_ways(m, s_primes) -> bool:
    """m and its Gauss–Jordan inverse both S-integral; a singular m fails.

    This is the inverse-based S-integrality verdict that group_sanity made
    before it read the verdict off the determinant."""
    if not oracle_det([[Fraction(x) for x in row] for row in m]):
        return False
    return oracle_matrix_is_s_integral(m, s_primes) and oracle_matrix_is_s_integral(
        oracle_mat_inv(m), s_primes
    )


def oracle_semidirect(torus, unis):
    """verify_semidirect pair by pair: t·u·t⁻¹ unipotent (oracle_is_unipotent)
    and in span{u_k − I} (the rank of the flattened rows does not grow).
    Returns (True, None) or (False, first failing (torus index, unipotent index))."""
    def minus_identity(m):
        return tuple(Fraction(x) - (i == j) for i, row in enumerate(m) for j, x in enumerate(row))

    span = [minus_identity(u) for u in unis]
    rank = len(oracle_rref(span))
    for ti, t in enumerate(torus if unis else []):
        if not oracle_det([[Fraction(x) for x in row] for row in t]):
            return False, (ti, 0)  # a singular t has no conjugation
        tinv = oracle_mat_inv(t)
        for ui, u in enumerate(unis):
            conj = oracle_mat_mul(oracle_mat_mul(t, u), tinv)
            grown = len(oracle_rref(span + [minus_identity(conj)])) > rank
            if not oracle_is_unipotent(conj) or grown:
                return False, (ti, ui)
    return True, None


def _is_s_number(x: int, s_primes) -> bool:
    """x ≠ 0 is ± a product of the S-primes."""
    for p in s_primes:
        while x % p == 0:
            x //= p
    return abs(x) == 1


def _oracle_power_order(m, cap: int = 24):
    """The least k ≤ cap with m^k = I, by plain Fraction powering, or None."""
    n = len(m)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    acc = [list(row) for row in m]
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = oracle_mat_mul(acc, m)
    return None


def _oracle_algebra_span(gens, n: int) -> list[tuple[Fraction, ...]]:
    """RREF basis of the flattened span of every product of gens, I included:
    grown by products with each generator until its rank stops growing."""
    def flat(m):
        return tuple(Fraction(x) for row in m for x in row)

    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    basis = oracle_rref([flat(ident)])
    while True:
        mats = [[list(v[i * n:(i + 1) * n]) for i in range(n)] for v in basis]
        grown = oracle_rref(basis + [flat(oracle_mat_mul(m, g)) for m in mats for g in gens])
        if len(grown) == len(basis):
            return basis
        basis = grown


def _oracle_normalizes(e, w):
    """The first basis index j (1-based) at which w·π(b_j)·w⁻¹ is not π(c) for
    an order element c = w·π(b_j)·w⁻¹·1, or None; π read off e.regular_rep."""
    from ampletori.etale import element

    n = e.n
    winv = oracle_mat_inv(w)
    one = tuple(Fraction(x, e.one()[1]) for x in e.one()[0])
    for j in range(n):
        bj = as_fractions(e.regular_rep((tuple(int(i == j) for i in range(n)), 1)))
        conj = oracle_mat_mul(oracle_mat_mul(w, bj), winv)
        c = oracle_mat_vec(conj, one)
        if any(x.denominator != 1 for x in c):
            return j + 1
        if [list(row) for row in as_fractions(e.regular_rep(element(c)))] != conj:
            return j + 1
    return None


def oracle_group_sanity(gens, algebra=None) -> dict:
    """group_sanity's whole report from the generators as Fraction matrices:
    determinants by Laplace expansion, inverses by Gauss–Jordan, products,
    powers and spans by plain Fraction arithmetic and oracle_rref."""
    s, n = gens.ring_primes, gens.n
    named = [(name, as_fractions(m)) for name, m in gens.all_generators()]
    dets = [oracle_det(m) for _, m in named]
    report = {}
    if gens.ambient == "SL":
        bad = [(name, d) for (name, _), d in zip(named, dets) if d != 1]
    else:
        bad = [
            (name, d) for (name, _), d in zip(named, dets)
            if not (d and _is_s_number(d.numerator, s) and _is_s_number(d.denominator, s))
        ]
    report["determinants"] = {"pass": not bad, "detail": [f"{name}: det={d}" for name, d in bad]}
    integral = [name for name, m in named if not oracle_s_integral_both_ways(m, s)]
    report["s_integrality"] = {"pass": not integral, "detail": integral}

    a = len(gens.torus_gens) + len(gens.torsion_gens)
    b = a + len(gens.normalizer_gens)
    mats = [m for _, m in named]
    torus_like, normalizers, unis = mats[:a], mats[a:b], mats[b:]
    pairs = [
        (i, j) for (i, x), (j, y) in itertools.combinations(enumerate(torus_like), 2)
        if oracle_mat_mul(x, y) != oracle_mat_mul(y, x)
    ]
    report["torus_commutes"] = {"pass": not pairs, "detail": pairs}

    orders = []
    for i, m in enumerate(torus_like[len(gens.torus_gens):]):
        claimed = gens.provenance.get(f"torsion:{i}", {}).get("order")
        order = _oracle_power_order(m)
        if order is None or (claimed is not None and order != claimed):
            orders.append(f"torsion:{i}: order={order}, claimed={claimed}")
    report["torsion_orders"] = {"pass": not orders, "detail": orders}

    moved = []
    if normalizers:
        span = _oracle_algebra_span(torus_like, n)
        for i, w in enumerate(normalizers):
            if not dets[a + i]:
                moved.append(f"normalizer:{i} is singular")
                continue
            winv = oracle_mat_inv(w)
            conjugates = [oracle_mat_mul(oracle_mat_mul(w, g), winv) for g in torus_like]
            flat = [tuple(x for row in c for x in row) for c in conjugates]
            if len(oracle_rref(span + flat)) > len(span):
                moved.append(f"normalizer:{i} moves the torus algebra")
            if algebra is not None:
                block = [row[:algebra.n] for row in w[:algebra.n]]
                witness = _oracle_normalizes(algebra, block)
                if witness is not None:
                    moved.append(f"normalizer:{i} fails at basis index {witness}")
    report["normalizer"] = {"pass": not moved, "detail": moved}

    ok, witness = oracle_semidirect(torus_like, unis)
    report["semidirect"] = {"pass": ok, "detail": witness}
    report["all_pass"] = {"pass": all(v["pass"] for v in report.values())}
    return report


def _oracle_jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_oracle_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _oracle_jsonable(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def oracle_dumps(obj) -> str:
    """Canonical JSON by a recursive rebuild into plain JSON values first:
    the serialize.dumps of before it handed trees to the C encoder as they are."""
    return json.dumps(_oracle_jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def poly_to_json(coeffs) -> list[str]:
    """A polynomial's JSON: its integer coefficients as strings, ascending."""
    return [str(c) for c in coeffs]


def algebra_to_json(e) -> dict:
    """An algebra's JSON, which serialize.algebra_from_json reads back."""
    return {
        "factors": [poly_to_json(f.coeffs) for f in e.factors],
        "order_basis": matrix_to_json(e.order_basis),
    }


def oracle_divides(d: QPoly, f: QPoly) -> bool:
    if d.is_zero():
        return f.is_zero()
    return _sympy_poly(f.coeffs).rem(_sympy_poly(d.coeffs)).is_zero


def oracle_fp_irreducible(g: FpPoly, p: int) -> bool:
    """Trial division by every monic polynomial of degree ≤ deg/2."""
    n = len(g) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        idx = [0] * d
        while True:
            cand = fp_strip(idx + [1])
            if len(cand) - 1 == d and not fp_divmod(g, cand, p)[1]:
                return False
            k = 0
            while k < d:
                idx[k] += 1
                if idx[k] < p:
                    break
                idx[k] = 0
                k += 1
            if k == d:
                break
    return True


def oracle_norm_five_box(bound: int):
    """a^2 + b^2 = 5 enumeration inside the coordinate box, as elements ((a, b), 1)."""
    out = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * a + b * b == 5:
                out.add(((a, b), 1))
    return out


def oracle_det(m) -> Fraction:
    """Laplace expansion along the first row."""
    if not m:
        return Fraction(1)
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * oracle_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _ints(v) -> list[int]:
    """The integer coordinates of an element (ints, den) with den = 1."""
    ints, den = v
    assert den == 1
    return list(ints)


def oracle_automorphisms(e, coord_bound: int):
    """Order automorphisms of a field factor by a lexicographic full-box walk.

    Arithmetic runs on a multiplication table of the order basis built once.
    The image r of x is searched in (1/N)·O, N the denominator of x's order
    coordinates, as r = v/N for every integer v of the box whose coordinate
    at 1 is fixed by trace(v) = N·trace(x) and with trace(v^2) =
    N^2·trace(x^2). v is tested against N^n·f(v/N) = 0; a root r gives
    x ↦ r, kept when the basis images are integral with determinant ±1. No
    shell order and no early stop.
    """
    n = e.n
    unit = [(tuple(int(i == j) for i in range(n)), 1) for j in range(n)]
    # an order has integral structure constants, so plain ints suffice
    table = [[_ints(e.mul(unit[i], unit[j])) for j in range(n)] for i in range(n)]

    def mul(u, v):
        out = [0] * n
        for i in range(n):
            if u[i]:
                for j in range(n):
                    if v[j]:
                        for k in range(n):
                            out[k] += u[i] * v[j] * table[i][j][k]
        return out

    trace_form = [t for t, _ in map(e.trace, unit)]
    assert all(d == 1 for _, d in map(e.trace, unit))

    def trace(u):
        return sum(c * t for c, t in zip(u, trace_form))

    x, den = e.generator(0)
    x = list(x)
    target, target_sq = trace(x), trace(mul(x, x))
    one = _ints(e.one())
    k = next(i for i in range(n) if trace_form[i] != 0)
    others = [i for i in range(n) if i != k]
    found = []
    for tup in itertools.product(range(-coord_bound, coord_bound + 1), repeat=n - 1):
        partial = sum(c * trace_form[i] for c, i in zip(tup, others))
        ck, rem = divmod(target - partial, trace_form[k])
        if rem or abs(ck) > coord_bound:
            continue
        v = [0] * n
        for c, i in zip(tup, others):
            v[i] = c
        v[k] = ck
        if trace(mul(v, v)) != target_sq:
            continue
        acc = [0] * n
        for j, c in enumerate(reversed(e.factors[0].coeffs)):
            acc = [a + c * den**j * o for a, o in zip(mul(acc, v), one)]
        if any(acc):
            continue
        powers = [one]
        for _ in range(n - 1):
            powers.append(mul(powers[-1], v))
        basis = as_fractions(e.order_basis)
        images = tuple(
            tuple(
                sum(basis[j][p] * Fraction(powers[p][i], den**p) for p in range(n))
                for i in range(n)
            )
            for j in range(n)
        )
        integral = all(v.denominator == 1 for img in images for v in img)
        if integral and abs(oracle_det([list(img) for img in images])) == 1:
            found.append(images)
    return sorted(found)


def oracle_norm(e):
    """x ↦ N(Σ x_i b_i), the Laplace determinant of Σ x_i T_i, T_i the
    regular matrix of the i-th order basis element; one determinant a point."""
    n = e.n
    unit = [(tuple(int(i == j) for i in range(n)), 1) for j in range(n)]
    tmats = [[_ints(e.mul(b, unit[c])) for c in range(n)] for b in unit]  # tmats[i][c][r]

    def norm(x):
        m = [[sum(xi * t[c][r] for xi, t in zip(x, tmats)) for c in range(n)] for r in range(n)]
        return oracle_det(m)

    return norm


def oracle_unit_search(e, coord_bound: int, targets):
    """Nonzero box vectors whose norm is a target, by a lexicographic full-box walk.

    Norms by oracle_norm, no differences. Elements (x, 1), sorted
    lexicographically.
    """
    norm = oracle_norm(e)
    return [
        (x, 1)
        for x in itertools.product(range(-coord_bound, coord_bound + 1), repeat=e.n)
        if any(x) and norm(x) in targets
    ]


def oracle_walk_difference_max(e, coord_bound: int) -> int:
    """The largest |Δ^j N(c)| over c ∈ [−B, B+1]^n and orders j with Σj ≤ n.

    These are all the mixed forward differences a walk over the box [−B, B]^n
    holds when it steps each axis once past the edge and its corner is the
    whole simplex (2B+1 ≥ n+1). Norms by oracle_norm on the grid
    [−B, B+n+1]^n; each difference subtracts the grid table from itself
    shifted by one along an axis.
    """
    n, norm = e.n, oracle_norm(e)
    side = 2 * coord_bound + n + 2
    grid = [norm(x) for x in itertools.product(range(-coord_bound, coord_bound + n + 2), repeat=n)]
    strides = [side ** (n - 1 - a) for a in range(n)]
    base = [
        sum(map(operator.mul, c, strides))
        for c in itertools.product(range(2 * coord_bound + 2), repeat=n)
    ]
    best = 0

    def walk(table, axis, order):
        nonlocal best
        if axis == n:
            best = max(best, max(abs(table[i]) for i in base))
            return
        for _ in range(n - order + 1):
            walk(table, axis + 1, order)
            table, order = list(map(operator.sub, table[strides[axis] :], table)), order + 1

    walk(grid, 0, 0)
    return best


def oracle_torsion_order(e, u, max_order: int = 12):
    """Order of u by plain powering of its regular matrix, or None past max_order.

    u^m = 1 exactly when pi(u)^m is the identity; no trace bound, no early stop.
    """
    m = [list(row) for row in as_fractions(e.regular_rep(u))]
    ident = [[int(i == j) for j in range(e.n)] for i in range(e.n)]
    acc = m
    for k in range(1, max_order + 1):
        if acc == ident:
            return k
        acc = oracle_mat_mul(acc, m)
    return None


def oracle_automorphism_count(tag) -> int:
    """|Aut(K)| for K = Q[x]/(f) with Galois tag ``tag``: |N_G(H)/H|.

    H is the stabilizer of the root at index 0; |N_G(H)/H| is the number of
    roots of f that lie in K, hence the number of automorphisms of K. g
    normalizes H exactly when the cosets gH and Hg coincide.
    """
    stabilizer = [h for h in tag.elements if h[0] == 0]
    normalizer = [
        g
        for g in tag.elements
        if {perm_compose(g, h) for h in stabilizer}
        == {perm_compose(h, g) for h in stabilizer}
    ]
    return len(normalizer) // len(stabilizer)
