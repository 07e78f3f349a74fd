"""Integer/rational matrix group assembly and exact relation checks.

Generator sets collect torus units, torsion, order automorphisms and
unipotent elementary matrices, each with a provenance record, all in
linalg's integer form (IntMat). All matrix equality here is exact; there is
no tolerance anywhere in this module. Membership of a conjugate in the
unipotent radical is checked against the explicit linear pattern spanned by
the given one-parameter generators (the only radicals the block
construction produces), not by a general algebraic-group membership test.

The checks compare integer rows without normalizing them: a product x·y of
IntMats has rows X·Y over den_x·den_y whatever the order of the factors, a
power mᵏ is I exactly when its rows are denᵏ·I, and membership in a span
does not depend on scale.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, lcm
from typing import NamedTuple

from . import linalg
from .errors import SingularMatrixError, UnsupportedError
from .etale import EtaleAlgebra
from .linalg import IntMat
from .places import automorphism_count, galois_group_small
from .polynomials import MEMO_SIZE, is_s_number, strip_primes


class GeneratorSet(NamedTuple):
    n: int
    ring_primes: tuple[int, ...]  # () means Z, (5,) means Z[1/5], ...
    ambient: str  # "SL" | "GL"
    torus_gens: list[IntMat]  # each list and the provenance are appended to in place
    torsion_gens: list[IntMat]
    normalizer_gens: list[IntMat]
    unipotent_gens: list[IntMat]
    provenance: dict[str, dict]

    def ring_str(self) -> str:
        if not self.ring_primes:
            return "Z"
        return "Z[" + ",".join(f"1/{p}" for p in self.ring_primes) + "]"

    def all_generators(self):
        for kind in ("torus", "torsion", "normalizer", "unipotent"):
            for i, m in enumerate(getattr(self, f"{kind}_gens")):
                yield f"{kind}:{i}", m


# ---------------------------------------------------------------------------
# automorphisms of the order
# ---------------------------------------------------------------------------


def _check_automorphism(e: EtaleAlgebra, mat: IntMat):
    """(True, None) when mat, column j holding σ(b_j), is a ring automorphism
    of the order; else (False, reason)."""
    n = e.n
    if mat[1] != 1:
        return False, "images are not integral"
    det = linalg._det([list(row) for row in mat[0]])
    if abs(det) != 1:
        return False, f"determinant {det} is not ±1"
    # additivity is linearity; check products on the basis
    basis = [(tuple(int(k == j) for k in range(n)), 1) for j in range(n)]
    images = [(col, 1) for col in zip(*mat[0])]
    for i in range(n):
        for j in range(i, n):
            lhs = linalg._int_mat_vec(mat, e.mul(basis[i], basis[j]))
            if lhs != e.mul(images[i], images[j]):
                return False, f"sigma(b_{i} b_{j}) != sigma(b_{i}) sigma(b_{j})"
    one = e.one()
    if linalg._int_mat_vec(mat, one) != one:
        return False, "sigma(1) != 1"
    return True, None


def enumerate_automorphisms(e: EtaleAlgebra) -> list[IntMat]:
    """The matrices of all automorphisms of the order of a field factor.

    Column j of a matrix holds the coordinates of σ(b_j). An automorphism
    is determined by the image of x, a root r of f in K, and
    :meth:`EtaleAlgebra.elements_with_charpoly` returns every such root.
    x ↦ r sends b_j = Σ_k B[j][k]·x^k to Σ_k B[j][k]·r^k, so its matrix is
    (the powers r^k as columns)·Bᵀ. A root need not lie in the order (in
    Z[2i], x does not): the map is kept when its matrix passes the exact
    automorphism check on the order, made once, here. Where the Galois tag
    gives |Aut(K)| = 1 (places.automorphism_count), as for every S3 cubic
    and A4 or S4 quartic, x is the only root. Sorted by the images
    σ(b_0), σ(b_1), …. Single-factor only; the basis must be an order (else
    NotAnOrderError). Results are memoized per (factors, basis); every call
    gets a new list.
    """
    if e.num_factors != 1:
        raise UnsupportedError("automorphism enumeration needs a single field factor")
    return list(_automorphisms(e))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _automorphisms(e: EtaleAlgebra) -> tuple[IntMat, ...]:
    e.require_order()
    f = e.factors[0]
    trivial = f.degree <= 4 and automorphism_count(galois_group_small(f)) == 1
    out = []
    for r in [e.generator()] if trivial else e.elements_with_charpoly(f):
        powers = [e.one()]
        for _ in range(e.n - 1):
            powers.append(e.mul(powers[-1], r))
        den = lcm(*[d for _, d in powers])  # the powers as columns, over one den
        cols = linalg._int_form(list(zip(*[[x * (den // d) for x in c] for c, d in powers])), den)
        mat = linalg._int_mul(cols, e._basis_int)
        if _check_automorphism(e, mat)[0]:
            out.append(mat)
    return tuple(sorted(out, key=lambda m: linalg.transpose(m)[0]))  # each den is 1


def __getattr__(name: str):
    # the benchmark's tracer reads len(_AUTOMORPHISM_CACHE) as the automorphism memo's size
    if name == "_AUTOMORPHISM_CACHE":
        return range(_automorphisms.cache_info().currsize)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def verify_normalization(e: EtaleAlgebra, m: IntMat):
    """Check m·π(b_j)·m⁻¹ = π(c_j) with every c_j in the order.

    Returns (True, s) with s the matrix of the induced automorphism of the
    order (column j holds c_j), or (False, j) with the first failing basis
    index (1-based).
    """
    return _normalizes(e, m, linalg._int_inv(m))


def _normalizes(e: EtaleAlgebra, m: IntMat, minv: IntMat):
    """verify_normalization on m's integer form and its inverse."""
    n = e.n
    images = []
    one = e.one()
    for j in range(n):
        bj = (tuple(int(i == j) for i in range(n)), 1)
        conj = linalg._int_mul(linalg._int_mul(m, e._int_rep(bj)), minv)
        cj, den = linalg._int_mat_vec(conj, one)
        if den != 1 or e._int_rep((cj, den)) != conj:
            return False, j + 1
        images.append(cj)
    return True, (tuple(zip(*images)), 1)


# ---------------------------------------------------------------------------
# block embeddings and unipotents
# ---------------------------------------------------------------------------


def block_diag(g: IntMat, tail: tuple[int, int]) -> IntMat:
    """diag(g, num/den) with a 1×1 last block, for tail = (num, den)."""
    (rows, den), (num, tden) = g, tail
    m = len(rows)
    out = [[x * tden for x in row] + [0] for row in rows] + [[0] * m + [num * den]]
    return linalg._int_form(out, den * tden)


def elementary_matrix(n: int, i: int, j: int) -> IntMat:
    """E_{i,j}: identity plus a 1 in position (i, j); 1-based, i ≠ j."""
    if i == j:
        raise ValueError("elementary matrix needs i != j")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("index out of range")
    return tuple(
        tuple(int(r == c or (r, c) == (i - 1, j - 1)) for c in range(n)) for r in range(n)
    ), 1


def _is_unipotent(m: IntMat) -> bool:
    """All eigenvalues 1: the rows R = den·m have characteristic polynomial (t − den)^n."""
    rows, den = m
    n = len(rows)
    return linalg._berkowitz(rows) == [comb(n, k) * (-den) ** (n - k) for k in range(n + 1)]


def _minus_identity(m: IntMat) -> list[int]:
    """The entries of den·(m − I), row by row, for m = (rows, den)."""
    rows, den = m
    return [x - den * (i == j) for i, row in enumerate(rows) for j, x in enumerate(row)]


def verify_semidirect(torus_gens: list[IntMat], unipotent_gens: list[IntMat]):
    """Check every t·u·t⁻¹ is unipotent and stays in span{u_k − I}.

    t·u·t⁻¹ has u's characteristic polynomial, so unipotency is tested once
    per unipotent generator; the span is tested per pair. A singular t has
    no conjugation and fails at its first pair.
    Returns (True, None) or (False, (torus index, unipotent index)), the
    first failing pair with the torus index outermost.
    """
    witness = _semidirect(torus_gens, unipotent_gens, linalg._int_inv)
    return witness is None, witness


def _semidirect(torus: list[IntMat], unis: list[IntMat], inverse) -> tuple[int, int] | None:
    """verify_semidirect's first failing pair, or None; inverse(t) gives t⁻¹
    and raises SingularMatrixError for a singular t.

    t·u·t⁻¹ − I = t·(u − I)·t⁻¹ is, up to a positive scale, the sum over the
    nonzero entries c at (a, b) of den·(u − I) of c·(column a of t)(row b of
    t⁻¹): for an elementary u, one outer product.
    """
    if not (torus and unis):
        return None
    unipotent = [_is_unipotent(u) for u in unis]
    span = linalg._Span()
    n = len(unis[0][0])
    moves = []
    for u in unis:
        flat = _minus_identity(u)
        span.add(flat)
        moves.append([(divmod(k, n), c) for k, c in enumerate(flat) if c])
    for ti, t in enumerate(torus):
        try:
            tinv = inverse(t)[0]
        except SingularMatrixError:
            return ti, 0
        cols = tuple(zip(*t[0]))
        for ui, entries in enumerate(moves):
            conj = [0] * (n * n)
            for (a, b), c in entries:
                row = tinv[b]
                for i, x in enumerate(cols[a]):
                    if x:
                        cx, base = c * x, i * n
                        for j, y in enumerate(row):
                            conj[base + j] += cx * y
            if not unipotent[ui] or conj not in span:
                return ti, ui
    return None


# ---------------------------------------------------------------------------
# batch sanity
# ---------------------------------------------------------------------------


def _torsion_order_of_matrix(m: IntMat, cap: int = 24) -> int | None:
    """The least k ≤ cap with mᵏ = I, read off the raw powers Rᵏ = denᵏ·I."""
    rows, den = m
    acc, scale = rows, den
    for k in range(1, cap + 1):
        if all(x == scale * (i == j) for i, row in enumerate(acc) for j, x in enumerate(row)):
            return k
        acc, scale = linalg._mul_rows(acc, rows), scale * den
    return None


def group_sanity(gens: GeneratorSet, algebra: EtaleAlgebra | None = None) -> dict:
    """Batch verification; machine-readable pass/fail per check.

    Checks: determinants (1 in SL, a unit of Z[1/S] in GL), S-integrality of
    generators and inverses, pairwise commutation of torus generators,
    torsion orders, normalizer relations (against the algebra when given,
    and against the span closure of the torus algebra always), semidirect
    relations for unipotent generators.

    Every check reads each generator's integer form m = R/den as it is
    given, and compares products and powers without normalizing them.
    det R/den^n decides the determinant check and both S-integrality
    checks: m is S-integral when den is an S-number, and then m⁻¹ =
    den·adj(R)/det R is S-integral exactly when det R is an S-number, so no
    check inverts m for them. A singular generator fails both, by
    name. A torus or normalizer generator is inverted at most once, and
    only for a conjugation; unipotency is tested once per unipotent
    generator (verify_semidirect).
    """
    s = gens.ring_primes
    report: dict[str, dict] = {}
    named = list(gens.all_generators())
    forms = [m for _, m in named]
    inverse = functools.cache(linalg._int_inv)

    det_ok, det_detail = True, []
    integ_ok, integ_detail = True, []
    dets = []
    for (name, _), (rows, den) in zip(named, forms):
        num, den_n = linalg._det([list(row) for row in rows]), den ** len(rows)
        dets.append(num)
        if gens.ambient == "SL":
            good = num == den_n
        else:  # num/den_n is a unit of Z[1/S] when both have the same part prime to S
            good = num != 0 and strip_primes(num, s)[0] == strip_primes(den_n, s)[0]
        if not good:
            det_ok = False
            det_detail.append(f"{name}: det={linalg._ratio_str(num, den_n)}")
        if not (is_s_number(den, s) and is_s_number(num, s)):
            integ_ok = False
            integ_detail.append(name)
    report["determinants"] = {"pass": det_ok, "detail": det_detail}
    report["s_integrality"] = {"pass": integ_ok, "detail": integ_detail}

    n_torus = len(gens.torus_gens)
    a = n_torus + len(gens.torsion_gens)
    b = a + len(gens.normalizer_gens)
    torus_like, normalizers, unis = forms[:a], forms[a:b], forms[b:]

    comm_ok, comm_detail = True, []
    for (i, x), (j, y) in itertools.combinations(enumerate(torus_like), 2):
        if linalg._mul_rows(x[0], y[0]) != linalg._mul_rows(y[0], x[0]):  # both over den_x·den_y
            comm_ok = False
            comm_detail.append((i, j))
    report["torus_commutes"] = {"pass": comm_ok, "detail": comm_detail}

    tors_ok, tors_detail = True, []
    for i, m in enumerate(torus_like[n_torus:]):
        claimed = gens.provenance.get(f"torsion:{i}", {}).get("order")
        order = _torsion_order_of_matrix(m)
        if order is None or (claimed is not None and order != claimed):
            tors_ok = False
            tors_detail.append(f"torsion:{i}: order={order}, claimed={claimed}")
    report["torsion_orders"] = {"pass": tors_ok, "detail": tors_detail}

    norm_ok, norm_detail = True, []
    if normalizers:
        # span closure of the torus algebra: powers/products of torus gens,
        # in one running echelon of the flattened integer rows, unscaled
        def flat(rows):
            return [x for row in rows for x in row]

        frontier, span = [linalg.identity(gens.n)[0]], linalg._Span()
        span.add(flat(frontier[0]))
        while frontier:
            products = (linalg._mul_rows(m, g[0]) for m in frontier for g in torus_like)
            frontier = [prod for prod in products if span.add(flat(prod))]
        for i, w in enumerate(normalizers):
            if not dets[a + i]:
                norm_ok = False
                norm_detail.append(f"normalizer:{i} is singular")
                continue
            wg = (linalg._mul_rows(w[0], g[0]) for g in torus_like)
            if any(flat(linalg._mul_rows(x, inverse(w)[0])) not in span for x in wg):  # w·g·w⁻¹
                norm_ok = False
                norm_detail.append(f"normalizer:{i} moves the torus algebra")
            if algebra is not None:
                block = _strip_block(w, algebra.n)
                ok, witness = _normalizes(algebra, block, inverse(block))
                if not ok:
                    norm_ok = False
                    norm_detail.append(f"normalizer:{i} fails at basis index {witness}")
    report["normalizer"] = {"pass": norm_ok, "detail": norm_detail}

    semi_witness = _semidirect(torus_like, unis, inverse)
    report["semidirect"] = {"pass": semi_witness is None, "detail": semi_witness}

    report["all_pass"] = {"pass": all(v["pass"] for k, v in report.items() if k != "all_pass")}
    return report


def _strip_block(m: IntMat, n: int) -> IntMat:
    """Upper-left n×n block (for generators embedded as diag(g, ...))."""
    return linalg._int_form([row[:n] for row in m[0][:n]], m[1])
