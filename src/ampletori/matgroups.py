"""Integer/rational matrix group assembly and exact relation checks.

Generator sets collect torus units, torsion, order automorphisms and
unipotent elementary matrices, each with a provenance record. All matrix
equality here is exact; there is no tolerance anywhere in this module.
Membership of a conjugate in the unipotent radical is checked against the
explicit linear pattern spanned by the given one-parameter generators (the
only radicals the block construction produces), not by a general
algebraic-group membership test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import UnsupportedError
from .etale import Coords, EtaleAlgebra
from .linalg import Mat
from .places import automorphism_count, galois_group_small
from .units import _PolynomialLRU, fraction_is_s_unit_rational, matrix_is_s_integral


@dataclass(frozen=True)
class AutomorphismDatum:
    """A ring automorphism of the order, by images of the basis elements."""

    images: tuple[Coords, ...]


@dataclass
class GeneratorSet:
    n: int
    ring_primes: tuple[int, ...]  # () means Z, (5,) means Z[1/5], ...
    ambient: str  # "SL" | "GL"
    torus_gens: list[Mat] = field(default_factory=list)
    torsion_gens: list[Mat] = field(default_factory=list)
    normalizer_gens: list[Mat] = field(default_factory=list)
    unipotent_gens: list[Mat] = field(default_factory=list)
    provenance: dict[str, dict] = field(default_factory=dict)

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


def automorphism_matrix(e: EtaleAlgebra, sigma: AutomorphismDatum) -> Mat:
    """Matrix of σ in the order basis: column j holds coords of σ(b_j).

    σ is verified as a ring automorphism of the order first (basis products
    and invertibility over Z).
    """
    ok, reason = _check_automorphism(e, sigma)
    if not ok:
        raise ValueError(f"not a ring automorphism of the order: {reason}")
    n = e.n
    return tuple(
        tuple(sigma.images[j][i] for j in range(n)) for i in range(n)
    )


def _check_automorphism(e: EtaleAlgebra, sigma: AutomorphismDatum):
    n = e.n
    if len(sigma.images) != n:
        return False, "wrong number of images"
    mat = tuple(tuple(sigma.images[j][i] for j in range(n)) for i in range(n))
    if not linalg.is_integer_matrix(mat):
        return False, "images are not integral"
    det = linalg.mat_det(mat)
    if abs(det) != 1:
        return False, f"determinant {det} is not ±1"
    # additivity is linearity; check products on the basis
    basis = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = e.mul(basis[i], basis[j])
            lhs = linalg.mat_vec(mat, prod)
            rhs = e.mul(sigma.images[i], sigma.images[j])
            if tuple(lhs) != tuple(rhs):
                return False, f"sigma(b_{i} b_{j}) != sigma(b_{i}) sigma(b_{j})"
    one = e.one()
    if tuple(linalg.mat_vec(mat, one)) != tuple(one):
        return False, "sigma(1) != 1"
    return True, None


def identity_automorphism(e: EtaleAlgebra) -> AutomorphismDatum:
    n = e.n
    return AutomorphismDatum(
        tuple(tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n))
    )


def _sup_norm_shells(d: int, bound: int):
    """Integer d-tuples of sup-norm at most bound, shell by shell.

    Shell r holds the tuples of sup-norm exactly r. Within a shell, a tuple
    is filed under its first coordinate of absolute value r, so each point
    of the box comes exactly once.
    """
    yield (0,) * d
    for r in range(1, bound + 1):
        inner = range(-r + 1, r)
        full = range(-r, r + 1)
        for i in range(d):
            for head in itertools.product(inner, repeat=i):
                for c in (-r, r):
                    for tail in itertools.product(full, repeat=d - i - 1):
                        yield head + (c,) + tail


def box_elements_with_trace(
    e: EtaleAlgebra,
    target_trace: Fraction,
    coord_bound: int,
    target_trace_sq: Fraction | None = None,
):
    """Integer coordinate vectors in the box with the given trace.

    The trace is a linear form with a nonzero coefficient at the coordinate
    of 1, so that coordinate is solved for instead of enumerated: the box
    costs (2B+1)^(n-1) candidates. The other n-1 coordinates are walked in
    shells of increasing sup-norm 0, 1, ..., B, so a consumer that stops
    early has seen every candidate of smaller sup-norm in them. When
    target_trace_sq is given, the quadratic form trace(u^2) (a Gram matrix
    evaluation) filters the survivors before anything expensive runs. The
    basis must be an order (else NotAnOrderError): every element of an
    order has integer traces, so the walk runs in plain ints and a
    non-integer target yields nothing.
    """
    e.require_order()
    if Fraction(target_trace).denominator != 1 or (
        target_trace_sq is not None and Fraction(target_trace_sq).denominator != 1
    ):
        return
    n = e.n
    basis = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    tf = [int(e.trace(b)) for b in basis]
    k = next(i for i in range(n) if tf[i] != 0)  # trace(1) = n > 0
    others = [i for i in range(n) if i != k]
    tk = tf[k]
    tgt = int(target_trace)
    g_int = tgt_sq = None
    if target_trace_sq is not None:
        g_int = [[int(e.trace(e.mul(basis[i], basis[j]))) for j in range(n)] for i in range(n)]
        tgt_sq = int(target_trace_sq)
    for tup in _sup_norm_shells(n - 1, coord_bound):
        partial = sum(c * tf[i] for c, i in zip(tup, others))
        ck, rem = divmod(tgt - partial, tk)
        if rem or abs(ck) > coord_bound:
            continue
        coords_i = [0] * n
        for c, i in zip(tup, others):
            coords_i[i] = c
        coords_i[k] = ck
        if g_int is not None:
            q = 0
            for i in range(n):
                ci = coords_i[i]
                if ci:
                    row = g_int[i]
                    q += ci * sum(row[j] * coords_i[j] for j in range(n))
            if q != tgt_sq:
                continue
        yield tuple(Fraction(c) for c in coords_i)


# (factors, basis, box) -> automorphisms; bounded like the per-polynomial caches
_AUTOMORPHISM_CACHE = _PolynomialLRU()
AUTOMORPHISM_COORD_BOUND = 50  # fallback end of the automorphism root search


def field_automorphism_count(e: EtaleAlgebra) -> int | None:
    """|Aut(K)| for the single field factor K, or None past degree 4."""
    f = e.factors[0]
    if f.degree > 4:
        return None
    return automorphism_count(galois_group_small(f))


def enumerate_automorphisms(
    e: EtaleAlgebra, coord_bound: int = AUTOMORPHISM_COORD_BOUND
) -> list[AutomorphismDatum]:
    """All automorphisms of the order of a field factor, by root search.

    An automorphism is determined by the image of x (a root of f in O);
    candidate roots come from the coordinate box in shells of increasing
    sup-norm, using the linear trace condition to solve one coordinate and
    the trace-of-square form as a second filter. Each root found is turned
    into an automorphism and verified exactly. The walk stops once it holds
    |Aut(K)| verified automorphisms (|N_G(H)/H| from the Galois tag): f has
    no further root in K, so the result is complete. coord_bound only ends
    the walk when that count is not reached (a root outside O or beyond the
    bound, or no tag past degree 4); :func:`field_automorphism_count` tells
    the caller whether the result fell short. Single-factor only. Results
    are cached per (factors, basis, box) since the search is deterministic.
    """
    if e.num_factors != 1:
        raise UnsupportedError("automorphism enumeration needs a single field factor")
    cache_key = (tuple(f.coeffs for f in e.factors), e.order_basis, coord_bound)
    if cache_key in _AUTOMORPHISM_CACHE:
        return list(_AUTOMORPHISM_CACHE.store(cache_key, _AUTOMORPHISM_CACHE[cache_key]))
    f = e.factors[0]
    n = e.n
    expected = field_automorphism_count(e)
    x = e.generator(0)
    target_trace = e.trace(x)
    target_trace_sq = e.trace(e.mul(x, x))
    out = []
    for r in box_elements_with_trace(e, target_trace, coord_bound, target_trace_sq):
        # f(r) = 0 exactly
        acc = e.zero()
        for c in reversed(f.coeffs):
            acc = e.add(e.mul(acc, r), tuple(c * x for x in e.one()))
        if any(v != 0 for v in acc):
            continue
        # the root r induces x ↦ r; express basis images through the
        # power-basis coordinates of the root's powers
        powers = [e.one()]
        for _ in range(n - 1):
            powers.append(e.mul(powers[-1], r))
        images = []
        for j in range(n):
            bj_power = e.order_basis[j]  # power coords of b_j
            img = e.zero()
            for k in range(n):
                if bj_power[k]:
                    img = e.add(img, tuple(bj_power[k] * c for c in powers[k]))
            images.append(tuple(img))
        sigma = AutomorphismDatum(tuple(images))
        if _check_automorphism(e, sigma)[0]:
            out.append(sigma)
            if len(out) == expected:
                break
    out.sort(key=lambda s: s.images)
    _AUTOMORPHISM_CACHE.store(cache_key, list(out))
    return out


def verify_normalization(e: EtaleAlgebra, m: Mat):
    """Check m·π(b_j)·m⁻¹ = π(c_j) with every c_j in the order.

    Returns (True, sigma) where sigma records the induced map on the basis,
    or (False, j) with the first failing basis index (1-based).
    """
    n = e.n
    minv = linalg.mat_inv(m)
    images = []
    one = e.one()
    for j in range(n):
        bj = tuple(Fraction(int(i == j)) for i in range(n))
        conj = linalg.mat_mul(linalg.mat_mul(m, e.regular_rep(bj)), minv)
        cj = tuple(linalg.mat_vec(conj, one))
        if e.regular_rep(cj) != conj:
            return False, j + 1
        if not all(x.denominator == 1 for x in cj):
            return False, j + 1
        images.append(cj)
    return True, AutomorphismDatum(tuple(images))


# ---------------------------------------------------------------------------
# block embeddings and unipotents
# ---------------------------------------------------------------------------


def block_embed(g: Mat, n: int) -> Mat:
    """diag(g, 1, ..., 1): block-diagonal with identity padding."""
    m = len(g)
    if m > n:
        raise ValueError("target size smaller than the block")
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i < m and j < m:
                row.append(g[i][j])
            else:
                row.append(Fraction(int(i == j)))
        out.append(tuple(row))
    return tuple(out)


def block_diag(g: Mat, tail: Fraction) -> Mat:
    """diag(g, tail) with a 1×1 last block."""
    m = len(g)
    out = []
    for i in range(m + 1):
        row = []
        for j in range(m + 1):
            if i < m and j < m:
                row.append(g[i][j])
            elif i == m and j == m:
                row.append(Fraction(tail))
            else:
                row.append(Fraction(0))
        out.append(tuple(row))
    return tuple(out)


def elementary_matrix(n: int, i: int, j: int) -> Mat:
    """E_{i,j}: identity plus a 1 in position (i, j); 1-based, i ≠ j."""
    if i == j:
        raise ValueError("elementary matrix needs i != j")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("index out of range")
    out = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    out[i - 1][j - 1] = Fraction(1)
    return tuple(tuple(row) for row in out)


def is_unipotent(m: Mat) -> bool:
    """All eigenvalues 1: characteristic polynomial equals (x−1)^n."""
    from math import comb

    n = len(m)
    cp = linalg.charpoly(m)
    expected = [Fraction((-1) ** (n - k) * comb(n, k)) for k in range(n + 1)]
    return list(cp) == expected


def verify_semidirect(torus_gens: list[Mat], unipotent_gens: list[Mat]):
    """Check every t·u·t⁻¹ is unipotent and stays in span{u_k − I}.

    Returns (True, None) or (False, (torus index, unipotent index)).
    """
    if not unipotent_gens:
        return True, None
    n = len(unipotent_gens[0])
    span_rows = [
        tuple(x for row in linalg.mat_sub(u, linalg.identity(n)) for x in row)
        for u in unipotent_gens
    ]
    basis = linalg.row_space_basis(span_rows)
    for ti, t in enumerate(torus_gens):
        tinv = linalg.mat_inv(t)
        for ui, u in enumerate(unipotent_gens):
            conj = linalg.mat_mul(linalg.mat_mul(t, u), tinv)
            if not is_unipotent(conj):
                return False, (ti, ui)
            flat = tuple(
                x for row in linalg.mat_sub(conj, linalg.identity(n)) for x in row
            )
            stacked = basis + [flat]
            if len(linalg.row_space_basis(stacked)) != len(basis):
                return False, (ti, ui)
    return True, None


# ---------------------------------------------------------------------------
# batch sanity
# ---------------------------------------------------------------------------


def _torsion_order_of_matrix(m: Mat, cap: int = 24) -> int | None:
    n = len(m)
    ident = linalg.identity(n)
    acc = m
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = linalg.mat_mul(acc, m)
    return None


def group_sanity(gens: GeneratorSet, algebra: EtaleAlgebra | None = None) -> dict:
    """Batch verification; machine-readable pass/fail per check.

    Checks: determinants (1 in SL, a unit of Z[1/S] in GL), S-integrality of
    generators and inverses, pairwise commutation of torus generators,
    torsion orders, normalizer relations (against the algebra when given,
    and against the span closure of the torus algebra always), semidirect
    relations for unipotent generators.
    """
    s = gens.ring_primes
    report: dict[str, dict] = {}

    det_ok, det_detail = True, []
    integ_ok, integ_detail = True, []
    for name, m in gens.all_generators():
        det = linalg.mat_det(m)
        if gens.ambient == "SL":
            good = det == 1
        else:
            good = fraction_is_s_unit_rational(det, s)
        if not good:
            det_ok = False
            det_detail.append(f"{name}: det={det}")
        inv = linalg.mat_inv(m)
        if not (matrix_is_s_integral(m, s) and matrix_is_s_integral(inv, s)):
            integ_ok = False
            integ_detail.append(name)
    report["determinants"] = {"pass": det_ok, "detail": det_detail}
    report["s_integrality"] = {"pass": integ_ok, "detail": integ_detail}

    comm_ok, comm_detail = True, []
    torus_like = gens.torus_gens + gens.torsion_gens
    for (i, a), (j, b) in itertools.combinations(enumerate(torus_like), 2):
        if linalg.mat_mul(a, b) != linalg.mat_mul(b, a):
            comm_ok = False
            comm_detail.append((i, j))
    report["torus_commutes"] = {"pass": comm_ok, "detail": comm_detail}

    tors_ok, tors_detail = True, []
    for i, m in enumerate(gens.torsion_gens):
        claimed = gens.provenance.get(f"torsion:{i}", {}).get("order")
        order = _torsion_order_of_matrix(m)
        if order is None or (claimed is not None and order != claimed):
            tors_ok = False
            tors_detail.append(f"torsion:{i}: order={order}, claimed={claimed}")
    report["torsion_orders"] = {"pass": tors_ok, "detail": tors_detail}

    norm_ok, norm_detail = True, []
    if gens.normalizer_gens:
        # span closure of the torus algebra: powers/products of torus gens
        n = gens.n
        alg_rows = [tuple(x for row in linalg.identity(n) for x in row)]
        frontier = [linalg.identity(n)]
        closed = False
        while not closed:
            closed = True
            new_frontier = []
            for m in frontier:
                for g in torus_like:
                    prod = linalg.mat_mul(m, g)
                    flat = tuple(x for row in prod for x in row)
                    before = len(linalg.row_space_basis(alg_rows))
                    after_rows = alg_rows + [flat]
                    if len(linalg.row_space_basis(after_rows)) > before:
                        alg_rows.append(flat)
                        new_frontier.append(prod)
                        closed = False
            frontier = new_frontier
        alg_basis = linalg.row_space_basis(alg_rows)
        for i, w in enumerate(gens.normalizer_gens):
            winv = linalg.mat_inv(w)
            for g in torus_like:
                conj = linalg.mat_mul(linalg.mat_mul(w, g), winv)
                flat = tuple(x for row in conj for x in row)
                if len(linalg.row_space_basis(alg_basis + [flat])) != len(alg_basis):
                    norm_ok = False
                    norm_detail.append(f"normalizer:{i} moves the torus algebra")
                    break
            if algebra is not None:
                ok, witness = verify_normalization(algebra, _strip_block(w, algebra.n))
                if not ok:
                    norm_ok = False
                    norm_detail.append(f"normalizer:{i} fails at basis index {witness}")
    report["normalizer"] = {"pass": norm_ok, "detail": norm_detail}

    semi_ok, semi_witness = verify_semidirect(
        gens.torus_gens + gens.torsion_gens, gens.unipotent_gens
    )
    report["semidirect"] = {"pass": semi_ok, "detail": semi_witness}

    report["all_pass"] = {"pass": all(v["pass"] for k, v in report.items() if k != "all_pass")}
    return report


def _strip_block(m: Mat, n: int) -> Mat:
    """Upper-left n×n block (for generators embedded as diag(g, ...))."""
    return tuple(tuple(m[i][j] for j in range(n)) for i in range(n))
