"""Simultaneous GL_n(Z)-conjugacy between generator sets.

Published generator matrices depend on an unstated Z-basis of the order.
Rather than enumerate conjugators blindly, this module identifies which
order elements the target matrices represent (by characteristic polynomial,
through a box search), propagates the algebra map through a primitive
element, and then looks for a unimodular integer point in the resulting
intertwiner space — a rational solution space of dimension at most n, which
is searched within a bounded coefficient box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .etale import Coords, EtaleAlgebra
from .linalg import Mat
from .matgroups import AutomorphismDatum, automorphism_matrix, enumerate_automorphisms


@dataclass
class ConjugacyResult:
    conjugator: Mat  # P with P·π(a)·P⁻¹ = targets
    unit_elements: list[Coords]  # u_i with P·π(u_i)·P⁻¹ = unit target i
    automorphisms: list[AutomorphismDatum]
    discovered_basis: Mat  # Z-basis of the order realizing the targets
    transposed: bool


def _charpoly_of(m: Mat) -> tuple[Fraction, ...]:
    return tuple(linalg.charpoly(m))


def _matrix_powers(m: Mat, k: int) -> list[Mat]:
    out = [linalg.identity(len(m))]
    for _ in range(k - 1):
        out.append(linalg.mat_mul(out[-1], m))
    return out


def _element_powers(e: EtaleAlgebra, u: Coords, k: int) -> list[Coords]:
    out = [e.one()]
    for _ in range(k - 1):
        out.append(e.mul(out[-1], u))
    return out


def _is_primitive(e: EtaleAlgebra, u: Coords) -> bool:
    rows = _element_powers(e, u, e.n)
    return linalg.rank(tuple(rows)) == e.n


def _express_in_powers(e: EtaleAlgebra, u: Coords, target: Coords):
    """Coefficients q with target = Σ q_k u^k, or None."""
    powers = _element_powers(e, u, e.n)
    mat = linalg.transpose(tuple(powers))
    try:
        return linalg.solve(mat, target)
    except linalg.SingularMatrixError:
        return None


def _candidates_with_charpoly(
    e: EtaleAlgebra, chi: tuple[Fraction, ...], box: int, limit: int = 12
) -> list[Coords]:
    """Box-search order elements whose regular matrix has charpoly chi.

    The trace is a linear form in the coordinates, so one coordinate is
    solved from it and only the rest are enumerated, in shells of
    increasing sup-norm: when more than ``limit`` elements match, the ones
    kept are those whose enumerated coordinates are smallest.
    """
    from .matgroups import box_elements_with_trace

    n = e.n
    # Newton's identities: trace = -a_{n-1}, trace of squares = a_{n-1}^2 - 2 a_{n-2}
    target_trace = -chi[n - 1]
    target_trace_sq = chi[n - 1] ** 2 - 2 * chi[n - 2] if n >= 2 else target_trace**2
    found = []
    for cand in box_elements_with_trace(e, target_trace, box, target_trace_sq):
        if tuple(linalg.charpoly(e.regular_rep(cand))) == chi:
            found.append(cand)
            if len(found) >= limit:
                break
    found.sort(key=lambda c: (sum(abs(x) for x in c), c))
    return found


def _intertwiner_space(conditions: list[tuple[Mat, Mat]], n: int) -> list[Mat]:
    """Basis of {P : P·A = B·P for every (A, B) condition}."""
    rows = []
    for a, b in conditions:
        # (P·A − B·P)[i][j] = Σ_k P[i][k]A[k][j] − B[i][k]P[k][j]
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += a[k][j]
                    row[k * n + j] -= b[i][k]
                rows.append(tuple(row))
    kernel = linalg.kernel_basis(tuple(rows))
    mats = []
    for v in kernel:
        mats.append(tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)))
    return mats


def _primitive_integer_matrix(m: Mat) -> Mat:
    den = math.lcm(*[x.denominator for row in m for x in row])
    scaled = [[int(x * den) for x in row] for row in m]
    g = 0
    for row in scaled:
        for x in row:
            g = math.gcd(g, abs(x))
    if g > 1:
        scaled = [[x // g for x in row] for row in scaled]
    return tuple(tuple(Fraction(x) for x in row) for row in scaled)


def _unimodular_point(space: list[Mat], coeff_box: int) -> Mat | None:
    """An integer matrix with det ±1 in the span of the space, if any."""
    if not space:
        return None
    if len(space) == 1:
        cand = _primitive_integer_matrix(space[0])
        if abs(linalg.mat_det(cand)) == 1:
            return cand
        return None
    prim = [_primitive_integer_matrix(m) for m in space]
    n = len(prim[0])
    for coeffs in itertools.product(range(-coeff_box, coeff_box + 1), repeat=len(prim)):
        if all(c == 0 for c in coeffs):
            continue
        cand = linalg.zero_matrix(n, n)
        for c, m in zip(coeffs, prim):
            if c:
                cand = linalg.mat_add(cand, linalg.mat_scale(m, c))
        if linalg.is_integer_matrix(cand) and abs(linalg.mat_det(cand)) == 1:
            return cand
    return None


def find_simultaneous_conjugator(
    e: EtaleAlgebra,
    unit_targets: list[Mat],
    auto_targets: list[Mat],
    unit_box: int = 12,
    coeff_box: int = 20,
) -> ConjugacyResult | None:
    """P ∈ GL_n(Z) conjugating the regular representation onto the targets.

    Searches both the targets as given and their transposes (the two matrix
    conventions for a regular representation). Returns None when no
    unimodular intertwiner exists within the bounded search.
    """
    autos = enumerate_automorphisms(e)
    auto_mats = [(s, automorphism_matrix(e, s)) for s in autos]
    if not unit_targets:
        return None
    # charpoly is transposition-invariant, so the candidate pool is shared
    chi0 = _charpoly_of(unit_targets[0])
    candidates = _candidates_with_charpoly(e, chi0, unit_box)
    for transposed in (False, True):
        tgt_units = [
            linalg.transpose(t) if transposed else t for t in unit_targets
        ]
        tgt_autos = [linalg.transpose(t) if transposed else t for t in auto_targets]
        result = _search_one_convention(
            e, tgt_units, tgt_autos, auto_mats, candidates, coeff_box
        )
        if result is not None:
            p, units, sigmas = result
            basis = _discovered_basis(e, p)
            return ConjugacyResult(p, units, sigmas, basis, transposed)
    return None


def _search_one_convention(e, tgt_units, tgt_autos, auto_mats, candidates, coeff_box):
    n = e.n
    # the first target must generate an n-dimensional algebra for the
    # primitive-element propagation to determine the map
    t_powers = _matrix_powers(tgt_units[0], n)
    flat = tuple(tuple(x for row in m for x in row) for m in t_powers)
    if linalg.rank(flat) != n:
        return None
    for u0 in candidates:
        if not _is_primitive(e, u0):
            continue
        q = _express_in_powers(e, u0, e.generator(0))
        if q is None:
            continue
        # psi(x) = q(T_0): the image of the algebra generator
        psi_x = linalg.zero_matrix(n, n)
        for coeff, power in zip(q, t_powers):
            if coeff:
                psi_x = linalg.mat_add(psi_x, linalg.mat_scale(power, coeff))
        # remaining unit targets must be psi of integral units
        units = [u0]
        ok = True
        psi_x_powers = _matrix_powers(psi_x, n)
        flat_mat = linalg.transpose(
            tuple(tuple(x for row in m for x in row) for m in psi_x_powers)
        )
        for t in tgt_units[1:]:
            vec = tuple(x for row in t for x in row)
            try:
                coeffs = linalg.solve(flat_mat, vec)
            except linalg.SingularMatrixError:
                ok = False
                break
            elem = e.zero()
            xel = e.generator(0)
            xp = _element_powers(e, xel, n)
            for c, pw in zip(coeffs, xp):
                if c:
                    elem = e.add(elem, tuple(c * y for y in pw))
            if not e.element_is_integral(elem):
                ok = False
                break
            units.append(elem)
        if not ok:
            continue
        # assign our automorphisms to the automorphism targets by charpoly
        assignments = []
        for t in tgt_autos:
            chi_t = _charpoly_of(t)
            matches = [
                (s, a) for s, a in auto_mats if _charpoly_of(a) == chi_t
            ]
            assignments.append(matches)
        for combo in itertools.product(*assignments) if tgt_autos else [()]:
            conditions = [(e.regular_rep(units[i]), tgt_units[i]) for i in range(len(units))]
            conditions.append((e.regular_rep(e.generator(0)), psi_x))
            for (sigma, amat), t in zip(combo, tgt_autos):
                conditions.append((amat, t))
            space = _intertwiner_space(conditions, n)
            p = _unimodular_point(space, coeff_box)
            if p is None:
                continue
            pinv = linalg.mat_inv(p)
            if all(
                linalg.mat_mul(linalg.mat_mul(p, a), pinv) == b for a, b in conditions
            ):
                return p, units, [s for s, _ in combo]
    return None


def _discovered_basis(e: EtaleAlgebra, p: Mat) -> Mat:
    """Order basis realizing the targets: rows B' = P^{-T}·B.

    With coordinates as columns, a basis change B' = U·B conjugates the
    representation by U^{-T}; here P = U^{-T}, so U = P^{-T}.
    """
    u = linalg.transpose(linalg.mat_inv(p))
    return linalg.mat_mul(u, e.order_basis)
