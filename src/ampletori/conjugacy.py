"""Simultaneous GL_n(Z)-conjugacy between generator sets.

Published generator matrices depend on an unstated Z-basis of the order.
Rather than enumerate conjugators blindly, this module identifies which
order element the first target matrix represents (every order element with
its characteristic polynomial, found exactly), and then looks for a
unimodular integer point in the resulting intertwiner space — a rational
solution space of dimension at most n, which is searched within a bounded
coefficient box.
That element is primitive, so one intertwining condition fixes the algebra
map, and every other unit target is read off through the conjugator found.
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
from .polynomials import QPoly

COEFF_BOX = 20  # coefficient box of the unimodular point in the intertwiner space


@dataclass
class ConjugacyResult:
    conjugator: Mat  # P with P·π(a)·P⁻¹ = targets
    unit_elements: list[Coords]  # u_i with P·π(u_i)·P⁻¹ = unit target i
    automorphisms: list[AutomorphismDatum]
    discovered_basis: Mat  # Z-basis of the order realizing the targets
    transposed: bool


def _charpoly_of(m: Mat) -> tuple[Fraction, ...]:
    return tuple(linalg.charpoly(m))


def _is_primitive(e: EtaleAlgebra, u: Coords) -> bool:
    powers = [e.one()]
    for _ in range(e.n - 1):
        powers.append(e.mul(powers[-1], u))
    return linalg.rank(tuple(powers)) == e.n


def order_elements_with_charpoly(e: EtaleAlgebra, chi: Mat) -> list[Coords]:
    """Every order element whose regular matrix has the charpoly of chi.

    Smallest first, by 1-norm and then coordinates. An order element has an
    integral charpoly, so a non-integral one has none.
    """
    cp = QPoly(linalg.charpoly(chi))
    if not cp.is_integral():
        return []
    found = [b for b in e.elements_with_charpoly(cp) if all(c.denominator == 1 for c in b)]
    return sorted(found, key=lambda c: (sum(abs(x) for x in c), c))


def _intertwiner_space(conditions: list[tuple[Mat, Mat]], n: int) -> list[Mat]:
    """Basis of {P : P·A = B·P for every (A, B) condition}."""
    rows = []
    for a, b in conditions:
        # d·(P·A − B·P)[i][j] = Σ_k d·A[k][j]·P[i][k] − d·B[i][k]·P[k][j], with
        # d > 0 clearing the denominators of A and B: the row space is the same
        ints, _ = linalg._integer_form([x for m in (a, b) for row in m for x in row])
        da, db = ints[: n * n], ints[n * n :]
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[i * n + k] += da[k * n + j]
                    row[k * n + j] -= db[i * n + k]
                rows.append(row)
    return [tuple(v[i * n : i * n + n] for i in range(n)) for v in linalg.kernel_basis(rows)]


def _primitive_integer_matrix(m: Mat) -> Mat:
    ints, _ = linalg._integer_form([x for row in m for x in row])
    g, n = math.gcd(*ints) or 1, len(m[0])
    return tuple(tuple(Fraction(x // g) for x in ints[i * n : i * n + n]) for i in range(len(m)))


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
    e: EtaleAlgebra, unit_targets: list[Mat], auto_targets: list[Mat]
) -> ConjugacyResult | None:
    """P ∈ GL_n(Z) conjugating the regular representation onto the targets.

    Searches both the targets as given and their transposes (the two matrix
    conventions for a regular representation). Every order element with the
    first unit target's charpoly is tried; None means that no unimodular
    point within coefficient box COEFF_BOX of any intertwiner space was
    found.
    """
    autos = enumerate_automorphisms(e)
    auto_mats = [(s, automorphism_matrix(e, s)) for s in autos]
    if not unit_targets:
        return None
    # charpoly is transposition-invariant, so the candidate pool is shared
    candidates = order_elements_with_charpoly(e, unit_targets[0])
    for transposed in (False, True):
        tgt_units = [
            linalg.transpose(t) if transposed else t for t in unit_targets
        ]
        tgt_autos = [linalg.transpose(t) if transposed else t for t in auto_targets]
        result = _search_one_convention(e, tgt_units, tgt_autos, auto_mats, candidates)
        if result is not None:
            p, units, sigmas = result
            basis = _discovered_basis(e, p)
            return ConjugacyResult(p, units, sigmas, basis, transposed)
    return None


def _search_one_convention(e, tgt_units, tgt_autos, auto_mats, candidates):
    # assign our automorphisms to the automorphism targets by charpoly
    assignments = []
    for t in tgt_autos:
        chi_t = _charpoly_of(t)
        assignments.append([(s, a) for s, a in auto_mats if _charpoly_of(a) == chi_t])
    for u0 in candidates:
        # u0 primitive: P·π(u0) = T_0·P gives P·π(g(u0)) = g(T_0)·P for every
        # polynomial g, so this one condition fixes the algebra map
        if not _is_primitive(e, u0):
            continue
        unit_condition = (e.regular_rep(u0), tgt_units[0])
        for combo in itertools.product(*assignments):
            conditions = [unit_condition] + [(a, t) for (_, a), t in zip(combo, tgt_autos)]
            space = _intertwiner_space(conditions, e.n)
            p = _unimodular_point(space, COEFF_BOX)
            if p is None:
                continue
            pinv = linalg.mat_inv(p)
            if not all(
                linalg.mat_mul(linalg.mat_mul(p, a), pinv) == b for a, b in conditions
            ):
                continue
            units = _read_off_units(e, p, pinv, tgt_units[1:])
            if units is not None:
                return p, [u0] + units, [s for s, _ in combo]
    return None


def _read_off_units(e: EtaleAlgebra, p: Mat, pinv: Mat, targets: list[Mat]):
    """Order elements c with π(c) = P⁻¹·T·P for each target T, or None."""
    units = []
    for t in targets:
        m = linalg.mat_mul(linalg.mat_mul(pinv, t), p)
        c = linalg.mat_vec(m, e.one())  # column of 1: the coordinates of c·1
        if not linalg.is_integer_matrix(m) or e.regular_rep(c) != m:
            return None
        units.append(c)
    return units


def _discovered_basis(e: EtaleAlgebra, p: Mat) -> Mat:
    """Order basis realizing the targets: rows B' = P^{-T}·B.

    With coordinates as columns, a basis change B' = U·B conjugates the
    representation by U^{-T}; here P = U^{-T}, so U = P^{-T}.
    """
    u = linalg.transpose(linalg.mat_inv(p))
    return linalg.mat_mul(u, e.order_basis)
