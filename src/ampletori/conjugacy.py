"""Simultaneous GL_n(Z)-conjugacy between generator sets.

Published generator matrices depend on an unstated Z-basis of the order.
Rather than enumerate conjugators blindly, this module identifies which
order element u0 the first target T0 represents (every order element with
its characteristic polynomial χ, found exactly). A field element's
characteristic polynomial is its minimal polynomial to the power n/d, so
every candidate u0 is primitive exactly when χ is squarefree; otherwise
there is no search. For primitive u0 the intertwiners P·π(u0) = T0·P form
one space of dimension at most n (Latimer–MacDuffee), solved once per
candidate; each automorphism target adds a small system in the coefficients
of that space. A unimodular integer point of the result is searched within
a bounded coefficient box, and every other unit target is read off through
the conjugator found. The matrices are linalg's integer form throughout."""

from __future__ import annotations

import itertools
import math
from operator import mul
from typing import NamedTuple

from . import linalg
from .etale import Coords, EtaleAlgebra, sorted_elements
from .linalg import IntMat
from .matgroups import enumerate_automorphisms
from .polynomials import QPoly, discriminant
from .units import _by_size

COEFF_BOX = 20  # coefficient box of the unimodular point in the intertwiner space


class ConjugacyResult(NamedTuple):
    """P ∈ GL_n(Z) conjugating the regular representation onto the targets.

    Each automorphism target is P·m·P⁻¹ for the matrix m of some automorphism
    of the order, from enumerate_automorphisms."""

    conjugator: IntMat  # P with P·π(a)·P⁻¹ = targets
    unit_elements: list[Coords]  # u_i with P·π(u_i)·P⁻¹ = unit target i
    discovered_basis: IntMat  # rows: a Z-basis of the order realizing the targets
    transposed: bool


def order_elements_with_charpoly(e: EtaleAlgebra, m: IntMat) -> list[Coords]:
    """Every order element whose regular matrix has the characteristic
    polynomial of the matrix m.

    Smallest first, by 1-norm and then coordinates. An order element has an
    integral charpoly, so an m whose charpoly is not integral matches none.
    """
    cp = linalg.integral_charpoly(m)
    if cp is None:
        return []
    found = [b for b in e.elements_with_charpoly(QPoly(cp)) if b[1] == 1]
    return sorted_elements(found, _by_size)


def _condition_rows(a: IntMat, b: IntMat, n: int) -> list[list[int]]:
    """Rows of da·db·(P·A − B·P) = 0 in the n² entries of P, for IntMats
    A = ra/da, B = rb/db: entry (i, j) is Σ_k db·ra[k][j]·P[i][k] − da·rb[i][k]·P[k][j]."""
    (ra, da), (rb, db) = a, b
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] += db * ra[k][j]
                row[k * n + j] -= da * rb[i][k]
            rows.append(row)
    return rows


def _unimodular_point(space: list[list[int]], n: int, coeff_box: int) -> IntMat | None:
    """An integer n×n matrix with det ±1 in the span of the space, if any.

    The space is given by flattened integer matrices, each taken primitive
    (divided by the gcd of its entries). One matrix is tried as it is;
    several are combined with every coefficient vector in the box, in
    itertools.product order.
    """
    prim = []
    for v in space:
        g = math.gcd(*v) or 1
        prim.append([x // g for x in v])
    if len(prim) == 1:
        boxes = [(1,)]
    else:
        boxes = itertools.product(range(-coeff_box, coeff_box + 1), repeat=len(prim))
    for coeffs in boxes:
        if any(coeffs):
            flat = [sum(map(mul, coeffs, col)) for col in zip(*prim)]
            rows = tuple(tuple(flat[i : i + n]) for i in range(0, n * n, n))
            if abs(linalg.int_det(rows)) == 1:
                return rows, 1
    return None


def find_simultaneous_conjugator(
    e: EtaleAlgebra, unit_targets: list[IntMat], auto_targets: list[IntMat]
) -> ConjugacyResult | None:
    """P ∈ GL_n(Z) conjugating the regular representation onto the targets.

    Searches both the targets as given and their transposes (the two matrix
    conventions for a regular representation). Every order element with the
    first unit target's charpoly is tried; None means that no unimodular
    point within coefficient box COEFF_BOX of any intertwiner space was
    found.
    """
    autos = enumerate_automorphisms(e)
    if not unit_targets:
        return None
    # charpoly is transposition-invariant, so the candidate pool is shared;
    # every candidate is primitive exactly when the charpoly is squarefree,
    # and there is none unless it is integral
    chi = linalg.integral_charpoly(unit_targets[0])
    if chi is None or not discriminant(QPoly(chi)):
        return None
    candidates = order_elements_with_charpoly(e, unit_targets[0])
    # the automorphisms with each automorphism target's charpoly, shared too:
    # an automorphism of O lies in GL_n(Z), so its charpoly is integral, and a
    # target whose charpoly is not (None) matches none of them
    auto_cps = [linalg.integral_charpoly(a) for a in autos]
    matches = []
    for t in auto_targets:
        chi_t = linalg.integral_charpoly(t)
        matches.append([a for a, cp in zip(autos, auto_cps) if cp == chi_t])
    for transposed in (False, True):
        tgt_units = [
            linalg.transpose(t) if transposed else t for t in unit_targets
        ]
        tgt_autos = [linalg.transpose(t) if transposed else t for t in auto_targets]
        result = _search_one_convention(e, tgt_units, tgt_autos, matches, candidates)
        if result is not None:
            p, pinv, units = result
            basis = _discovered_basis(e, pinv)
            return ConjugacyResult(p, units, basis, transposed)
    return None


def _search_one_convention(e, units, tgt_autos, matches, candidates):
    n = e.n
    # each automorphism target's possible automorphisms, by charpoly, each
    # assignment with its condition rows, which do not depend on u0
    assignments = [
        [(a, t, _condition_rows(a, t, n)) for a in same_cp]
        for t, same_cp in zip(tgt_autos, matches)
    ]
    for u0 in candidates:
        # u0 primitive: P·π(u0) = T_0·P gives P·π(g(u0)) = g(T_0)·P for every
        # polynomial g, so this one condition fixes the algebra map
        unit_condition = (e._int_rep(u0), units[0])
        # the basis Q of the space, each Q_i the kernel's normal form times one
        # positive integer, so _unimodular_point sees the same primitive rows
        q_ints = linalg._int_kernel(_condition_rows(*unit_condition, n), n * n)
        if not q_ints:
            continue
        # each assignment's condition on the coefficients c of P = Σ c_i·Q_i
        # over the space: its reduced rows, or None when they force c = 0
        options = [
            [(a, t, _restricted(rows, q_ints)) for a, t, rows in choices]
            for choices in assignments
        ]
        for combo in itertools.product(*options):
            if any(rows is None for *_, rows in combo):
                continue
            stacked = [list(row) for *_, rows in combo for row in rows]  # _int_kernel consumes it
            coeffs = linalg._int_kernel(stacked, len(q_ints))
            # Q is in the kernel's normal form and Q_i vanishes past its free
            # column, so the Σ c_i·Q_i are the normal form of the stacked
            # system (here up to a positive scale, which _unimodular_point drops)
            found = [[sum(map(mul, cs, col)) for col in zip(*q_ints)] for cs in coeffs]
            pi = _unimodular_point(found, n, COEFF_BOX)
            if pi is None:
                continue
            pinv = linalg._int_inv(pi)
            conditions = [unit_condition] + [(a, t) for a, t, _ in combo]
            if not all(linalg._int_mul(linalg._int_mul(pi, a), pinv) == b for a, b in conditions):
                continue
            elements = _read_off_units(e, pi, pinv, units[1:])
            if elements is not None:
                return pi, pinv, [u0] + elements
    return None


def _restricted(rows: list[list[int]], q_ints: list[list[int]]) -> list[list[int]] | None:
    """The d·RREF rows of rows·Q, Q the basis q_ints as columns; None at full rank."""
    restricted = [[sum(map(mul, row, q)) for q in q_ints] for row in rows]
    reduced, pivots, _ = linalg._int_rref(restricted, len(q_ints))
    return reduced if len(pivots) < len(q_ints) else None


def _read_off_units(e: EtaleAlgebra, p: IntMat, pinv: IntMat, targets: list[IntMat]):
    """Order elements c with π(c) = P⁻¹·T·P for each target T, or None."""
    units = []
    for t in targets:
        m = linalg._int_mul(linalg._int_mul(pinv, t), p)
        c = linalg._int_mat_vec(m, e.one())  # column of 1: the coordinates of c·1
        if m[1] != 1 or e._int_rep(c) != m:
            return None
        units.append(c)
    return units


def _discovered_basis(e: EtaleAlgebra, pinv: IntMat) -> IntMat:
    """Order basis realizing the targets: rows B' = P^{-T}·B.

    With coordinates as columns, a basis change B' = U·B conjugates the
    representation by U^{-T}; here P = U^{-T}, so U = P^{-T}, and
    B'^T = B^T·P⁻¹ (e._basis_int is B^T).
    """
    return linalg.transpose(linalg._int_mul(e._basis_int, pinv))
