"""Per-place decomposition data for number fields of degree at most 4.

A field Q[x]/(f) comes with the transitive action of the Galois group of its
splitting field on the deg(f) embeddings. The nine groups that occur through
degree 4 are one table, STANDARD_TAGS: rational characters on rational
classes, which standard_tag expands to per-element values for the torus
layer's module decomposition. Decomposition groups are cyclic here:
complex conjugation at ∞ and Frobenius at an unramified prime, both known
through their cycle type. Ramified primes are a hard error, never a guess.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import NoSuchElementError, RamifiedPlaceError, UnsupportedError
from .polynomials import (
    MEMO_SIZE,
    QPoly,
    _integer_roots,
    _mul_mod_monic,
    discriminant,
    factor_mod_p,
    fp_mod,
    fp_strip,
    is_irreducible_q,
    is_prime,
    is_square_integer,
    strip_primes,
)
from .realsplit import root_disks

Perm = tuple[int, ...]

INF = "inf"
Place = int | str  # a prime, or the string "inf"


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a∘b)(x) = a[b[x]]."""
    return tuple(a[b[i]] for i in range(len(a)))


def cycle_type(a: Perm) -> tuple[int, ...]:
    """Cycle lengths, sorted ascending (fixed points included)."""
    seen = [False] * len(a)
    out = []
    for i in range(len(a)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = a[j]
                length += 1
            out.append(length)
    return tuple(sorted(out))


def orbits_of(perms: list[Perm], n: int) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of {0..n-1} under the group generated by perms."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i in range(n):
            a, b = find(i), find(p[i])
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(v)) for _, v in sorted(groups.items()))


class Signature(NamedTuple):
    r1: int
    r2: int

    @property
    def degree(self) -> int:
        return self.r1 + 2 * self.r2


class RationalCharacter(NamedTuple):
    """A Q-irreducible character: name, dimension, value on each element."""

    name: str
    dim: int
    values: tuple[int, ...]


class GaloisTag(NamedTuple):
    """A finite group with a permutation action on the embeddings.

    ``elements`` lists every group element as a permutation (index 0 is the
    identity); ``characters`` holds the rational character table indexed the
    same way. The standard tags built by :func:`galois_group_small` act
    transitively on deg(f) points.
    """

    group: str
    elements: tuple[Perm, ...]
    characters: tuple[RationalCharacter, ...]

    @property
    def degree(self) -> int:
        return len(self.elements[0])

    @property
    def order(self) -> int:
        return len(self.elements)

    def find_by_cycle_type(self, ctype: tuple[int, ...]) -> Perm:
        for g in sorted(self.elements):
            if cycle_type(g) == ctype:
                return g
        raise NoSuchElementError(
            f"group {self.group} has no element of cycle type {ctype}"
        )


def _closure(generators: tuple[Perm, ...], n: int) -> list[Perm]:
    """The group the generators generate: the identity, then the rest sorted."""
    ident = tuple(range(n))
    elements = frontier = {ident}
    while frontier:
        frontier = {perm_compose(g, e) for e in frontier for g in generators} - elements
        elements = elements | frontier
    return [ident] + sorted(elements - {ident})


def _class_columns(elements: list[Perm], classes: tuple[Perm, ...]) -> dict[Perm, int]:
    """Each element's rational class, as an index into ``classes``, which
    names each class by one member g: the class holds every x·g^k·x⁻¹ with k
    prime to the order of g, the h for which ⟨h⟩ is conjugate to ⟨g⟩. Each
    class is marked once, conjugating the generators of ⟨g⟩ by every x."""
    inverses = [tuple(map(x.index, range(len(x)))) for x in elements]
    column: dict[Perm, int] = {}
    for c, g in enumerate(classes):
        powers = [g]
        while powers[-1] != elements[0]:
            powers.append(perm_compose(g, powers[-1]))
        for k, gk in enumerate(powers, 1):
            if math.gcd(k, len(powers)) == 1:
                for x, x_inverse in zip(elements, inverses):
                    column[tuple([x[gk[i]] for i in x_inverse])] = c
    return column


# Each group: its rational classes, named by their least elements, and its
# rational characters by name, with their values on those classes; the
# first class is the identity, where a character's value is its degree. A
# Q-valued character is constant on rational classes, and there are as many
# Q-irreducible characters as classes (Serre, Linear Representations of
# Finite Groups, §13.1), so each table is square. The classes also generate
# the group: no proper subgroup meets every conjugacy class (Jordan).
STANDARD_TAGS: dict[str, tuple] = {
    "C1": (((0,),), {"triv": (1,)}),
    "C2": (((0, 1), (1, 0)), {"triv": (1, 1), "sgn": (1, -1)}),
    "C3": (((0, 1, 2), (1, 2, 0)), {"triv": (1, 1), "omega-pair": (2, -1)}),
    "S3": (
        ((0, 1, 2), (0, 2, 1), (1, 2, 0)),
        {"triv": (1, 1, 1), "sgn": (1, -1, 1), "std": (2, 0, -1)},
    ),
    "C4": (
        ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1)),
        {"triv": (1, 1, 1), "sgn": (1, -1, 1), "i-pair": (2, 0, -2)},
    ),
    "V4": (  # one class for each involution, as for each quadratic subfield
        ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
        {
            "triv": (1, 1, 1, 1),
            "chi1": (1, 1, -1, -1),
            "chi2": (1, -1, 1, -1),
            "chi3": (1, -1, -1, 1),
        },
    ),
    "D4": (  # r = (0123), s = (13); classes e, s, rs, r, r²
        ((0, 1, 2, 3), (0, 3, 2, 1), (1, 0, 3, 2), (1, 2, 3, 0), (2, 3, 0, 1)),
        {
            "triv": (1, 1, 1, 1, 1),
            "chi-r": (1, -1, -1, 1, 1),
            "chi-s": (1, 1, -1, -1, 1),
            "chi-rs": (1, -1, 1, -1, 1),
            "std2": (2, 0, 0, 0, -2),
        },
    ),
    "A4": (  # classes e, the 3-cycles, the double transpositions
        ((0, 1, 2, 3), (0, 2, 3, 1), (1, 0, 3, 2)),
        {"triv": (1, 1, 1), "omega-pair": (2, -1, 2), "std": (3, 0, -1)},
    ),
    "S4": (  # classes e, (23), (123), (01)(23), (0123)
        ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 3, 1), (1, 0, 3, 2), (1, 2, 3, 0)),
        {
            "triv": (1, 1, 1, 1, 1),
            "sgn": (1, -1, 1, 1, -1),
            "two": (2, 0, -1, 2, 0),
            "std": (3, 1, 0, -1, -1),
            "stdsgn": (3, -1, 0, -1, 1),
        },
    ),
}


@functools.lru_cache(maxsize=len(STANDARD_TAGS))
def standard_tag(name: str) -> GaloisTag:
    """The tag of one of the nine groups, built once per process: an immutable
    GaloisTag of tuples, a function of its name alone."""
    if name not in STANDARD_TAGS:
        raise UnsupportedError(f"unknown Galois tag {name!r}")
    classes, characters = STANDARD_TAGS[name]
    elements = _closure(classes, len(classes[0]))
    column = _class_columns(elements, classes)
    chars = tuple(
        RationalCharacter(char, values[0], tuple(values[column[g]] for g in elements))
        for char, values in characters.items()
    )
    return GaloisTag(name, tuple(elements), chars)


class PlaceProfile(NamedTuple):
    """Decomposition data at one place: orbit partition of the embeddings."""

    place: Place
    orbits: tuple[tuple[int, ...], ...]
    generator: Perm

    @property
    def num_places_over(self) -> int:
        return len(self.orbits)

    def place_str(self) -> str:
        return INF if self.place == INF else f"p:{self.place}"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def signature(f: QPoly) -> Signature:
    """(r1, r2) of the field Q[x]/(f) for monic integral squarefree f.

    r1 counts the certified root disks centred on the real axis, each of
    which holds exactly one real root (realsplit.root_disks, memoized).
    """
    r1 = sum(1 for disk in root_disks(f, 1) if disk.im == 0)
    return Signature(r1, (f.degree - r1) // 2)


class PrimePlaces:
    """The places of Q[x]/(f) over an unramified prime p.

    Place i is the ideal P_i = (p, g_i(x)) for the i-th irreducible factor
    g_i of f mod p. As p ∤ disc(f), Z[x]/(f) is p-maximal and pO = ∏ P_j, so
    p is a uniformizer at every P_i. β_i = ∏_{j≠i} g_j(x) lies in every
    other P_j and outside P_i: for γ in P_i, γ·β_i lies in pO, and γ·β_i/p
    is integral with ord_{P_i} one lower.
    """

    def __init__(self, f: QPoly, p: int):
        if not is_prime(p):
            raise UnsupportedError(f"{p} is not prime")
        if discriminant(f) % p == 0:
            raise RamifiedPlaceError(p, discriminant(f))
        self._f = f.coeffs  # ascending
        self.p = p
        self.factors = tuple(g for g, _ in factor_mod_p(f, p))
        self.residue_degrees = tuple(len(g) - 1 for g in self.factors)
        self.count = len(self.factors)
        self._betas = [  # integer coefficients, ascending
            functools.reduce(lambda a, g: _mul_mod_monic(a, g, self._f), others, [1])
            for others in (self.factors[:i] + self.factors[i + 1 :] for i in range(self.count))
        ]

    def valuation(self, i: int, power: tuple[tuple[int, ...], int]) -> int:
        """ord at place i of the nonzero element with power coordinates ints/den.

        ord_P(u/m) = ord_P(u) − v_p(m) for rational m since p is unramified
        and ord_P vanishes on prime-to-p rationals. Each step γ ← γ·β_i/p
        while g_i divides γ mod p lowers ord_{P_i}(γ) by exactly one.
        """
        ints, den = power
        if not any(ints):
            raise ValueError("valuation of zero")
        p, g = self.p, self.factors[i]
        _, exps = strip_primes(den, (p,))
        gamma, m = list(ints), 0
        while not fp_mod(fp_strip([c % p for c in gamma]), g, p):
            gamma = _mul_mod_monic(gamma, self._betas[i], self._f)
            assert all(c % p == 0 for c in gamma)
            gamma = [c // p for c in gamma]
            m += 1
        return m - exps[p]


@functools.lru_cache(maxsize=MEMO_SIZE)
def prime_places(f: QPoly, p: int) -> PrimePlaces:
    """The places over p of Q[x]/(f), built once per (f, p): the Galois data
    and the log embedding share one factorization of f mod p. Nothing edits
    a PrimePlaces once made; a ramified p raises before anything is stored."""
    return PrimePlaces(f, p)


def places_over_p(f: QPoly, p: int) -> int:
    """Number of places of Q[x]/(f) over an unramified prime p."""
    return prime_places(f, p).count


def frobenius_cycle_type(f: QPoly, p: int) -> tuple[int, ...]:
    """The degrees of the factors of f mod p, for unramified p, sorted as
    factor_mod_p sorts them: the cycle type of Frobenius, one cycle per place."""
    return prime_places(f, p).residue_degrees


@functools.lru_cache(maxsize=MEMO_SIZE)
def galois_group_small(f: QPoly) -> GaloisTag:
    """Galois group of the splitting field for monic irreducible f, deg ≤ 4.

    Degree 3 uses the discriminant-square test. Degree 4 finds the rational
    roots of the cubic resolvent, which is monic integral with discriminant
    disc f ≠ 0, so they are its integer roots; it distinguishes C4 from D4
    by the Kappe–Warren quadratic criterion over Q(√disc). Cached per
    polynomial; a standard tag is immutable.
    """
    if f.degree > 4:
        raise UnsupportedError("Galois groups are only computed through degree 4")
    if not is_irreducible_q(f):
        raise ValueError(f"{list(f.coeffs)} is not irreducible over Q")
    d = f.degree
    if d == 1:
        return standard_tag("C1")
    if d == 2:
        return standard_tag("C2")
    disc = discriminant(f)
    if d == 3:
        return standard_tag("C3" if is_square_integer(disc) else "S3")
    dd, c, b, a = f.coeffs[:4]
    resolvent = QPoly([-(a * a * dd - 4 * b * dd + c * c), a * c - 4 * dd, -b, 1])
    roots = _integer_roots(resolvent)
    if len(roots) == 0:
        return standard_tag("A4" if is_square_integer(disc) else "S4")
    if len(roots) == 3:
        return standard_tag("V4")
    beta = roots[0]  # C4 when both of these are squares in Q(√disc), else D4
    quadratics = (a * a - 4 * (b - beta), beta * beta - 4 * dd)
    c4 = all(is_square_integer(q) or is_square_integer(q * disc) for q in quadratics)
    return standard_tag("C4" if c4 else "D4")


def automorphism_count(tag: GaloisTag) -> int:
    """|Aut(K)| = |N_G(H)/H| for K = Q[x]/(f) with Galois tag ``tag``: the
    stabilizer H of root 0 fixes exactly the roots of f in K, one per automorphism."""
    stabilizer = [g for g in tag.elements if g[0] == 0]
    return sum(all(g[i] == i for g in stabilizer) for i in range(tag.degree))


def decomposition_profile(f: QPoly, tag: GaloisTag, place: Place) -> PlaceProfile:
    """Cyclic decomposition group at a place: its generator and orbits.

    At ∞ the generator is an involution with r1 fixed points (identity when
    the field is totally real); at an unramified p it is the first element
    whose cycle type matches the mod-p factorization degrees. Whole-module
    ranks only use the orbit count. Submodule ranks are character means
    over the generator's powers, so they depend on its rational class, which
    the cycle type fixes except for type (2,2) in V4 and D4 (separate classes
    in STANDARD_TAGS): there the element chosen need not be the true one.
    """
    if tag.degree != f.degree:
        raise ValueError("tag action degree does not match deg f")
    if place == INF:
        sig = signature(f)
        target = tuple(sorted([1] * sig.r1 + [2] * sig.r2))
    else:
        target = frobenius_cycle_type(f, int(place))
    gen = tag.find_by_cycle_type(target)
    return PlaceProfile(place, orbits_of([gen], tag.degree), gen)
