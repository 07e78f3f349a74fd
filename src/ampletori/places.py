"""Per-place decomposition data for number fields of degree at most 4.

A field Q[x]/(f) comes with the transitive action of the Galois group of its
splitting field on the deg(f) embeddings. The nine groups that occur through
degree 4 are stored with their full element lists and rational character
tables (the characters drive the module decomposition in the torus layer).
Decomposition groups are cyclic here: generated by complex conjugation at the
real place and by Frobenius at an unramified prime, both known through their
cycle type. Ramified primes are a hard error — the artifact never guesses.
"""

from __future__ import annotations

import functools
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


def _closure(generators: list[Perm], n: int) -> list[Perm]:
    ident = tuple(range(n))
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                h = perm_compose(g, e)
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    return [ident] + sorted(elements - {ident})


def _chars_by_cycle_type(elements, table: dict[tuple[int, ...], dict[str, int]], dims):
    chars = []
    for name, dim in dims:
        values = tuple(table[cycle_type(g)][name] for g in elements)
        chars.append(RationalCharacter(name, dim, values))
    return tuple(chars)


def _build_c1() -> GaloisTag:
    e = ((0,),)
    return GaloisTag("C1", e, (RationalCharacter("triv", 1, (1,)),))


def _build_c2() -> GaloisTag:
    els = ((0, 1), (1, 0))
    return GaloisTag(
        "C2",
        els,
        (
            RationalCharacter("triv", 1, (1, 1)),
            RationalCharacter("sgn", 1, (1, -1)),
        ),
    )


def _build_c3() -> GaloisTag:
    r = (1, 2, 0)
    els = (tuple(range(3)), r, perm_compose(r, r))
    return GaloisTag(
        "C3",
        els,
        (
            RationalCharacter("triv", 1, (1, 1, 1)),
            RationalCharacter("omega-pair", 2, (2, -1, -1)),
        ),
    )


def _build_s3() -> GaloisTag:
    els = tuple(_closure([(1, 0, 2), (1, 2, 0)], 3))
    table = {
        (1, 1, 1): {"triv": 1, "sgn": 1, "std": 2},
        (1, 2): {"triv": 1, "sgn": -1, "std": 0},
        (3,): {"triv": 1, "sgn": 1, "std": -1},
    }
    return GaloisTag(
        "S3", els, _chars_by_cycle_type(els, table, [("triv", 1), ("sgn", 1), ("std", 2)])
    )


def _build_c4() -> GaloisTag:
    r = (1, 2, 3, 0)
    els = (tuple(range(4)), r, perm_compose(r, r), perm_compose(r, perm_compose(r, r)))
    table = {
        (1, 1, 1, 1): {"triv": 1, "sgn": 1, "i-pair": 2},
        (4,): {"triv": 1, "sgn": -1, "i-pair": 0},
        (2, 2): {"triv": 1, "sgn": 1, "i-pair": -2},
    }
    return GaloisTag(
        "C4", els, _chars_by_cycle_type(els, table, [("triv", 1), ("sgn", 1), ("i-pair", 2)])
    )


def _build_v4() -> GaloisTag:
    e = (0, 1, 2, 3)
    a = (1, 0, 3, 2)
    b = (2, 3, 0, 1)
    ab = perm_compose(a, b)
    els = (e, a, b, ab)
    signs = {"triv": (1, 1), "chi1": (1, -1), "chi2": (-1, 1), "chi3": (-1, -1)}
    chars = []
    for name, (sa, sb) in signs.items():
        vals = (1, sa, sb, sa * sb)
        chars.append(RationalCharacter(name, 1, vals))
    return GaloisTag("V4", els, tuple(chars))


def _build_d4() -> GaloisTag:
    r = (1, 2, 3, 0)
    s = (0, 3, 2, 1)  # reflection fixing 0 and 2
    els = []
    words = []
    g = tuple(range(4))
    for a_exp in range(4):
        els.append(g)
        words.append((a_exp, 0))
        g = perm_compose(r, g)
    g = s
    for a_exp in range(4):
        els.append(g)
        words.append((a_exp, 1))
        g = perm_compose(r, g)
    chars = []
    for name, (alpha, beta) in {
        "triv": (1, 1),
        "chi-r": (1, -1),
        "chi-s": (-1, 1),
        "chi-rs": (-1, -1),
    }.items():
        vals = tuple(alpha**a * beta**b for a, b in words)
        chars.append(RationalCharacter(name, 1, vals))
    twodim = {0: 2, 1: 0, 2: -2, 3: 0}
    vals = tuple(twodim[a] if b == 0 else 0 for a, b in words)
    chars.append(RationalCharacter("std2", 2, vals))
    return GaloisTag("D4", tuple(els), tuple(chars))


def _build_a4() -> GaloisTag:
    els = tuple(_closure([(1, 0, 3, 2), (1, 2, 0, 3)], 4))
    assert len(els) == 12
    table = {
        (1, 1, 1, 1): {"triv": 1, "omega-pair": 2, "std": 3},
        (2, 2): {"triv": 1, "omega-pair": 2, "std": -1},
        (1, 3): {"triv": 1, "omega-pair": -1, "std": 0},
    }
    return GaloisTag(
        "A4",
        els,
        _chars_by_cycle_type(els, table, [("triv", 1), ("omega-pair", 2), ("std", 3)]),
    )


def _build_s4() -> GaloisTag:
    els = tuple(_closure([(1, 0, 2, 3), (1, 2, 3, 0)], 4))
    assert len(els) == 24
    table = {
        (1, 1, 1, 1): {"triv": 1, "sgn": 1, "two": 2, "std": 3, "stdsgn": 3},
        (1, 1, 2): {"triv": 1, "sgn": -1, "two": 0, "std": 1, "stdsgn": -1},
        (2, 2): {"triv": 1, "sgn": 1, "two": 2, "std": -1, "stdsgn": -1},
        (1, 3): {"triv": 1, "sgn": 1, "two": -1, "std": 0, "stdsgn": 0},
        (4,): {"triv": 1, "sgn": -1, "two": 0, "std": -1, "stdsgn": 1},
    }
    return GaloisTag(
        "S4",
        els,
        _chars_by_cycle_type(
            els,
            table,
            [("triv", 1), ("sgn", 1), ("two", 2), ("std", 3), ("stdsgn", 3)],
        ),
    )


STANDARD_TAGS = {
    "C1": _build_c1,
    "C2": _build_c2,
    "C3": _build_c3,
    "S3": _build_s3,
    "C4": _build_c4,
    "V4": _build_v4,
    "D4": _build_d4,
    "A4": _build_a4,
    "S4": _build_s4,
}


@functools.lru_cache(maxsize=len(STANDARD_TAGS))
def standard_tag(name: str) -> GaloisTag:
    """The tag of one of the nine groups, built once per process: an immutable
    GaloisTag of tuples, a function of its name alone."""
    if name not in STANDARD_TAGS:
        raise UnsupportedError(f"unknown Galois tag {name!r}")
    return STANDARD_TAGS[name]()


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
        raise ValueError(f"{f!r} is not irreducible over Q")
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
    beta = roots[0]

    def square_in_q_sqrt_disc(q: int) -> bool:
        return is_square_integer(q) or is_square_integer(q * disc)

    if square_in_q_sqrt_disc(a * a - 4 * (b - beta)) and square_in_q_sqrt_disc(
        beta * beta - 4 * dd
    ):
        return standard_tag("C4")
    return standard_tag("D4")


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
    over the generator's powers, so they depend on its conjugacy class,
    which the cycle type fixes except for type (2,2) in V4 and D4: there
    the element chosen need not be the true decomposition generator.
    """
    if tag.degree != f.degree:
        raise ValueError("tag action degree does not match deg f")
    if place == INF:
        sig = signature(f)
        target = tuple(sorted([1] * sig.r1 + [2] * sig.r2))
        gen = tag.find_by_cycle_type(target)
    else:
        target = frobenius_cycle_type(f, int(place))
        gen = tag.find_by_cycle_type(target)
    return PlaceProfile(place, orbits_of([gen], tag.degree), gen)
