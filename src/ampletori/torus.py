"""Maximal tori of GL_n/SL_n from étale algebras and the S-ample decision.

The cocharacter module of the torus attached to a degree-n algebra is Q^n
with the Galois action permuting embeddings (GL case) or its zero-sum
subspace (SL norm-one case). It is held as its character, never as a basis:
ψ(g) = #fix(g), minus the trivial character for SL. Local ranks are
dimensions of decomposition-group invariants, and for a module with
character φ, dim W^D = ⟨φ|_D, 1⟩_D is the mean of φ over D (Serre,
*Linear Representations of Finite Groups*, §2.3 and ch. 12). So the whole
module has rank #orbits − [SL] globally and Σ #places over v − [SL] at v,
and one copy of the Q-irreducible V_χ of a rational character χ has rank
mean(χ over D). Ranks add over a direct sum, so a submodule has the sum of
its copies' ranks. Every certificate witness is a pair of dimensions that
can be replayed from the certificate alone.

Condition (ii) of the ampleness definition is discharged structurally (a
maximal torus is its own centralizer) and recorded as such. Condition (iii)
quantifies over proper Galois submodules. Every submodule of the isotypic
part V_χ^m is isomorphic to V_χ^k for some 0 ≤ k ≤ m (Serre, §2.6), so
the submodules fall into finitely many dimension vectors (k_χ), all of one
vector sharing its ranks, and (iii) is decided for every module.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import InputError, UnsupportedError
from .etale import EtaleAlgebra
from .places import (
    INF,
    GaloisTag,
    Perm,
    Place,
    PlaceProfile,
    RationalCharacter,
    decomposition_profile,
    galois_group_small,
    orbits_of,
    perm_compose,
)
from .polynomials import is_prime

SL = "SL"
GL = "GL"

VERDICT_AMPLE = "S-ample"
VERDICT_NOT_AMPLE = "not-S-ample"

_SINGLE_FACTOR_ONLY = "submodule decomposition is implemented for single-factor algebras"


def finite_place(value: int | str, path: str) -> int:
    """The prime that value, an int or an int's text, names, else an InputError at path."""
    try:
        p = int(value) if isinstance(value, (int, str)) and not isinstance(value, bool) else 0
    except ValueError:
        p = 0
    if not is_prime(p):
        raise InputError(f"finite place {value} is not a prime", path)
    return p


def parse_place(token: str, path: str) -> Place:
    """INF for "inf", "infty" or "oo", else the prime token names (finite_place)."""
    return INF if token in ("inf", "infty", "oo") else finite_place(token, path)


class _PlaceSet(NamedTuple):
    include_infty: bool
    finite_primes: tuple[int, ...]


class PlaceSet(_PlaceSet):
    """The set S of places: the real place plus finitely many primes.

    The real place is mandatory (the ambient groups here are noncompact at
    ∞, so the standing assumption R_∞ ∖ T(G) ⊆ S forces it).
    """

    __slots__ = ()

    def __new__(cls, include_infty: bool, finite_primes: tuple[int, ...]):
        if not include_infty:
            raise UnsupportedError("S must contain the real place for SL_n/GL_n over Q")
        primes = {finite_place(p, "places") for p in finite_primes}
        return super().__new__(cls, include_infty, tuple(sorted(primes)))

    def places(self) -> list[Place]:
        return [INF] + list(self.finite_primes)

    @staticmethod
    def parse(text: str) -> "PlaceSet":
        """Parse "inf,5,7"-style place lists (parse_place)."""
        places = [parse_place(t.strip(), "places") for t in text.split(",") if t.strip()]
        return PlaceSet(INF in places, tuple(p for p in places if p != INF))

    def __str__(self):
        return ",".join(["inf"] + [str(p) for p in self.finite_primes])


class _TorusDatum(NamedTuple):
    ambient: str
    tags: tuple[GaloisTag, ...]
    algebra: EtaleAlgebra | None = None


class TorusDatum(_TorusDatum):
    """A maximal torus given by its Galois-module data.

    ``tags`` holds one Galois tag per algebra factor, acting on consecutive
    blocks of embeddings. The cocharacter module is fixed by ``ambient``:
    all of Q^n for GL, the zero-sum subspace for SL, so it is Galois-stable
    by construction. ``algebra`` is None only for hand-built module data
    (used to drive module-level checks without a number-theoretic origin);
    place profiles, local_rank and is_s_ample then raise UnsupportedError.
    """

    __slots__ = ()

    def __new__(cls, ambient: str, tags: tuple[GaloisTag, ...], algebra=None):
        if ambient not in (SL, GL):
            raise UnsupportedError(f"ambient group {ambient!r} not supported")
        return super().__new__(cls, ambient, tags, algebra)

    @property
    def n(self) -> int:
        return sum(tag.degree for tag in self.tags)

    @property
    def num_factors(self) -> int:
        return len(self.tags)

    @property
    def dim(self) -> int:
        return self.n - (self.ambient == SL)


class Component(NamedTuple):
    """One isotypic piece of the cocharacter module: the rational character
    χ and the number m of times each of its irreducible constituents occurs."""

    char: RationalCharacter
    multiplicity: int

    @property
    def character(self) -> str:
        return self.char.name

    @property
    def dim(self) -> int:
        return self.multiplicity * self.char.dim


def require_supported_degrees(degrees) -> None:
    """Refuse factors of degree > 4, past which no Galois tag is computed.

    Request parsing calls this before the algebra is built, because the
    irreducibility test's split-prime search grows with |Gal(f)|, up to n!.
    """
    if any(d > 4 for d in degrees):
        raise UnsupportedError("factors of degree > 4 are not supported")


def build_torus(e: EtaleAlgebra, ambient: str) -> TorusDatum:
    """TorusDatum for the maximal torus π(E^×) ∩ ambient.

    The order must verify; each factor's Galois group must be computable
    (degree ≤ 4). For SL the module is the zero-sum subspace.
    """
    e.require_order()
    require_supported_degrees(e.degrees)
    return TorusDatum(ambient, tuple(galois_group_small(f) for f in e.factors), e)


def center_rank(ambient: str) -> int:
    """Q-rank of the center: 1 for GL_n (scalars), 0 for SL_n (finite)."""
    return 1 if ambient == GL else 0


def _module_rank(t: TorusDatum, orbit_count: int) -> int:
    """dim of the invariants of the whole module under a group with that many
    orbits on the embeddings: one per orbit, less the trivial line for SL."""
    return orbit_count - (t.ambient == SL)


def global_rank(t: TorusDatum) -> int:
    """dim of Galois invariants of the cocharacter module (ℓ or ℓ−1)."""
    return _module_rank(
        t, sum(len(orbits_of(list(tag.elements), tag.degree)) for tag in t.tags)
    )


def place_profiles(t: TorusDatum, place: Place) -> list[PlaceProfile]:
    if t.algebra is None:
        raise UnsupportedError("place profiles need the defining algebra")
    return [
        decomposition_profile(f, tag, place)
        for f, tag in zip(t.algebra.factors, t.tags)
    ]


def local_rank(t: TorusDatum, place: Place) -> int:
    """dim of decomposition-group invariants at the place: the number of
    places of E over v for GL, one fewer for SL."""
    return _module_rank(t, sum(p.num_places_over for p in place_profiles(t, place)))


def decompose_module(t: TorusDatum) -> tuple[Component, ...]:
    """Isotypic decomposition via the group's rational character table.

    Single-factor modules only. The module's character is ψ(g) = #fix(g) −
    [SL], and a rational character χ occurs ⟨ψ, χ⟩/⟨χ, χ⟩ times (the inner
    product of two rational characters is a sum over the group, divided by
    its order, which cancels in the quotient).
    """
    if t.num_factors != 1:
        raise UnsupportedError(_SINGLE_FACTOR_ONLY)
    tag = t.tags[0]
    drop = t.ambient == SL
    psi = [sum(1 for i, j in enumerate(g) if i == j) - drop for g in tag.elements]
    comps = []
    for char in tag.characters:
        inner = sum(a * b for a, b in zip(psi, char.values))
        norm = sum(x * x for x in char.values)
        m, rest = divmod(inner, norm)
        if rest:
            raise AssertionError(f"character {char.name} occurs {inner}/{norm} times")
        if m:
            comps.append(Component(char, m))
    if sum(c.dim for c in comps) != t.dim:
        raise AssertionError("isotypic components do not span the module")
    return tuple(comps)


def component_rank(tag: GaloisTag, char: RationalCharacter, gen: Perm) -> int:
    """dim of the invariants of one copy of V_χ under D = ⟨gen⟩: the mean of
    χ over the powers of gen. A mean that is not an integer means a wrong
    character table."""
    values, g = [], gen
    while True:
        values.append(char.values[tag.elements.index(g)])
        if g == tag.elements[0]:
            break
        g = perm_compose(gen, g)
    rank, rest = divmod(sum(values), len(values))
    if rest:
        raise AssertionError(f"character {char.name} has mean rank {sum(values)}/{len(values)}")
    return rank


# ---------------------------------------------------------------------------
# the S-ample certificate
# ---------------------------------------------------------------------------


class SubmoduleWitness(NamedTuple):
    """A dimension vector: ``components`` lists component index i k_i times."""

    components: tuple[int, ...]
    dim: int
    witness_place: str | None
    sub_rank_at_witness: int | None
    torus_rank_at_witness: int | None
    local_ranks: dict[str, tuple[int, int]]

    @property
    def passes(self) -> bool:
        return (
            self.witness_place is not None
            and self.sub_rank_at_witness < self.torus_rank_at_witness
        )


class AmpleCertificate(NamedTuple):
    """Verdict plus per-condition evidence, replayable from its own data."""

    verdict: str
    ambient: str
    n: int
    places: list[str]
    condition_i: dict
    condition_ii: dict
    condition_iii: dict
    local_ranks: dict[str, int]
    global_rank: int
    submodules: list[SubmoduleWitness]


def is_s_ample(t: TorusDatum, s: PlaceSet) -> AmpleCertificate:
    """Decide the three ampleness conditions for the torus over the place set.

    (i) compares the global rank with the center rank of the ambient group;
    (ii) holds structurally for maximal tori and is recorded, not computed;
    (iii) enumerates the dimension vectors of proper submodules (multisets
    of component indices, i at most m_i times, including 0) and exhibits a
    place where the rank drops. Needs the defining algebra; with several
    factors (i) fails and (iii) is recorded as not evaluated.
    """
    g_rank = global_rank(t)
    z_rank = center_rank(t.ambient)
    cond_i = {"global_rank": g_rank, "center_rank": z_rank, "pass": g_rank == z_rank}
    cond_ii = {
        "pass": True,
        "discharged_by": "maximal torus is its own centralizer; cocompactness "
        "of T in N(T) holds at every place",
    }

    local_ranks: dict[str, int] = {}
    place_gens = {}  # the first factor's decomposition generator, per place
    for place in s.places():
        profiles = place_profiles(t, place)
        ps = profiles[0].place_str()
        place_gens[ps] = profiles[0].generator
        local_ranks[ps] = _module_rank(t, sum(p.num_places_over for p in profiles))

    submodules: list[SubmoduleWitness] = []
    if t.num_factors != 1:
        # each factor adds an orbit to the global rank, so (i) fails
        cond_iii = {"status": "not-evaluated", "reason": _SINGLE_FACTOR_ONLY}
        all_pass = False
    else:
        comps = decompose_module(t)
        # index i once per copy; each distinct subset of copies is a dimension vector
        copies = [i for i, c in enumerate(comps) for _ in range(c.multiplicity)]
        # one copy's local rank per component, once per place; a submodule's
        # rank is the sum over its copies
        comp_ranks = {
            ps: [component_rank(t.tags[0], c.char, gen) for c in comps]
            for ps, gen in place_gens.items()
        }
        all_pass = True
        for size in range(len(copies)):
            for subset in dict.fromkeys(itertools.combinations(copies, size)):
                pairs = {
                    ps: (sum(ranks[i] for i in subset), local_ranks[ps])
                    for ps, ranks in comp_ranks.items()
                }
                # the first place, in S's order, where the subtorus rank drops
                witness = next(
                    ((ps, sub, tor) for ps, (sub, tor) in pairs.items() if sub < tor), (None,) * 3
                )
                w = SubmoduleWitness(subset, sum(comps[i].char.dim for i in subset), *witness, pairs)
                if not w.passes:
                    all_pass = False
                submodules.append(w)
        cond_iii = {
            "status": "pass" if all_pass else "fail",
            "proper_submodules_checked": len(submodules),
        }
    verdict = VERDICT_AMPLE if (cond_i["pass"] and all_pass) else VERDICT_NOT_AMPLE

    return AmpleCertificate(
        verdict=verdict,
        ambient=t.ambient,
        n=t.n,
        places=list(local_ranks),
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        local_ranks=local_ranks,
        global_rank=g_rank,
        submodules=submodules,
    )


def replay_certificate_json(data: dict) -> str:
    """Replay a serialized certificate: only stored dim comparisons are used,
    so any consumer can re-check the verdict without this library's internals."""
    cond_i = data["condition_i"]
    cond_i_pass = cond_i["global_rank"] == cond_i["center_rank"]
    status = data["condition_iii"].get("status")
    if status not in ("pass", "fail", "not-evaluated"):
        raise AssertionError(f"unknown condition (iii) status {status!r}")
    if status == "not-evaluated" and cond_i_pass:
        raise AssertionError("condition (iii) was not evaluated, but condition (i) passes")
    all_pass = True
    for w in data["submodules"]:
        ok = False
        for ps, pair in w["local_ranks"].items():
            sub, tor = pair
            if tor != data["local_ranks"][ps]:
                raise AssertionError("certificate local ranks are inconsistent")
            if sub < tor:
                ok = True
        if w["witness_place"] is not None:
            sub, tor = w["local_ranks"][w["witness_place"]]
            if (sub, tor) != (w["sub_rank_at_witness"], w["torus_rank_at_witness"]):
                raise AssertionError("stored witness does not match stored ranks")
        if not ok:
            all_pass = False
    return VERDICT_AMPLE if (cond_i_pass and all_pass) else VERDICT_NOT_AMPLE
