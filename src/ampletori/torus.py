"""Maximal tori of GL_n/SL_n from étale algebras and the S-ample decision.

The cocharacter space of the torus attached to a degree-n algebra is Q^n with
the Galois action permuting embeddings (GL case) or its zero-sum subspace
(SL norm-one case). Local ranks are dimensions of decomposition-group
invariants. Every module here is G-stable (Q^n, the zero-sum space, and
sums of isotypic components), so a decomposition group D maps it into
itself. The orbit-mean map P_D, which replaces each coordinate by its mean
over the coordinate's D-orbit, is the average over D of its action: it maps
a D-stable module W into W and fixes W^D, so W^D = P_D(W), and the local
rank is the rank of the projected basis. P_D keeps a direct sum of
components, so a sum of components has the sum of their ranks. Every
certificate witness is a pair of dimensions that can be replayed from the
certificate alone.

Condition (ii) of the ampleness definition is discharged structurally (a
maximal torus is its own centralizer) and recorded as such. Condition (iii)
quantifies over proper Galois submodules, enumerated as subset sums of the
irreducible components in the multiplicity-free case; a module that is not
multiplicity-free yields the verdict "undecidable", never a guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import InputError, UnsupportedError
from .etale import EtaleAlgebra
from .linalg import Vec
from .places import (
    INF,
    GaloisTag,
    Place,
    PlaceProfile,
    decomposition_profile,
    galois_group_small,
    orbits_of,
)
from .polynomials import is_prime

SL = "SL"
GL = "GL"

VERDICT_AMPLE = "S-ample"
VERDICT_NOT_AMPLE = "not-S-ample"
VERDICT_UNDECIDABLE = "undecidable"


def finite_place(p: int, path: str) -> int:
    """p itself when it is a prime, else an InputError at path."""
    if not is_prime(p):
        raise InputError(f"finite place {p} is not a prime", path)
    return p


@dataclass(frozen=True)
class PlaceSet:
    """The set S of places: the real place plus finitely many primes.

    The real place is mandatory (the ambient groups here are noncompact at
    ∞, so the standing assumption R_∞ ∖ T(G) ⊆ S forces it).
    """

    include_infty: bool
    finite_primes: tuple[int, ...]

    def __post_init__(self):
        if not self.include_infty:
            raise UnsupportedError(
                "S must contain the real place for SL_n/GL_n over Q"
            )
        for p in self.finite_primes:
            finite_place(p, "places")
        object.__setattr__(
            self, "finite_primes", tuple(sorted(set(self.finite_primes)))
        )

    def places(self) -> list[Place]:
        return [INF] + list(self.finite_primes)

    @staticmethod
    def parse(text: str) -> "PlaceSet":
        """Parse "inf,5,7"-style place lists."""
        inf = False
        primes = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if token in ("inf", "infty", "oo"):
                inf = True
            else:
                try:
                    primes.append(int(token))
                except ValueError:
                    raise InputError(
                        f"bad place {token!r}: expected 'inf' or a prime", "places"
                    ) from None
        return PlaceSet(inf, tuple(primes))

    def __str__(self):
        return ",".join(["inf"] + [str(p) for p in self.finite_primes])


@dataclass(frozen=True)
class TorusDatum:
    """A maximal torus given by its Galois-module data.

    ``tags`` holds one Galois tag per algebra factor, acting on consecutive
    blocks of embeddings; ``module_basis`` spans the cocharacter subspace of
    Q^n, which must be Galois-stable (local ranks are ranks of orbit means,
    and those give W^D only for a D-stable W). ``algebra`` is None only for
    hand-built module data (used to drive module-level checks without a
    number-theoretic origin); place profiles then cannot be computed.
    """

    ambient: str
    tags: tuple[GaloisTag, ...]
    module_basis: tuple[Vec, ...]
    algebra: EtaleAlgebra | None = None

    def __post_init__(self):
        if self.ambient not in (SL, GL):
            raise UnsupportedError(f"ambient group {self.ambient!r} not supported")

    @property
    def n(self) -> int:
        return sum(tag.degree for tag in self.tags)

    @property
    def num_factors(self) -> int:
        return len(self.tags)

    @property
    def dim(self) -> int:
        return len(self.module_basis)

    def block_offsets(self) -> list[int]:
        out, off = [], 0
        for tag in self.tags:
            out.append(off)
            off += tag.degree
        return out


@dataclass(frozen=True)
class Component:
    """One isotypic piece of the cocharacter module."""

    character: str
    character_dim: int
    basis: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def multiplicity(self) -> int:
        return self.dim // self.character_dim


@dataclass(frozen=True)
class IrreducibleDecomposition:
    components: tuple[Component, ...]

    @property
    def multiplicity_free(self) -> bool:
        return all(c.multiplicity == 1 for c in self.components)


def _zero_sum_basis(n: int) -> tuple[Vec, ...]:
    basis = []
    for i in range(n - 1):
        v = [Fraction(0)] * n
        v[i], v[i + 1] = Fraction(1), Fraction(-1)
        basis.append(tuple(v))
    return tuple(basis)


def require_supported_degrees(factors) -> None:
    """Refuse factors of degree > 4, past which no Galois tag is computed.

    Request parsing calls this before the algebra is built, because the
    irreducibility test's split-prime search grows with |Gal(f)|, up to n!.
    """
    if any(f.degree > 4 for f in factors):
        raise UnsupportedError("factors of degree > 4 are not supported")


def build_torus(e: EtaleAlgebra, ambient: str) -> TorusDatum:
    """TorusDatum for the maximal torus π(E^×) ∩ ambient.

    The order must verify; each factor's Galois group must be computable
    (degree ≤ 4). For SL the module is the zero-sum subspace.
    """
    e.require_order()
    require_supported_degrees(e.factors)
    tags = [galois_group_small(f) for f in e.factors]
    n = e.n
    if ambient == GL:
        module = tuple(linalg.identity(n))
    elif ambient == SL:
        module = _zero_sum_basis(n)
    else:
        raise UnsupportedError(f"ambient group {ambient!r} not supported")
    return TorusDatum(ambient, tuple(tags), module, e)


def center_rank(ambient: str) -> int:
    """Q-rank of the center: 1 for GL_n (scalars), 0 for SL_n (finite)."""
    return 1 if ambient == GL else 0


def _orbit_means(rows, orbits) -> list[Vec]:
    """P_D applied to each row: every coordinate replaced by its orbit's mean.

    The orbits partition the coordinates. For a D-stable module W spanned by
    the rows, the result spans W^D = W ∩ Fix(D).
    """
    out = []
    for v in rows:
        w = [Fraction(0)] * len(v)
        for orbit in orbits:
            mean = Fraction(sum(v[i] for i in orbit), len(orbit))
            for i in orbit:
                w[i] = mean
        out.append(tuple(w))
    return out


def _invariant_dim(module_basis, orbits) -> int:
    """dim of the D-invariants of the D-stable module the basis spans."""
    return linalg.rank(_orbit_means(module_basis, orbits))


def global_orbits(t: TorusDatum):
    """Orbits of the full Galois action (one per factor for standard tags)."""
    out = []
    for tag, off in zip(t.tags, t.block_offsets()):
        for orbit in orbits_of(list(tag.elements), tag.degree):
            out.append(tuple(off + i for i in orbit))
    return tuple(out)


def global_rank(t: TorusDatum) -> int:
    """dim of Galois invariants of the cocharacter module (ℓ or ℓ−1)."""
    return _invariant_dim(t.module_basis, global_orbits(t))


def place_profiles(t: TorusDatum, place: Place) -> list[PlaceProfile]:
    if t.algebra is None:
        raise UnsupportedError("place profiles need the defining algebra")
    return [
        decomposition_profile(f, tag, place)
        for f, tag in zip(t.algebra.factors, t.tags)
    ]


def _local_orbits(t: TorusDatum, place: Place):
    """Orbits of the decomposition group at the place."""
    out = []
    for prof, off in zip(place_profiles(t, place), t.block_offsets()):
        for orbit in prof.orbits:
            out.append(tuple(off + i for i in orbit))
    return tuple(out)


def local_rank(t: TorusDatum, place: Place) -> int:
    """dim of decomposition-group invariants at the place.

    Equals (#places of E over v) for GL and (#places − 1) for SL, but is
    computed as the rank of the orbit-mean projection, so the same code
    ranks submodules.
    """
    return _invariant_dim(t.module_basis, _local_orbits(t, place))


def _act(perm, v: Vec) -> Vec:
    out = [Fraction(0)] * len(v)
    for i, x in enumerate(v):
        out[perm[i]] = x
    return tuple(out)


def decompose_module(t: TorusDatum) -> IrreducibleDecomposition:
    """Isotypic decomposition via the group's rational character table.

    Single-factor modules only; the projector (χ(1)/|G|)·Σ χ(g)ρ(g) is
    applied to the module basis for each rational character. Multiplicity is
    isotypic dimension over character dimension.
    """
    if t.num_factors != 1:
        raise UnsupportedError(
            "submodule decomposition is implemented for single-factor algebras"
        )
    tag = t.tags[0]
    comps = []
    total = 0
    for char in tag.characters:
        images = []
        for v in t.module_basis:
            acc = [Fraction(0)] * len(v)
            for g, chi in zip(tag.elements, char.values):
                if chi == 0:
                    continue
                gv = _act(g, v)
                for i in range(len(v)):
                    if gv[i]:
                        acc[i] += chi * gv[i]
            scale = Fraction(char.dim, tag.order)
            images.append(tuple(scale * x for x in acc))
        basis = linalg.row_space_basis(images)
        if basis:
            comps.append(Component(char.name, char.dim, tuple(basis)))
            total += len(basis)
    if total != t.dim:
        raise AssertionError("isotypic components do not span the module")
    return IrreducibleDecomposition(tuple(comps))


@dataclass
class SplitParts:
    split_basis: tuple[Vec, ...]
    anisotropic_dim: int
    anisotropic_basis: tuple[Vec, ...] | None = None


def anisotropic_and_split_parts(t: TorusDatum, place: Place | str = "Q") -> SplitParts:
    """Cocharacters of the maximal split subtorus at a place, and the rest.

    At the global level ("Q") the split part is the Galois-invariant
    subspace and the anisotropic part is the canonical complement (the sum
    of the nontrivial isotypic components when the decomposition is
    available).
    """
    orbits = global_orbits(t) if place == "Q" else _local_orbits(t, place)
    split = tuple(linalg.row_space_basis(_orbit_means(t.module_basis, orbits)))
    aniso_basis = None
    if place == "Q" and t.num_factors == 1:
        aniso = []
        for comp in decompose_module(t).components:
            if comp.character != "triv":
                aniso.extend(comp.basis)
        aniso_basis = tuple(linalg.row_space_basis(aniso))
    return SplitParts(split, t.dim - len(split), aniso_basis)


# ---------------------------------------------------------------------------
# the S-ample certificate
# ---------------------------------------------------------------------------


@dataclass
class SubmoduleWitness:
    components: tuple[int, ...]  # indices into the decomposition
    dim: int
    witness_place: str | None
    sub_rank_at_witness: int | None
    torus_rank_at_witness: int | None
    local_ranks: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def passes(self) -> bool:
        return (
            self.witness_place is not None
            and self.sub_rank_at_witness < self.torus_rank_at_witness
        )


@dataclass
class AmpleCertificate:
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
    submodules: list[SubmoduleWitness] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _place_str(place: Place) -> str:
    return INF if place == INF else f"p:{place}"


def is_s_ample(t: TorusDatum, s: PlaceSet) -> AmpleCertificate:
    """Decide the three ampleness conditions for the torus over the place set.

    (i) compares the global rank with the center rank of the ambient group;
    (ii) holds structurally for maximal tori and is recorded, not computed;
    (iii) enumerates proper submodules (subset sums of the components,
    including 0) and exhibits a place where the rank drops. The verdict is
    "undecidable" only when no condition definitively fails but (iii) cannot
    be evaluated (not multiplicity-free).
    """
    notes = []
    g_rank = global_rank(t)
    z_rank = center_rank(t.ambient)
    cond_i = {"global_rank": g_rank, "center_rank": z_rank, "pass": g_rank == z_rank}
    cond_ii = {
        "pass": True,
        "discharged_by": "maximal torus is its own centralizer; cocompactness "
        "of T in N(T) holds at every place",
    }

    decomposition = None
    decomp_error = None
    try:
        decomposition = decompose_module(t)
    except UnsupportedError as exc:
        decomp_error = str(exc)

    local_ranks: dict[str, int] = {}
    place_orbits = {}  # the decomposition orbits, once per place
    profiles_ok = t.algebra is not None
    if profiles_ok:
        for place in s.places():
            ps = _place_str(place)
            place_orbits[ps] = _local_orbits(t, place)
            local_ranks[ps] = _invariant_dim(t.module_basis, place_orbits[ps])

    submodules: list[SubmoduleWitness] = []
    if decomposition is None:
        cond_iii = {
            "status": "not-evaluated",
            "reason": decomp_error,
        }
        verdict = VERDICT_NOT_AMPLE if not cond_i["pass"] else VERDICT_UNDECIDABLE
        if verdict == VERDICT_UNDECIDABLE:
            notes.append("condition (iii) could not be evaluated: " + str(decomp_error))
    elif not decomposition.multiplicity_free:
        offender = next(
            c.character for c in decomposition.components if c.multiplicity > 1
        )
        cond_iii = {
            "status": "undecidable",
            "offending_component": offender,
            "reason": "module is not multiplicity-free; subtorus enumeration "
            "by component subsets is not exhaustive",
        }
        verdict = VERDICT_NOT_AMPLE if not cond_i["pass"] else VERDICT_UNDECIDABLE
    elif not profiles_ok:
        cond_iii = {
            "status": "not-evaluated",
            "reason": "no defining algebra; local ranks unavailable",
        }
        verdict = VERDICT_NOT_AMPLE if not cond_i["pass"] else VERDICT_UNDECIDABLE
    else:
        comps = decomposition.components
        # each component's local rank, once per place: P_D keeps the direct
        # sum, so a subset's rank is the sum of its components' ranks
        comp_ranks = {
            ps: [_invariant_dim(c.basis, orbits) for c in comps]
            for ps, orbits in place_orbits.items()
        }
        all_pass = True
        for size in range(len(comps)):
            for subset in itertools.combinations(range(len(comps)), size):
                w = SubmoduleWitness(
                    components=subset,
                    dim=sum(comps[i].dim for i in subset),
                    witness_place=None,
                    sub_rank_at_witness=None,
                    torus_rank_at_witness=None,
                )
                for ps, ranks in comp_ranks.items():
                    sub_rank = sum(ranks[i] for i in subset)
                    w.local_ranks[ps] = (sub_rank, local_ranks[ps])
                    if w.witness_place is None and sub_rank < local_ranks[ps]:
                        w.witness_place = ps
                        w.sub_rank_at_witness = sub_rank
                        w.torus_rank_at_witness = local_ranks[ps]
                if not w.passes:
                    all_pass = False
                submodules.append(w)
        cond_iii = {
            "status": "pass" if all_pass else "fail",
            "proper_submodules_checked": len(submodules),
        }
        verdict = (
            VERDICT_AMPLE if (cond_i["pass"] and all_pass) else VERDICT_NOT_AMPLE
        )

    return AmpleCertificate(
        verdict=verdict,
        ambient=t.ambient,
        n=t.n,
        places=[_place_str(p) for p in s.places()],
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        local_ranks=local_ranks,
        global_rank=g_rank,
        submodules=submodules,
        notes=notes,
    )


def replay_certificate(cert: AmpleCertificate) -> str:
    """Recompute the verdict from the certificate's own stored witnesses."""
    submodules = [
        {
            "local_ranks": {k: list(v) for k, v in w.local_ranks.items()},
            "witness_place": w.witness_place,
            "sub_rank_at_witness": w.sub_rank_at_witness,
            "torus_rank_at_witness": w.torus_rank_at_witness,
        }
        for w in cert.submodules
    ]
    return replay_certificate_json(
        {
            "condition_i": cert.condition_i,
            "condition_iii": cert.condition_iii,
            "local_ranks": cert.local_ranks,
            "submodules": submodules,
        }
    )


def replay_certificate_json(data: dict) -> str:
    """Replay a serialized certificate: only stored dim comparisons are used,
    so any consumer can re-check the verdict without this library's internals."""
    cond_i = data["condition_i"]
    cond_i_pass = cond_i["global_rank"] == cond_i["center_rank"]
    status = data["condition_iii"].get("status")
    if status in ("undecidable", "not-evaluated"):
        return VERDICT_NOT_AMPLE if not cond_i_pass else VERDICT_UNDECIDABLE
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
