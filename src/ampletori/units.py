"""Unit and S-unit machinery for an order in an étale algebra.

Everything is certified or exact: S-integrality and norms are checked in
exact rational arithmetic, roots of unity by their cyclotomic charpolys, and
multiplicative independence through integer balls enclosing the log embedding.
Every archimedean place reads |σ(u)|² off one certified root disk of its
factor's polynomial (Smith's theorem, in realsplit); every finite place
counts exact uniformizer steps γ ← γ·β/p in the equation order. A verdict
of independence is a certificate; failure to certify at the top of the
precision ladder is surfaced as IndependenceUndecided, which is distinct
from a disproof.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import NamedTuple

from . import linalg
from .errors import (
    BudgetExceededError,
    IndependenceUndecidedError,
    InvalidUnitSystemError,
    UnsupportedError,
)
from .etale import Coords, EtaleAlgebra, sorted_elements
from .intervals import log_grid
from .places import Signature, galois_group_small, places_over_p, prime_places, signature
from .polynomials import MEMO_SIZE, QPoly, is_s_number, split_prime, strip_primes
from .realsplit import abs_square_on_disk, root_disks

PRECISION_LADDER = (64, 128, 256)  # bits of every log embedding, tried in turn
BOX_BUDGET = 10**6  # most points a unit box search walks
MAX_DENOMINATOR = 16  # largest d in the relations u^d = t^k·∏ g_i^(a_i) tried
KMAX = 2  # largest exponent k of an S-prime in the default norm targets ±∏ p^k
# Φ_m, ascending coefficients, for the m > 2 with φ(m) ≤ 4
CYCLOTOMIC = {3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1), 5: (1, 1, 1, 1, 1),
              8: (1, 0, 0, 0, 1), 10: (1, -1, 1, -1, 1), 12: (1, 0, -1, 0, 1)}
# the m > 2, largest first, with ζ_m possibly in a totally complex K of this
# Galois group: φ(m) | n; φ(m) = 2 needs a quadratic subfield, which A4 and
# S4 quartics lack; φ(m) = 4 needs K = Q(ζ_m), of group C4 (m = 5, 10) or V4
CYCLOTOMIC_ORDERS = {"C2": (6, 4, 3), "C4": (10, 6, 5, 4, 3),
                     "V4": (12, 8, 6, 4, 3), "D4": (6, 4, 3)}


# ---------------------------------------------------------------------------
# rank formulas
# ---------------------------------------------------------------------------


def dirichlet_rank(sig: Signature, places_over_s: tuple[int, ...] = ()) -> int:
    """Free rank r1 + r2 − 1 of the unit group, plus one per place over S."""
    return sig.r1 + sig.r2 - 1 + sum(places_over_s)


def s_unit_rank(e: EtaleAlgebra, s_primes: tuple[int, ...]) -> int:
    """Free rank of the S-unit group of the whole algebra (sum over factors)."""
    total = 0
    for f in e.factors:
        sig = signature(f)
        counts = tuple(places_over_p(f, p) for p in s_primes)
        total += dirichlet_rank(sig, counts)
    return total


# ---------------------------------------------------------------------------
# the log embedding
# ---------------------------------------------------------------------------


class LogColumn(NamedTuple):
    kind: str  # "real" | "complex" | "finite"
    factor: int
    index: int
    prime: int | None = None
    residue_degree: int | None = None

    def label(self) -> str:
        if self.kind == "finite":
            return f"v({self.prime}/{self.factor}.{self.index})"
        return f"{self.kind}({self.factor}.{self.index})"


Ball = tuple[int, int]  # (m, r), r ≥ 0: the reals x with |x − m·2^-g| ≤ r·2^-g


class LogEmbedding(NamedTuple):
    """Ball matrix of log|u|_v; rows = elements, columns = places.

    Entry (m, r) is a Ball on the grid g = precision + 2: the certified
    interval of the log, whose endpoints lie on the grid 2^-(precision+1),
    with nothing rounded. Real columns hold log|σ(u)| and complex columns
    the doubled value 2·log|σ(u)|, both from |A(α)|² enclosed on a
    certified root disk of the factor's polynomial (realsplit.root_disks);
    finite columns hold −f_v·ord_v(u)·log p with ord_v counted in
    uniformizer steps (places.PrimePlaces). Full rows of a unit have |Σ m| ≤ Σ r.
    """

    columns: list[LogColumn]
    rows: list[list[Ball]]
    precision: int

    def subset(self, row_indices) -> "LogEmbedding":
        return LogEmbedding(self.columns, [self.rows[i] for i in row_indices], self.precision)


def _log_ball(lo: int, hi: int, w: int) -> Ball:
    """(w/2)·log as a ball on the grid 2^-(bits+2), for an enclosure
    [lo, hi]·2^-bits of log."""
    return w * (lo + hi), abs(w) * (hi - lo)


def _archimedean_log(col: LogColumn, disk_at, comp: Coords, bits: int) -> Ball:
    """The ball of log|σ(u)| at a real column, of 2·log|σ(u)| at a complex one,
    for comp the power coordinates of u's component in the column's factor.

    disk_at(b) is the column's root disk of radius ≤ 2^-b. The radius
    shrinks by doubling b until |A(α)|² is certified positive, up to
    b = 64·max(bits, 64).
    """
    attempt_bits = bits
    while True:
        lo, hi, scale = abs_square_on_disk(comp, disk_at(attempt_bits))
        if lo > 0:
            w = 1 if col.kind == "real" else 2
            return _log_ball(log_grid(lo, scale, bits)[0], log_grid(hi, scale, bits)[1], w)
        if 2 * attempt_bits > 64 * max(bits, 64):
            raise IndependenceUndecidedError(
                f"cannot separate {col.label()} from zero at {attempt_bits} bits"
            )
        attempt_bits *= 2


def build_log_embedding(
    e: EtaleAlgebra,
    elements: list[Coords],
    s_primes: tuple[int, ...] = (),
    bits: int = 64,
) -> LogEmbedding:
    columns: list[LogColumn] = []
    sigs = [signature(f) for f in e.factors]
    for k, sig in enumerate(sigs):
        for j in range(sig.r1):
            columns.append(LogColumn("real", k, j))
        for j in range(sig.r2):
            columns.append(LogColumn("complex", k, j))
    for p in s_primes:
        for k, f in enumerate(e.factors):
            pp = prime_places(f, p)
            for j in range(pp.count):
                columns.append(
                    LogColumn("finite", k, j, prime=p, residue_degree=pp.residue_degrees[j])
                )

    # an exact zero has no log at any precision: refuse it before any root disk
    powers = [e.to_power(u) for u in elements]
    for i, (power, _) in enumerate(powers):
        for k, (off, d) in enumerate(zip(e.offsets, e.degrees)):
            if not any(power[off : off + d]):
                col = next(c for c in columns if c.factor == k)
                raise InvalidUnitSystemError(f"element {i} is zero at {col.label()}: it has no log")

    def disk_at(col):
        offset = 0 if col.kind == "real" else sigs[col.factor].r1
        return lambda b: root_disks(e.factors[col.factor], b)[offset + col.index]

    log_p = {p: _log_ball(*log_grid(p, 1, bits), 1) for p in s_primes}
    rows: list[list[Ball]] = []
    for power, den in powers:
        row: list[Ball] = []
        for col in columns:
            off, d = e.offsets[col.factor], e.degrees[col.factor]
            comp = (power[off : off + d], den)
            if col.kind != "finite":
                row.append(_archimedean_log(col, disk_at(col), comp, bits))
                continue
            pp = prime_places(e.factors[col.factor], col.prime)
            w = -2 * col.residue_degree * pp.valuation(col.index, comp)
            m, r = log_p[col.prime]
            row.append((w * m, abs(w) * r))
        rows.append(row)
    return LogEmbedding(columns, rows, bits)


def _det_radius(mids: list[list[int]], rads: list[list[int]]) -> int:
    """A bound on |det(M + E) − det M| over every E with |E| ≤ R entrywise.

    det is multilinear in the rows, so det(M + E) − det M is the sum, over
    the nonempty row sets T, of det M with its rows in T taken from E.
    Hadamard's inequality bounds that term by ∏_{i∈T}‖e_i‖·∏_{i∉T}‖m_i‖,
    and the terms sum to ∏(‖m_i‖ + ‖e_i‖) − ∏‖m_i‖, with ‖e_i‖ ≤ ‖r_i‖
    (Euclidean norms). The sum grows with each ‖m_i‖, so both products
    take the same upper bound isqrt(‖m_i‖²) + 1, and ‖e_i‖ takes
    isqrt(‖r_i‖²) + 1.
    """
    norms = [math.isqrt(sum(x * x for x in row)) + 1 for row in mids]
    errs = [math.isqrt(sum(x * x for x in row)) + 1 for row in rads]
    return math.prod(map(operator.add, norms, errs)) - math.prod(norms)


def find_certified_minor(emb: LogEmbedding, limit: int | None = None):
    """(rows, columns): the rows taken in order, up to limit, each when the
    certified minor of the rows before it extends by one column, the lowest
    that certifies, and the minor's columns, ascending.

    A minor of balls is certified when one integer determinant, that of its
    midpoint matrix M, exceeds _det_radius in absolute value: then no
    matrix inside the balls is singular. An independent row adds exactly
    one pivot column to the row space, so in exact arithmetic the columns
    are the pivot columns of the rows taken, their lexicographically first
    nonsingular minor, found in at most rows × columns determinants.
    """
    taken: list[int] = []
    cols: tuple[int, ...] = ()
    for idx in range(len(emb.rows)):
        if len(taken) == limit:
            break
        rows = [emb.rows[i] for i in taken + [idx]]
        for j in (j for j in range(len(emb.columns)) if j not in cols):
            grown = tuple(sorted((*cols, j)))
            mids = [[row[k][0] for k in grown] for row in rows]
            bound = _det_radius(mids, [[row[k][1] for k in grown] for row in rows])
            if abs(linalg._det(mids)) > bound:  # _det consumes mids
                taken, cols = taken + [idx], grown
                break
    return taken, cols


# ---------------------------------------------------------------------------
# unit systems
# ---------------------------------------------------------------------------


class UnitSystem(NamedTuple):
    algebra: EtaleAlgebra
    torsion_generator: Coords
    torsion_order: int
    free_generators: list[Coords]
    s_primes: tuple[int, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.free_generators)


class UnitCertificate(NamedTuple):
    """Record of the checks passed by verify_unit_system.

    ``rank`` certifies independence of the stated generators only;
    maximality of the generated subgroup (fundamentality) is not proven.
    """

    s_integral: bool
    torsion_verified: bool
    rank: int
    minor_columns: tuple[str, ...]
    precision_bits: int
    caveats: list[str]


class DependenceWitness(NamedTuple):
    exponents: tuple[int, ...]
    torsion_power: int

    def describe(self) -> str:
        return (
            "log rows linearly dependent: product with exponents "
            f"{self.exponents} equals torsion^{self.torsion_power}"
        )


def _is_torsion(e: EtaleAlgebra, u: Coords, s_primes: tuple[int, ...] = ()) -> int | None:
    """The order of u if it lies in μ(O[1/S]), the roots of unity of the
    order with the S-primes inverted, else None."""
    mu = roots_of_unity(e, s_primes)
    return len(mu) // math.gcd(len(mu), mu.index(u)) if u in mu else None


def verify_unit_system(sys: UnitSystem) -> UnitCertificate | DependenceWitness:
    """Certify an S-unit system: integrality, torsion, independence.

    The torsion generator must generate μ(O[1/S]), the roots of unity of
    the order with the system's S-primes inverted (roots_of_unity), with
    the stated order. Returns a UnitCertificate
    when find_certified_minor takes every log row.
    Otherwise, at the same precision, each generator outside the rows it
    takes is reduced against them (_express_from_rows):
    u^d = t^k·∏ g_i^(a_i), confirmed by exact multiplication, is returned as
    a DependenceWitness. IndependenceUndecidedError is raised when neither
    succeeds at the top of PRECISION_LADDER (distinct from a disproof).
    """
    e = sys.algebra
    s = sys.s_primes
    for g in [sys.torsion_generator] + list(sys.free_generators):
        rows, den = e._int_rep(g)  # S-integral when den is an S-number
        if not is_s_number(den, s):
            raise InvalidUnitSystemError(f"generator {g} is not S-integral")
        # the norm is det(rows)/den^n, a unit of Z[1/S] once den is an S-number
        if not is_s_number(linalg._det([list(row) for row in rows]), s):
            raise InvalidUnitSystemError(f"generator {g} has non-unit norm over Z[1/S]")

    order, mu_order = _is_torsion(e, sys.torsion_generator, s), len(roots_of_unity(e, s))
    if not order == sys.torsion_order == mu_order:
        raise InvalidUnitSystemError(
            f"torsion generator has order {order}, claimed {sys.torsion_order}, "
            f"but the roots of unity of O[1/S] have order {mu_order}"
        )

    caveats = [
        "independence certified at the stated rank; fundamentality "
        "(that the generators span the full unit group) is not proven"
    ]
    gens = list(sys.free_generators)
    torsion = {e.power(sys.torsion_generator, k): k for k in range(sys.torsion_order)}
    inverses = None  # the generators' inverses, taken once a relation is sought
    for bits in PRECISION_LADDER:
        emb = build_log_embedding(e, gens, s, bits)
        prefix, cols = find_certified_minor(emb)
        if len(prefix) == sys.rank:
            labels = tuple(emb.columns[j].label() for j in cols)
            return UnitCertificate(True, True, sys.rank, labels, bits, caveats)
        minv = _minor_inverse([emb.rows[i] for i in prefix], cols)
        inverses = inverses or [e.inverse(g) for g in gens]
        basis = [(gens[i], inverses[i]) for i in prefix]
        for idx in (i for i in range(sys.rank) if i not in prefix):
            got = _express_from_rows(e, basis, cols, minv, gens[idx], emb.rows[idx], torsion)
            if got is not None:
                nums, d, k = got
                exponents = [0] * sys.rank
                for i, a in zip(prefix, nums):
                    exponents[i] = -a
                exponents[idx] = d
                return DependenceWitness(tuple(exponents), k)
    raise IndependenceUndecidedError(
        f"could not certify independence at {PRECISION_LADDER[-1]} bits, nor find a "
        f"relation u^d = t^k·∏ g_i^(a_i) with d ≤ {MAX_DENOMINATOR}"
    )


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def default_norm_targets(s_primes: tuple[int, ...], bound: int):
    """±∏ p^k with 0 ≤ k ≤ KMAX per S-prime, up to bound in absolute value
    (just ±1 when S is empty); a product past the bound is never extended."""
    vals = {1}
    for p in s_primes:
        vals = {v * p**k for v in vals for k in range(KMAX + 1) if v * p**k <= bound}
    return {s * v for v in vals for s in (1, -1)}


def search_units(
    e: EtaleAlgebra,
    coord_bound: int,
    s_primes: tuple[int, ...] = (),
    norm_targets=None,
) -> list[Coords]:
    """All elements with integer coordinates in the box whose norm is a target.

    Exhaustive within [−B, B]^n; results are sorted canonically (coordinate
    1-norm, then lexicographic). BOX_BUDGET caps the candidate count. The
    basis must be an order (else NotAnOrderError): its structure constants
    are integers, so the walk runs in plain ints, and a non-integer target
    (an int or a Fraction, as serialize.parse_frac reads it) matches nothing. N(Σ x_i b_i) = det π(Σ x_i b_i) is homogeneous of
    degree n, so it is tabulated by forward differences from its values at
    the simplex corner −B + j, j ∈ [0, m)^n with Σj ≤ n, m = min(n+1, 2B+1):
    the only norms taken. They are turned once into the corner's mixed
    forward differences along every axis (those of order past n are 0).

    The last L = min(2, n − 1) axes (L = 1 at n = 1) are packed into lanes
    of w bits: one int P = Σ_p v_p·2^(w·p) holds a difference at every
    point p of the (2B+1)^L plane, lane axis n−1 least significant. By
    Newton's formula N(−B + t) = Σ_k C(t, k)·Δ^k, so a packed entry is
    Σ_k Δ^k·∏_a S_{a,k_a}, with S_{a,k} = Σ_t C(t, k)·2^(w·stride_a·t).
    P is linear over Z, so stepping the other axes by exact integer
    additions steps whole planes. By Hadamard's bound with ‖·‖₂ ≤ ‖·‖₁
    (_hadamard_bound), every difference the walk holds, of order ≤ n at
    points within B + n + 1 of the origin, a signed sum of at most 2^n
    norms, lies within V = 2^n·∏_r (B+n+1)·Σ_j ‖row r of π(b_j)‖₁; w, a
    multiple of 8 with 2^(w−1) > 2V, keeps each lane of
    P + 2^(w−1)·Σ_p 2^(w·p) in [0, 2^w), so that int's bytes are its lanes.
    A plane is tested by a byte search for each target t with
    |t| ≤ ∏_r B·Σ_j ‖row r of π(b_j)‖₁ (no norm in the box is larger), at
    lane-aligned offsets only.

    As N(−x) = (−1)^n·N(x), for n ≥ 2 the walk steps the first axis across
    [−B, B] but enters only x_0 ≥ 0; a plane with x_0 > 0 is also searched
    for (−1)^n·targets, and emits −x for each x whose (−1)^n·N(x) is a
    target. So it finds exactly the box points that a full walk would.
    """
    e.require_order()
    n = e.n
    total = (2 * coord_bound + 1) ** n
    if total > BOX_BUDGET:
        raise BudgetExceededError(
            f"box ({2 * coord_bound + 1})^{n} = {total} exceeds budget {BOX_BUDGET}"
        )
    norm_bound = _hadamard_bound(e, coord_bound)  # no norm in the box is larger
    if norm_targets is None:
        norm_targets = default_norm_targets(s_primes, norm_bound)
    int_targets = {t.numerator for t in norm_targets if t.denominator == 1}

    side = 2 * coord_bound + 1
    m = min(n + 1, side)
    span = range(-coord_bound, coord_bound + 1)
    simplex = [sum(j) <= n for j in itertools.product(range(m), repeat=n)]
    corner = [  # an order's norms of integer points are integers
        e.norm((tuple(c - coord_bound for c in j), 1))[0] if small else 0
        for j, small in zip(itertools.product(range(m), repeat=n), simplex)
    ]
    # mixed forward differences along every axis, taken once: entry j becomes
    # Δ_0^{j_0} ⋯ Δ_{n-1}^{j_{n-1}} N at the corner origin, read off the corner
    # points below j, so right on the simplex; past it, it is 0 (degree n)
    for stride in (m**a for a in range(n)):
        for k in range(1, m):
            for t in reversed(range(len(corner))):  # so corner[t − stride] is still old
                if t // stride % m >= k:
                    corner[t] -= corner[t - stride]
    corner = [v if small else 0 for v, small in zip(corner, simplex)]

    lanes = max(min(2, n - 1), 1)
    outer = n - lanes
    # a difference the walk holds has order ≤ n, at points within B + n + 1
    lane_bound = 2**n * _hadamard_bound(e, coord_bound + n + 1)
    width = ((2 * lane_bound).bit_length() + 8) // 8  # bytes a lane: 2^(8·width − 1) > 2V
    bias = 1 << (8 * width - 1)
    plane_bytes = width * side**lanes
    biases = int.from_bytes(bias.to_bytes(width, "little") * side**lanes, "little")

    def newton(stride):
        # S_k = Σ_t C(t, k)·2^(w·stride·t); C(t, k) ≤ (2B)^n < V fits a lane
        gap = bytes(width * (stride - 1))
        return [
            int.from_bytes(
                b"".join(math.comb(t, k).to_bytes(width, "little") + gap for t in range(side)),
                "little",
            )
            for k in range(m)
        ]

    weights = [
        math.prod(s)
        for s in itertools.product(*(newton(side**a) for a in reversed(range(lanes))))
    ]
    block = m**lanes
    packed = [
        sum(d * w for d, w in zip(corner[i : i + block], weights) if d)
        for i in range(0, len(corner), block)
    ]

    hittable = [t for t in int_targets if abs(t) <= norm_bound]
    patterns = [(bias + t).to_bytes(width, "little") for t in hittable]
    sign = (-1) ** n  # N(−x) = sign·N(x)
    mirrored = [(bias + sign * t).to_bytes(width, "little") for t in hittable]
    symmetric = set(mirrored) == set(patterns)  # then a plane's hits are its mirror hits
    coords = [0] * outer
    out: list[Coords] = []

    def points(plane, pats):
        # the plane points, as whole coordinates, whose lane holds a pattern
        for pat in pats:
            at = plane.find(pat)
            while at >= 0:
                if at % width == 0:
                    p, tail = at // width, []
                    for _ in range(lanes):
                        p, t = divmod(p, side)
                        tail.append(t - coord_bound)
                    yield (*coords, *reversed(tail))
                at = plane.find(pat, at + 1)

    def rec(i, values):
        # values: the packed differences on the corner of outer axes i.., axis i major
        if i == outer:
            plane = (values[0] + biases).to_bytes(plane_bytes, "little")
            hits = list(points(plane, patterns))
            out.extend((x, 1) for x in hits)
            if outer and coords[0] > 0:  # the walk skips −x, so x stands for it
                flipped = hits if symmetric else points(plane, mirrored)
                out.extend((tuple(-c for c in x), 1) for x in flipped)
            return
        size = m ** (outer - 1 - i)
        d = [values[j * size : (j + 1) * size] for j in range(m)]
        for c in span:
            coords[i] = c
            if i or c >= 0:
                rec(i + 1, d[0])
            for k in range(m - 1):
                d[k] = list(map(operator.add, d[k], d[k + 1]))

    rec(0, packed)
    return sorted_elements([c for c in out if any(c[0])], _by_size)


def _hadamard_bound(e: EtaleAlgebra, reach: int) -> int:
    """∏_r reach·Σ_j ‖row r of π(b_j)‖₁: a bound on |N(x)| when every |x_j| ≤ reach.

    |N(x)| = |det Σ x_j π(b_j)| ≤ ∏_r ‖row r‖₂ ≤ ∏_r ‖row r‖₁ (Hadamard).
    """
    sums = [0] * e.n
    for row in e._table:  # π(b_i)[k][j] = t/D for each (k, t) in _table[i][j]
        for pairs in row:
            for k, t in pairs:
                sums[k] += abs(t)
    return math.prod(reach * (s // e._den) for s in sums)


def _by_size(ints: tuple[int, ...]):
    """The canonical search order: coordinate 1-norm, then lexicographic."""
    return sum(map(abs, ints)), ints


def _require_one_field(e: EtaleAlgebra) -> None:
    if e.num_factors != 1:
        raise UnsupportedError("torsion generator is computed for a single field factor")


@functools.lru_cache(maxsize=MEMO_SIZE)
def _field_roots_of_unity(e: EtaleAlgebra) -> tuple[Coords, ...]:
    """μ(K), the roots of unity of the field, as ζ^k at index k, k below
    the order w of μ(K), in order-basis coordinates (which need not be
    integral).

    ζ ∈ K has order m exactly when its characteristic polynomial is
    Φ_m^(n/φ(m)); EtaleAlgebra.elements_with_charpoly returns every such ζ.
    The candidate orders run down from the largest, and an odd m comes after
    2m, so the first m that has a root is w and that root generates μ(K);
    w = 2 when none has. Proven gates skip each m with ζ_m ∉ K: a real place
    or odd n leaves ±1 (φ(m) is even for m > 2), CYCLOTOMIC_ORDERS reads the
    Galois tag, and m | p − 1 at p = split_prime(f), which splits completely
    in K ⊇ Q(ζ_m). Memoized per order (an EtaleAlgebra hashes as its
    factors and basis); the value is a tuple nobody can edit.
    """
    e.require_order()
    f, n, (one, den) = e.factors[0], e.n, e.one()
    zeta, w = (tuple(-c for c in one), den), 2
    if signature(f).r1 == 0 and n % 2 == 0:  # galois_group_small refuses n > 4
        for m in CYCLOTOMIC_ORDERS.get(galois_group_small(f).group, ()):
            if (split_prime(f) - 1) % m:
                continue
            phi = QPoly(CYCLOTOMIC[m])
            found = e.elements_with_charpoly(phi ** (n // phi.degree))
            if found:
                zeta, w = found[0], m
                break
    return tuple(e.power(zeta, k) for k in range(w))


def roots_of_unity(e: EtaleAlgebra, s_primes: tuple[int, ...] = ()) -> tuple[Coords, ...]:
    """μ(O[1/S]), the roots of unity of the order with the S-primes
    inverted: t^k at index k, k below the order d of its canonical
    generator t.

    μ(K) = ⟨ζ⟩ of order w comes from _field_roots_of_unity, cached per
    order, so a new S costs no search. A root lies in O[1/S] exactly when
    the denominator of its order-basis coordinates is an S-number; those
    roots are the subgroup ⟨ζ^(w/d)⟩, and t is the first of its elements of
    order d in _canonical_key order (t = −1 when d = 2). With S empty this
    is μ(O). One field factor and an order (else NotAnOrderError).
    """
    _require_one_field(e)
    mu = _field_roots_of_unity(e)
    w = len(mu)
    d = sum(1 for _, den in mu if is_s_number(den, s_primes))
    step = w // d
    t = sorted_elements([mu[step * j] for j in range(d) if math.gcd(j, d) == 1], _canonical_key)[0]
    k0 = mu.index(t)
    return tuple(mu[k0 * k % w] for k in range(d))


def torsion_units(e: EtaleAlgebra, s_primes: tuple[int, ...] = ()) -> tuple[Coords, int]:
    """Generator and order of μ(O[1/S]), the cyclic group of roots of unity
    in O[1/S], read off roots_of_unity (one field factor: a product's is not
    cyclic)."""
    mu = roots_of_unity(e, s_primes)
    return mu[1], len(mu)


def _canonical_key(ints: tuple[int, ...]):
    nnz = sum(1 for c in ints if c != 0)
    return (nnz, tuple(-c for c in ints))


def canonical_unit(
    e: EtaleAlgebra, u: Coords, torsion_gen: Coords, torsion_order: int
) -> Coords:
    """Canonical representative of u modulo torsion and inversion.

    First-nonzero coordinate positive, then fewest nonzero coordinates, then
    lexicographically greatest. This tie-break reproduces the generator
    matrices printed in the reference examples bit-exactly.
    """
    inv, t, candidates = e.inverse(u), e.one(), []
    for _ in range(max(torsion_order, 1)):
        candidates += [e.mul(t, u), e.mul(t, inv)]
        t = e.mul(t, torsion_gen)
    positive = [c for c in candidates if next((x for x in c[0] if x != 0), 0) > 0]
    return sorted_elements(positive or candidates, _canonical_key)[0]


# ---------------------------------------------------------------------------
# group assembly: greedy independent system + saturation against the box
# ---------------------------------------------------------------------------


def _col_norm(mat: list[list[int]]) -> int:
    """The largest column sum of |mat|: the ∞-norm bound ‖v·mat‖ ≤ ‖v‖·it."""
    return max((sum(map(abs, col)) for col in zip(*mat)), default=0)


def _minor_inverse(rows: list[list[Ball]], cols: tuple[int, ...]):
    """The certified minor of ball rows at cols, inverted once per round.

    Returns (adj, d, ‖adj‖, ‖R‖): M⁻¹ = adj/d for the midpoint minor M,
    read off the integer d·RREF [d·I | adj] of [M | I], and the largest
    column sums of |adj| and of the radius minor R.
    """
    r = len(rows)
    m = [[row[j][0] for j in cols] + [int(i == k) for k in range(r)] for i, row in enumerate(rows)]
    scaled, _, d = linalg._int_rref(m, 2 * r)
    adj = [row[r:] for row in scaled]
    return adj, d, _col_norm(adj), _col_norm([[row[j][1] for j in cols] for row in rows])


def _ball_solve(minv, u_row: list[Ball], cols: tuple[int, ...]):
    """(nums, den, dn, dd): the solution x of x·A = u over every minor A in
    the balls of minv and every u in u_row's balls at cols lies within
    dn/dd of nums/den in each coordinate; None when the balls may hold a
    singular A.

    With x_m = u_m·M⁻¹ = u_m·adj/d, x·(M + E) = u gives
    x − x_m = (u − u_m − x·E)·M⁻¹, so δ = ‖x − x_m‖ satisfies
    δ ≤ ‖M⁻¹‖·(ρ + (‖x_m‖ + δ)·‖R‖), ρ u's largest radius, and
    δ ≤ ‖adj‖·(ρ·|d| + ‖u_m·adj‖·‖R‖) / (|d|·(|d| − ‖R‖·‖adj‖)) when
    ‖R‖·‖adj‖ < |d|, which also makes every A nonsingular (Rump, Acta
    Numerica 19, 2010, §10). Norms are ∞-norms on rows, column sums on
    matrices; the grid scale cancels.
    """
    adj, d, adj_norm, rad_norm = minv
    gap = abs(d) - rad_norm * adj_norm
    if gap <= 0:
        return None
    mids = [u_row[j][0] for j in cols]
    rho = max((u_row[j][1] for j in cols), default=0)
    sign = 1 if d > 0 else -1
    nums = [sign * sum(map(operator.mul, mids, col)) for col in zip(*adj)]
    top = max(map(abs, nums), default=0)
    return nums, abs(d), adj_norm * (rho * abs(d) + top * rad_norm), abs(d) * gap


def _word(e: EtaleAlgebra, gens: list[Coords], exponents) -> Coords:
    """The product of the g^k over the generators g and their exponents k."""
    return functools.reduce(e.mul, (e.power(g, k) for g, k in zip(gens, exponents) if k), e.one())


def _express_from_rows(
    e: EtaleAlgebra,
    basis: list[tuple[Coords, Coords]],
    cols: tuple[int, ...],
    minv,
    u: Coords,
    u_row,
    torsion: dict[Coords, int],
):
    """Try u = t^k · (∏ g_i^{a_i})^{1/d}, basis the pairs (g_i, g_i⁻¹);
    returns (a, d, k) verified.

    Candidate exponents come from the enclosure of the solution of
    x·A = u on the basis's certified minor columns cols (_ball_solve on
    minv, the minor's _minor_inverse): for each d ≤ MAX_DENOMINATOR, a_i is
    the integer nearest d·x_i (the lower one on a tie), taken when it lies
    in d times the enclosure. The final identity is verified by exact
    multiplication, so ball error can only cause a miss (caller escalates
    precision), never a wrong answer. torsion maps each power t^k of the
    torsion generator, k below its order, to k; u^d·∏ g_i^(−a_i), a product
    of powers of u and the pairs, is looked up in it.
    """
    solved = _ball_solve(minv, u_row, cols)
    if solved is None:
        return None
    xs, den, dn, dd = solved  # x_i = xs_i/den, within dn/dd
    power, dp = e.one(), 0  # u^dp, stepped up to each d that is tried
    for d in range(1, MAX_DENOMINATOR + 1):
        nums = [-((den - 2 * d * x) // (2 * den)) for x in xs]
        if any(abs(a * den - d * x) * dd > d * dn * den for a, x in zip(nums, xs)):
            continue
        if d > 1 and all(a % d == 0 for a in nums):
            continue  # already covered by a smaller denominator
        factors = [g_inv if a > 0 else g for (g, g_inv), a in zip(basis, nums)]
        while dp < d:
            power, dp = e.mul(power, u), dp + 1
        k = torsion.get(e.mul(power, _word(e, factors, map(abs, nums))))
        if k is not None:
            return tuple(nums), d, k
    return None


def _enlarge_basis(
    e: EtaleAlgebra,
    basis: list[Coords],
    u: Coords,
    nums: tuple[int, ...],
    d: int,
) -> list[Coords]:
    """Basis of the lattice generated by the old basis and u (u^d ~ ∏g^nums).

    Works in exponent coordinates scaled by d; the Hermite transform rows are
    integer words in (basis..., u), so the new generators are exact products.
    """
    r = len(basis)
    rows = [[d * int(i == j) for j in range(r)] for i in range(r)] + [list(nums)]
    h, trans = linalg.hnf_rows(rows)
    gens = list(basis) + [u]
    new_basis = []
    for row_idx in range(len(h)):
        if not any(h[row_idx]):
            continue
        new_basis.append(_word(e, gens, trans[row_idx]))
    assert len(new_basis) == r
    return new_basis


def _missing_rank(e: EtaleAlgebra, found: list[Coords], s_primes: tuple[int, ...]) -> str:
    """Where independent S-units fall short of the rank: the exact rank ρ of
    their valuations at the places above S (one row per place) counts what
    they cover there, and the other len(found) − ρ lie in the unit group,
    of rank r1 + r2 − 1."""
    f, powers, rows = e.factors[0], list(map(e.to_power, found)), []
    for p in s_primes:
        pp = prime_places(f, p)
        for j in range(pp.count):
            rows.append([pp.valuation(j, power) for power in powers])
    rho = len(linalg._echelon(rows, len(found))[0])
    text = f"missing {dirichlet_rank(signature(f)) - len(found) + rho} archimedean"
    if s_primes:
        text += f", {len(rows) - rho} at the places above {','.join(map(str, s_primes))}"
    return text


def assemble_unit_system(
    e: EtaleAlgebra,
    s_primes: tuple[int, ...] = (),
    coord_bound: int = 3,
) -> UnitSystem:
    """Search the box once, pick a certified independent system, saturate it.

    The order (one field factor) is searched once. The torsion generator t
    generates μ(O[1/S]) (roots_of_unity, no box): a root such as i = 3i/3
    in Z[3i][1/3] may sit in the pool. Of the pool units outside μ(O[1/S]),
    the first in canonical order of each class {t^k·u, t^k·u⁻¹} forms the
    free pool, log-embedded once per precision step. A later class member
    has the representative's log row up to sign, so the greedy choice never
    takes it, and it reduces against a basis with the same denominator
    whenever the representative does; canonical_unit already works modulo
    torsion and inversion. Dropping it changes no emitted generator.
    Saturation reduces every pool unit against the basis through one
    certified minor inverse per round and step, and the basis inverses once
    per round (exponents from certified logs, confirmed exactly); a unit
    generating a strictly larger lattice enlarges the basis by an exact
    Hermite-form step, so the final system with t generates every unit in
    the pool, class members included. The basis's log rows are the pool's
    own rows until the first enlargement: the same elements at the same
    precision, so the same minor and inverse.
    """
    _require_one_field(e)
    pool = search_units(e, coord_bound, s_primes)
    if s_primes:
        # saturate by pairwise ratios, each an S-unit: a box element a is
        # integral with an S-number norm N, so a⁻¹ = adj π(a)/N is in O[1/S]
        pairs = zip(pool, [e.inverse(b) for b in pool])
        seen = set(pool).union(
            e.mul(a, b_inv) for (a, _), (_, b_inv) in itertools.permutations(pairs, 2)
        )
        pool = sorted_elements(list(seen), _by_size)

    torsion = roots_of_unity(e, s_primes)
    torsion_gen, torsion_order = torsion[1], len(torsion)
    # the first pool element of each class {t^k·u, t^k·u⁻¹}: the rest of a
    # class repeat its log row up to sign and its saturation answer
    torsion_index = {z: k for k, z in enumerate(torsion)}
    free_pool, covered = [], set()
    for u in pool:
        if u not in covered and u not in torsion_index:
            free_pool.append(u)
            covered.update(e.mul(z, w) for w in (u, e.inverse(u)) for z in torsion)
    target_rank = s_unit_rank(e, s_primes)

    # the free pool's log rows, built once per precision step of this call
    pool_emb = functools.cache(lambda bits: build_log_embedding(e, free_pool, s_primes, bits))
    for bits in PRECISION_LADDER:  # basis_idx: the basis's pool rows, None once enlarged
        basis_idx, _ = find_certified_minor(pool_emb(bits), target_rank)
        if len(basis_idx) == target_rank:
            break
    basis = [free_pool[i] for i in basis_idx]
    if len(basis) != target_rank:
        raise IndependenceUndecidedError(
            f"found {len(basis)} independent units in the box of sup-norm <= {coord_bound} "
            f"with norm exponents <= kmax={KMAX}, expected rank {target_rank} "
            f"({_missing_rank(e, basis, s_primes)})"
        )

    # each enlargement multiplies the basis's index in the unit lattice by
    # its d ≥ 2, and that index is finite, so the rounds end
    changed = True
    while changed:
        changed = False
        with_inverses = [(g, e.inverse(g)) for g in basis]
        for bits in PRECISION_LADDER:
            if basis_idx is None:
                basis_emb = build_log_embedding(e, basis, s_primes, bits)
            else:
                basis_emb = pool_emb(bits).subset(basis_idx)
            taken, cols = find_certified_minor(basis_emb)
            if len(taken) < len(basis):
                continue
            minv = _minor_inverse(basis_emb.rows, cols)
            pending = False
            for u, u_row in zip(free_pool, pool_emb(bits).rows):
                got = _express_from_rows(e, with_inverses, cols, minv, u, u_row, torsion_index)
                if got is None:
                    pending = True
                    continue
                nums, d, _k = got
                if d > 1:
                    basis = _enlarge_basis(e, basis, u, nums, d)
                    basis_idx = None
                    changed = True
                    break
            else:
                if not pending:
                    break
                continue
            break
        else:
            raise IndependenceUndecidedError(
                f"unit in the box of sup-norm <= {coord_bound} with norm exponents "
                f"<= kmax={KMAX} does not reduce against the basis"
            )

    basis = [canonical_unit(e, g, torsion_gen, torsion_order) for g in basis]
    basis = sorted_elements(basis, _canonical_key)
    return UnitSystem(e, torsion_gen, torsion_order, basis, tuple(s_primes))


# ---------------------------------------------------------------------------
# the norm-one subgroup
# ---------------------------------------------------------------------------


def _norm_sign_and_exponents(
    e: EtaleAlgebra, u: Coords, s_primes: tuple[int, ...]
) -> tuple[int, list[int]]:
    num, den = e.norm(u)
    sign = 1 if num > 0 else -1
    num_rest, num_exp = strip_primes(num, s_primes)
    den_rest, den_exp = strip_primes(den, s_primes)
    if num_rest != 1 or den_rest != 1:
        raise ValueError(f"norm {linalg._ratio_str(num, den)} is not a unit of Z[1/S]")
    return sign, [num_exp[p] - den_exp[p] for p in s_primes]


def norm_one_subgroup(sys: UnitSystem) -> UnitSystem:
    """Kernel of the norm character on the given S-unit group.

    The free part is the kernel lattice of the exponent-vector map to the
    S-prime exponents of the norms (integer kernel via Smith normal form),
    with signs fixed by a torsion element of norm −1 when one exists and by
    doubling otherwise; the torsion part is the norm-one part of torsion.
    """
    e = sys.algebra
    s = sys.s_primes
    r = sys.rank
    signs, exps = [], []
    for g in sys.free_generators:
        sg, ex = _norm_sign_and_exponents(e, g, s)
        signs.append(sg)
        exps.append(ex)

    if s and r:
        mat = [[exps[i][pi] for i in range(r)] for pi in range(len(s))]
        kernel = linalg.int_kernel_basis(mat)
    else:
        kernel = [tuple(int(i == j) for i in range(r)) for j in range(r)]

    def vec_sign(v):
        out = 1
        for sg, c in zip(signs, v):
            if sg < 0 and c % 2 == 1:
                out = -out
        return out

    neg = [i for i, v in enumerate(kernel) if vec_sign(v) < 0]
    powers = (e.power(sys.torsion_generator, k) for k in range(1, sys.torsion_order + 1))
    torsion_fix = next((t for t in powers if e.norm(t)[0] < 0), None)

    new_vectors: list[tuple[tuple[int, ...], bool]] = []
    if neg and torsion_fix is None:
        base = kernel[neg[0]]
        for i, v in enumerate(kernel):
            if i == neg[0]:
                new_vectors.append((tuple(2 * c for c in base), False))
            elif i in neg:
                new_vectors.append((tuple(x + y for x, y in zip(v, base)), False))
            else:
                new_vectors.append((tuple(v), False))
    else:
        new_vectors = [(tuple(v), i in neg) for i, v in enumerate(kernel)]

    # norm-one part of torsion: the full torsion group if every power has
    # norm +1 (no torsion_fix was found), else the index-2 subgroup
    # generated by the square
    if torsion_fix is None:
        t_gen, t_order = sys.torsion_generator, sys.torsion_order
    else:
        t_order = sys.torsion_order // 2
        t_gen = e.mul(sys.torsion_generator, sys.torsion_generator)
        if t_order <= 1:
            t_gen, t_order = e.one(), 1

    free = []
    for v, fix in new_vectors:
        el = _word(e, sys.free_generators, v)
        if fix:
            el = e.mul(el, torsion_fix)
        assert e.norm(el) == (1, 1)
        free.append(canonical_unit(e, el, t_gen, t_order))
    return UnitSystem(e, t_gen, t_order, sorted_elements(free, _canonical_key), s)
