import itertools
import math
import sys
import time
import types
from fractions import Fraction

import pytest

from ampletori import linalg, pipeline, places, units
from ampletori.errors import (
    BudgetExceededError,
    IndependenceUndecidedError,
    NotAnOrderError,
    UnsupportedError,
)
from ampletori.etale import EtaleAlgebra, element
from ampletori.places import PrimePlaces, signature
from ampletori.polynomials import QPoly
from ampletori.units import (
    DependenceWitness,
    UnitSystem,
    assemble_unit_system,
    build_log_embedding,
    _is_torsion,
    canonical_unit,
    default_norm_targets,
    dirichlet_rank,
    find_certified_minor,
    norm_one_subgroup,
    s_unit_rank,
    search_units,
    torsion_units,
    verify_unit_system,
)

from oracles import (
    as_fractions,
    oracle_matrix_is_s_integral,
    oracle_norm,
    oracle_norm_five_box,
    oracle_torsion_order,
    oracle_unit_search,
    oracle_walk_difference_max,
)
from test_memos import fresh_memos

CUBIC = EtaleAlgebra([QPoly([-1, 1, 0, 1])])
GAUSS = EtaleAlgebra([QPoly([1, 0, 1])])
SQRT2 = EtaleAlgebra([QPoly([-2, 0, 1])])
QUARTIC = EtaleAlgebra([QPoly([1, -16, 20, -8, 1])])


def test_dirichlet_rank_examples():
    assert dirichlet_rank(signature(CUBIC.factors[0])) == 1
    assert dirichlet_rank(signature(QUARTIC.factors[0])) == 3
    assert dirichlet_rank(signature(GAUSS.factors[0]), (2,)) == 2
    assert s_unit_rank(GAUSS, (5,)) == 2


def test_norm_targets_are_ints_and_a_fraction_target_still_matches(monkeypatch):
    targets = default_norm_targets((13,), 169)
    assert targets == {1, -1, 13, -13, 169, -169} and all(type(t) is int for t in targets)
    assert default_norm_targets((13,), 168) == {1, -1, 13, -13}
    found = search_units(GAUSS, 3, (13,), {13})
    assert found and all(GAUSS.norm(u) == (13, 1) for u in found)
    assert search_units(GAUSS, 3, (13,), {Fraction(13)}) == found
    assert search_units(GAUSS, 3, (13,), {Fraction(13, 2), Fraction(1, 13)}) == []
    pool = search_units(GAUSS, 3, (13,), targets)

    made, new = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    assert search_units(GAUSS, 3, (13,), targets) == pool
    assert made == [], "a Fraction was made for an integer target"


def test_default_norm_targets_stop_at_the_box_norm_bound():
    # only the ±∏ p^k up to the box's largest norm are built, so the search
    # finds what all 2·3^|S| targets find
    primes = (5, 13, 17, 29, 37)
    every = {
        sign * math.prod(p**k for p, k in zip(primes, ks))
        for ks in itertools.product(range(units.KMAX + 1), repeat=len(primes))
        for sign in (1, -1)
    }
    bound = units._hadamard_bound(GAUSS, 3)
    assert default_norm_targets(primes, bound) == {t for t in every if abs(t) <= bound}
    assert search_units(GAUSS, 3, primes) == search_units(GAUSS, 3, primes, every)


def test_search_units_gaussian():
    found = search_units(GAUSS, 2, (), {Fraction(1), Fraction(-1)})
    assert set(found) == {
        element([1, 0]),
        element([-1, 0]),
        element([0, 1]),
        element([0, -1]),
    }


def test_search_units_norm_five_matches_enumeration_oracle():
    found = search_units(GAUSS, 3, (), {Fraction(5)})
    assert set(found) == oracle_norm_five_box(3)
    assert len(found) == 8


def test_search_units_cubic_contains_generator():
    found = search_units(CUBIC, 1, (), {Fraction(1), Fraction(-1)})
    assert element([0, 1, 0]) in found


def test_search_units_budget(monkeypatch):
    monkeypatch.setattr(units, "BOX_BUDGET", 10**4)
    with pytest.raises(BudgetExceededError, match=r"^box \(15\)\^4 = 50625 exceeds budget 10000$"):
        search_units(QUARTIC, 7, (), {Fraction(1)})
    assert search_units(QUARTIC, 4, (), {Fraction(1)})  # 9^4 = 6561 points


def test_search_units_symmetry():
    found = set(search_units(GAUSS, 3, (), {Fraction(1), Fraction(-1), Fraction(5), Fraction(-5)}))
    for u in found:
        assert _neg(u) in found  # negation symmetry
        # closed under the torsion action for the symmetric box
        assert GAUSS.mul(u, GAUSS.generator(0)) in found


def _neg(u):
    ints, den = u
    return tuple(-c for c in ints), den


def test_torsion_units():
    assert torsion_units(GAUSS) == (element([0, 1]), 4)
    assert torsion_units(CUBIC) == (element([-1, 0, 0]), 2)
    assert torsion_units(QUARTIC)[1] == 2
    zeta3 = EtaleAlgebra([QPoly([1, 1, 1])])
    gen, order = torsion_units(zeta3)
    assert order == 6
    zeta5 = EtaleAlgebra([QPoly([1, 1, 1, 1, 1])])
    gen, order = torsion_units(zeta5)
    assert order == 10  # mu_10 = <-zeta_5> in Z[zeta_5]
    with pytest.raises(UnsupportedError):
        torsion_units(EtaleAlgebra([QPoly([1, 0, 1]), QPoly([-2, 0, 1])]))


def test_verify_certifies_paper_systems():
    sys1 = UnitSystem(
        CUBIC, element([-1, 0, 0]), 2,
        [element([0, 1, 0])], ()
    )
    cert = verify_unit_system(sys1)
    assert cert.rank == 1 and cert.s_integral and cert.torsion_verified
    assert cert.caveats  # fundamentality gap is always recorded

    sys4 = UnitSystem(
        GAUSS, element([0, 1]), 4,
        [element([Fraction(4, 5), Fraction(3, 5)])], (5,)
    )
    cert = verify_unit_system(sys4)
    assert cert.rank == 1
    assert any(col.startswith("v(5/") for col in cert.minor_columns)


def test_verify_finds_dependence_witness():
    u = element([0, 1, 0])
    u2 = CUBIC.mul(u, u)
    sysd = UnitSystem(CUBIC, element([-1, 0, 0]), 2, [u, u2], ())
    witness = verify_unit_system(sysd)
    assert isinstance(witness, DependenceWitness)
    assert any(e != 0 for e in witness.exponents)
    prod = CUBIC.one()
    for g, k in zip(sysd.free_generators, witness.exponents):
        prod = CUBIC.mul(prod, CUBIC.power(g, k))
    assert prod == CUBIC.power(sysd.torsion_generator, witness.torsion_power)


PLASTIC = EtaleAlgebra([QPoly([-1, -1, 0, 1])])  # x^3 - x - 1, unit rank 1
X_UNIT = element([0, 1, 0])
MINUS_ONE = element([-1, 0, 0])


@pytest.mark.parametrize(
    "powers, exponents", [((1, 2), (-2, 1)), ((1, 9), (-9, 1)), ((2, 3), (-3, 2))]
)
def test_dependence_witness_comes_from_reducing_against_the_prefix(powers, exponents):
    e = PLASTIC
    gens = [e.power(X_UNIT, k) for k in powers]
    witness = verify_unit_system(UnitSystem(e, MINUS_ONE, 2, gens, ()))
    assert witness.exponents == exponents
    prod = e.one()
    for g, k in zip(gens, witness.exponents):
        prod = e.mul(prod, e.power(g, k))
    assert prod == e.power(MINUS_ONE, witness.torsion_power)


TWO_PLUS_I = element([2, 1])  # norm 5
I_UNIT = element([0, 1])


@pytest.mark.parametrize(
    "gens, exponents, torsion_power",
    [
        ((TWO_PLUS_I, GAUSS.mul(I_UNIT, GAUSS.power(TWO_PLUS_I, 2))), (-2, 1), 1),
        ((GAUSS.power(TWO_PLUS_I, 2), GAUSS.mul(I_UNIT, TWO_PLUS_I)), (-1, 2), 2),
    ],
)
def test_dependence_witness_names_the_torsion_power(gens, exponents, torsion_power):
    # g, i·g² gives u·g⁻² = i; g², i·g gives u² = i²·g², so d = 2 and k = 2
    witness = verify_unit_system(UnitSystem(GAUSS, I_UNIT, 4, list(gens), (5,)))
    assert (witness.exponents, witness.torsion_power) == (exponents, torsion_power)
    prod = GAUSS.one()
    for g, k in zip(gens, exponents):
        prod = GAUSS.mul(prod, GAUSS.power(g, k))
    assert prod == GAUSS.power(I_UNIT, torsion_power)


def test_saturation_runs_until_no_round_enlarges(monkeypatch):
    # the pool ε^512, ε^256, …, ε (ε = 1 + √2) needs nine enlargements, each
    # taking the square root of the basis element, before ε is reached
    eps = element([1, 1])
    pool = [_neg(SQRT2.one()), SQRT2.one()]
    pool += [SQRT2.power(eps, 2**j) for j in range(9, -1, -1)]
    monkeypatch.setattr(units, "search_units", lambda *args, **kwargs: list(pool))
    system = assemble_unit_system(SQRT2, (), 3)
    t = (system.torsion_generator, system.torsion_order)
    assert system.free_generators == [canonical_unit(SQRT2, eps, *t)]


def test_undecided_dependence_names_the_denominator_bound():
    gens = [PLASTIC.power(X_UNIT, 17), X_UNIT]  # x = (x^17)^(1/17): denominator 17
    system = UnitSystem(PLASTIC, MINUS_ONE, 2, gens, ())
    with pytest.raises(IndependenceUndecidedError, match=r"at 256 bits, .* d ≤ 16$"):
        verify_unit_system(system)


def test_verify_rejects_non_integral_generator():
    from ampletori.errors import InvalidUnitSystemError

    bad = UnitSystem(
        GAUSS, element([0, 1]), 4, [element([Fraction(4, 5), Fraction(3, 5)])], ()
    )
    with pytest.raises(InvalidUnitSystemError):
        verify_unit_system(bad)  # (4+3i)/5 is not integral without S = {5}
    wrong_order = UnitSystem(GAUSS, element([0, 1]), 2, [], ())
    with pytest.raises(InvalidUnitSystemError):
        verify_unit_system(wrong_order)


def test_unit_inverse_is_s_integral():
    for e, sys in [
        (CUBIC, assemble_unit_system(CUBIC, (), 3)),
        (GAUSS, assemble_unit_system(GAUSS, (5,), 3)),
    ]:
        for u in sys.free_generators:
            inv = e.inverse(u)
            assert e.mul(u, inv) == e.one()
            assert oracle_matrix_is_s_integral(as_fractions(e.regular_rep(u)), sys.s_primes)
            assert oracle_matrix_is_s_integral(as_fractions(e.regular_rep(inv)), sys.s_primes)


def test_prime_places_valuations():
    pp = PrimePlaces(GAUSS.factors[0], 5)
    assert pp.count == 2
    # 4+3i = i(2-i)^2 has valuations {0, 2} at the two places over 5
    coords = element([4, 3])
    vals = sorted(pp.valuation(i, coords) for i in range(2))
    assert vals == [0, 2]
    # a rational integer has valuation v_p at every place over p
    five = element([5, 0])
    assert [pp.valuation(i, five) for i in range(2)] == [1, 1]
    g = element([Fraction(4, 5), Fraction(3, 5)])
    assert sorted(pp.valuation(i, g) for i in range(2)) == [-1, 1]


def test_log_embedding_product_formula():
    # rows of S-units sum to a ball containing 0 (general product formula):
    # the sum of balls (m_j, r_j) is the ball (Σ m_j, Σ r_j)
    sysg = assemble_unit_system(GAUSS, (5,), 3)
    emb = build_log_embedding(GAUSS, list(sysg.free_generators), (5,), 64)
    for row in emb.rows:
        assert all(r >= 0 for _, r in row)
        assert abs(sum(m for m, _ in row)) <= sum(r for _, r in row)
    rows, cols = find_certified_minor(emb)
    assert rows == [0, 1] and len(cols) == 2


def test_assemble_cubic_reproduces_fundamental_unit():
    sys1 = assemble_unit_system(CUBIC, (), 3)
    assert sys1.torsion_order == 2
    assert sys1.free_generators == [element([0, 1, 0])]


def test_assemble_gauss_s_units():
    sysg = assemble_unit_system(GAUSS, (5,), 3)
    assert sysg.torsion_generator == element([0, 1])
    assert sysg.rank == 2 == s_unit_rank(GAUSS, (5,))


def test_norm_one_examples():
    # torsion of norm one stays whole for Q[i]
    sysg = UnitSystem(GAUSS, element([0, 1]), 4, [], (5,))
    n1 = norm_one_subgroup(sysg)
    assert n1.torsion_generator == element([0, 1]) and n1.torsion_order == 4

    # S-units {i, 2+i, 2-i}: free norm-one part generated by the paper's (4+3i)/5
    sysg = UnitSystem(
        GAUSS, element([0, 1]), 4,
        [element([2, 1]), element([2, -1])], (5,)
    )
    n1 = norm_one_subgroup(sysg)
    assert n1.free_generators == [element([Fraction(4, 5), Fraction(3, 5)])]

    # real quadratic: 1+sqrt2 has norm -1 and no torsion of norm -1 exists,
    # so the norm-one generator is the square (1+sqrt2)^2 = 3+2*sqrt2
    syss = UnitSystem(
        SQRT2, element([-1, 0]), 2, [element([1, 1])], ()
    )
    n1 = norm_one_subgroup(syss)
    assert n1.free_generators == [element([3, 2])]
    # the cubic -1 has norm -1: norm-one part of torsion is trivial there
    sysc = UnitSystem(
        CUBIC, element([-1, 0, 0]), 2,
        [element([0, 1, 0])], ()
    )
    n1c = norm_one_subgroup(sysc)
    assert n1c.torsion_order == 1
    assert n1c.free_generators == [element([0, 1, 0])]


def test_norm_one_output_has_norm_one_and_snf_index():
    sysg = assemble_unit_system(GAUSS, (5,), 3)
    n1 = norm_one_subgroup(sysg)
    for g in n1.free_generators:
        assert GAUSS.norm(g) == (1, 1)
    # exponent lattice of the input maps onto Z (powers of 5) with kernel of
    # rank 1: the norm-one free part
    assert n1.rank == sysg.rank - 1


def test_canonical_unit_tie_breaks():
    i = element([0, 1])
    w = element([Fraction(3, 5), Fraction(4, 5)])  # (3+4i)/5 = (2+i)/(2-i)
    assert canonical_unit(GAUSS, w, i, 4) == element([Fraction(4, 5), Fraction(3, 5)])
    x = element([0, 1, 0])
    xinv = CUBIC.inverse(x)
    minus_one = element([-1, 0, 0])
    assert canonical_unit(CUBIC, xinv, minus_one, 2) == x


def test_dirichlet_consistency_with_certified_rank():
    for e, s, expected in [
        (CUBIC, (), 1),
        (GAUSS, (5,), 2),
        (QUARTIC, (), 3),
    ]:
        bound = 9 if e is QUARTIC else 3
        sysx = assemble_unit_system(e, s, bound)
        cert = verify_unit_system(sysx)
        assert cert.rank == expected == s_unit_rank(e, s)


# cyclotomic and unit fields: mu_4, mu_6, mu_8, mu_10, mu_12, and mu_2 only
TORSION_FIELDS = [
    EtaleAlgebra([QPoly(c)])
    for c in ([1, 0, 1], [1, 1, 1], [1, 0, 0, 0, 1], [1, 1, 1, 1, 1], [1, 0, -1, 0, 1], [-1, 1, 0, 1])
]
NON_ORDER = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, Fraction(1, 2)]]))


@pytest.mark.parametrize("e", TORSION_FIELDS + [SQRT2, QUARTIC], ids=repr)
def test_is_torsion_matches_powering_oracle(e):
    # every pool element of an S-unit search, non-units of norm ±5, ±25 included
    pool = search_units(e, 2, (), default_norm_targets((5,), 25))
    assert pool
    for u in pool:
        assert _is_torsion(e, u) == oracle_torsion_order(e, u)


def test_is_torsion_matches_powering_oracle_on_pairwise_ratios():
    # the S-ratio pool of assembly: units such as i = (2+3i)/(3-2i) and
    # non-integral S-units such as (5+12i)/13 = (3+2i)/(3-2i)
    found = search_units(GAUSS, 6, (13,))
    ratios = {GAUSS.mul(a, GAUSS.inverse(b)) for a in found for b in found if a != b}
    assert element([Fraction(5, 13), Fraction(12, 13)]) in ratios
    assert {oracle_torsion_order(GAUSS, u) for u in ratios} == {None, 2, 4}
    for u in ratios:
        assert _is_torsion(GAUSS, u) == oracle_torsion_order(GAUSS, u)


@pytest.mark.parametrize("bound", [1, 4])
@pytest.mark.parametrize("e", TORSION_FIELDS, ids=repr)
def test_assembled_torsion_equals_torsion_units(e, bound):
    system = assemble_unit_system(e, (), bound)
    assert (system.torsion_generator, system.torsion_order) == torsion_units(e)


# assemble_unit_system's (torsion generator, order, free generators), recorded
# before the free pool was cut to one element per unit class: the cut must not
# change an emitted generator.
ASSEMBLY_PINS = [
    ([1, 0, 1], (13, 17), 6, ("0", "1"), 4, [("4", "1"), ("4", "-1"), ("3", "2"), ("3", "-2")]),
    ([-1, -1, 0, 1], (), 3, ("-1", "0", "0"), 2, [("0", "1", "0")]),
    (
        [5, 0, -5, 0, 1], (), 3, ("-1", "0", "0", "0"), 2,
        [("3", "0", "-1", "0"), ("2", "1", "0", "0"), ("1", "1", "0", "0")],
    ),
    ([1, 1, 2, 0, 1], (), 3, ("-1", "0", "0", "0"), 2, [("1", "0", "1", "0")]),
]


@pytest.mark.parametrize("f, s, bound, torsion, order, free", ASSEMBLY_PINS, ids=str)
def test_assembled_generators_are_pinned(f, s, bound, torsion, order, free):
    system = assemble_unit_system(EtaleAlgebra([QPoly(f)]), s, bound)

    def as_fractions(v):
        return element([Fraction(x) for x in v])

    assert system.torsion_generator == as_fractions(torsion)
    assert system.torsion_order == order
    assert system.free_generators == [as_fractions(g) for g in free]


def _unit_classes(e, elements, box_bound=1):
    """The classes {z·u, z·u⁻¹ : z a root of unity} of the elements of infinite order.

    Brute force: the roots of unity are the elements of a small box of finite
    order by plain powering, and each class is spelled out in full.
    """
    roots = [
        z for z in oracle_unit_search(e, box_bound, {Fraction(1), Fraction(-1)})
        if oracle_torsion_order(e, z) is not None
    ]
    return {
        u: frozenset(e.mul(z, w) for z in roots for w in (u, e.inverse(u)))
        for u in elements
        if oracle_torsion_order(e, u) is None
    }


def _record_assembly(monkeypatch):
    """Patch assembly's embedding, inverse and enlargement to log their calls.

    Embeddings log ("embed", elements); a minor inverse logs ("inverse", id
    of the inverse); an enlargement logs ("enlarge",); every _express_from_rows call
    logs ("express", id of the inverse it reduces against).
    """
    events = []
    embed, inverse = units.build_log_embedding, units._minor_inverse
    express, enlarge = units._express_from_rows, units._enlarge_basis
    kept = []  # the inverses stay alive, so their ids stay distinct

    def recording_embed(e, elements, *args, **kwargs):
        events.append(("embed", list(elements)))
        return embed(e, elements, *args, **kwargs)

    def recording_inverse(*args, **kwargs):
        kept.append(inverse(*args, **kwargs))
        events.append(("inverse", id(kept[-1])))
        return kept[-1]

    def recording_express(e, basis, cols, minv, *args, **kwargs):
        events.append(("express", id(minv)))
        return express(e, basis, cols, minv, *args, **kwargs)

    def recording_enlarge(*args, **kwargs):
        events.append(("enlarge",))
        return enlarge(*args, **kwargs)

    monkeypatch.setattr(units, "build_log_embedding", recording_embed)
    monkeypatch.setattr(units, "_minor_inverse", recording_inverse)
    monkeypatch.setattr(units, "_express_from_rows", recording_express)
    monkeypatch.setattr(units, "_enlarge_basis", recording_enlarge)
    return events


def _rounds(events):
    """The inverses that pool units were reduced against, in order of use."""
    return list(dict.fromkeys(ev[1] for ev in events if ev[0] == "express"))


def test_assemble_searches_once_and_inverts_once_per_round(monkeypatch):
    calls = {"search": 0}
    found = []
    search = units.search_units

    def counting_search(*args, **kwargs):
        calls["search"] += 1
        found.extend(search(*args, **kwargs))
        return found

    def refuse(*args, **kwargs):
        raise AssertionError("torsion comes from the pool search")

    monkeypatch.setattr(units, "search_units", counting_search)
    monkeypatch.setattr(units, "torsion_units", refuse)
    events = _record_assembly(monkeypatch)
    system = assemble_unit_system(GAUSS, (13, 29), 6)
    assert system.rank == 4 == s_unit_rank(GAUSS, (13, 29))
    assert calls["search"] == 1
    # the free pool is embedded once, one row per unit class of the box units
    # and their pairwise ratios (every ratio a/b = a·conj(b)/N(b) is an S-unit
    # here); the basis is never enlarged, so its rows are read from the pool's
    # and it is not embedded again; the one round and precision step inverts
    # one minor
    [pool_rows] = [ev[1] for ev in events if ev[0] == "embed"]
    ratios = {GAUSS.mul(a, GAUSS.inverse(b)) for a in found for b in found if a != b}
    classes = _unit_classes(GAUSS, set(found) | ratios)
    assert len(pool_rows) == len(set(classes.values())) > system.rank
    assert {classes[u] for u in pool_rows} == set(classes.values())
    inverses = [ev[1] for ev in events if ev[0] == "inverse"]
    assert inverses == _rounds(events) and len(inverses) == 1
    assert ("enlarge",) not in events


def test_assembly_embeds_the_basis_only_after_an_enlargement(monkeypatch):
    events = _record_assembly(monkeypatch)
    system = assemble_unit_system(EtaleAlgebra([QPoly([5, 0, -5, 0, 1])]), (), 3)
    assert system.rank == 3
    kinds = [ev[0] for ev in events if ev[0] != "express"]
    # the pool, one round against the pool's rows, an enlargement, then a
    # round against the re-embedded basis
    assert kinds == ["embed", "inverse", "enlarge", "embed", "inverse"]
    pool, basis = (ev[1] for ev in events if ev[0] == "embed")
    assert len(pool) > len(basis) == system.rank
    assert [ev[1] for ev in events if ev[0] == "inverse"] == _rounds(events)


def test_assembly_climbs_the_precision_ladder(monkeypatch):
    # with certification blocked below 256 bits, the top rung must still be
    # tried: the greedy choice, saturation and verification share one
    # ladder, 64 → 128 → 256; below 256 bits the routine takes no row
    assert units.PRECISION_LADDER == (64, 128, 256)
    minor = units.find_certified_minor
    tried = []

    def late_minor(emb, limit=None):
        tried.append((emb.precision, limit))
        return minor(emb, limit) if emb.precision >= 256 else ([], ())

    monkeypatch.setattr(units, "find_certified_minor", late_minor)
    system = assemble_unit_system(SQRT2, (), 3)
    assert system.free_generators == [element([1, 1])]
    # the greedy choice at each rung, then one saturation round
    assert tried == [(64, 1), (128, 1), (256, 1), (64, None), (128, None), (256, None)]
    tried.clear()
    assert verify_unit_system(system).precision_bits == 256
    assert tried == [(64, None), (128, None), (256, None)]


def test_certified_rank_tries_at_most_rows_times_columns_minors(monkeypatch):
    # Z[i] with eight split primes: the box holds 4 independent units of
    # the 16 the S-unit rank asks for. Each row tries each column at most
    # once, so the minors grow as rows × columns, not as C(columns, rows)
    primes = (5, 13, 17, 29, 37, 41, 53, 61)
    radius, minor, calls = units._det_radius, units.find_certified_minor, []

    def counted_radius(mids, rads):
        calls[-1][2] += 1
        return radius(mids, rads)

    def counted_minor(emb, limit=None):
        calls.append([len(emb.rows), len(emb.columns), 0])
        return minor(emb, limit)

    monkeypatch.setattr(units, "_det_radius", counted_radius)
    monkeypatch.setattr(units, "find_certified_minor", counted_minor)
    with pytest.raises(
        IndependenceUndecidedError,
        match=r"^found 4 independent units in the box of sup-norm <= 3 with norm exponents "
        r"<= kmax=2, expected rank 16 \(missing 0 archimedean, 12 at the places above "
        r"5,13,17,29,37,41,53,61\)$",
    ):
        assemble_unit_system(GAUSS, primes, 3)
    assert calls and all(minors <= rows * cols for rows, cols, minors in calls)
    assert sum(minors for _, _, minors in calls) <= 255


def test_searches_require_an_order():
    with pytest.raises(NotAnOrderError):
        search_units(NON_ORDER, 2, (), {Fraction(1)})
    with pytest.raises(NotAnOrderError):
        torsion_units(NON_ORDER)
    with pytest.raises(NotAnOrderError):
        assemble_unit_system(NON_ORDER, (), 2)


def test_non_integer_norm_target_matches_nothing():
    assert search_units(GAUSS, 2, (), {Fraction(1, 2)}) == []
    assert search_units(GAUSS, 2, (), {Fraction(1, 2), Fraction(1)}) == search_units(
        GAUSS, 2, (), {Fraction(1)}
    )


def test_prime_places_are_built_once_per_polynomial_and_prime(monkeypatch):
    fresh_memos(monkeypatch, places.prime_places)
    built = []
    init = PrimePlaces.__init__
    monkeypatch.setattr(
        PrimePlaces, "__init__", lambda self, f, p: built.append(p) or init(self, f, p)
    )
    u = [element([2, 1])]
    first = build_log_embedding(GAUSS, u, (5, 13))
    build_log_embedding(GAUSS, u, (5, 13), 128)
    assert build_log_embedding(GAUSS, u, (5, 13)).rows == first.rows
    assert built == [5, 13]


# degrees 1 to 4, the order {1, 2x} of x^2+1, and two-factor algebras
SEARCH_ALGEBRAS = [
    EtaleAlgebra([QPoly([-3, 1])]),
    GAUSS,
    EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 2]])),
    CUBIC,
    QUARTIC,
    EtaleAlgebra([QPoly([1, 0, 0, 0, 1])]),
    EtaleAlgebra([QPoly([-1, 1]), QPoly([1, 0, 1])]),
    EtaleAlgebra([QPoly([-2, 0, 1]), QPoly([1, 0, 1])]),
]


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("e", SEARCH_ALGEBRAS, ids=repr)
def test_search_units_matches_full_box_oracle(e, bound):
    # the corner is the whole box (2B+1 ≤ n+1) at bound 1 for n ≥ 2 and at
    # bound 2 for n = 4; targets are the S-unit norms for S = {5} and 0,
    # the norm of the zero divisors
    targets = default_norm_targets((5,), 25) | {Fraction(0)}
    found = search_units(e, bound, (5,), targets)
    assert sorted(found) == oracle_unit_search(e, bound, targets)


# targets with no −1 multiple among them, so each hit's mirror −x must be
# decided by the sign rule N(−x) = (−1)^n·N(x) on its own
@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("targets", [{5}, {-1, 3}], ids=str)
@pytest.mark.parametrize("e", [CUBIC, SEARCH_ALGEBRAS[6], QUARTIC], ids=repr)
def test_search_units_mirror_matches_full_box_oracle(e, targets, bound):
    targets = {Fraction(t) for t in targets}
    found = search_units(e, bound, (), targets)
    assert sorted(found) == oracle_unit_search(e, bound, targets)


@pytest.mark.parametrize("e, bound", [(QUARTIC, 1), (QUARTIC, 9), (GAUSS, 6)], ids=str)
def test_search_units_takes_one_determinant_per_corner_point(e, bound, monkeypatch):
    calls = []
    norm = EtaleAlgebra.norm

    def counting_norm(self, a):
        calls.append(a)
        return norm(self, a)

    monkeypatch.setattr(EtaleAlgebra, "norm", counting_norm)
    search_units(e, bound)
    # the simplex corner: N has degree n, so no difference of order past n is read
    m = min(e.n + 1, 2 * bound + 1)
    simplex = [j for j in itertools.product(range(m), repeat=e.n) if sum(j) <= e.n]
    assert len(calls) == len(simplex)


# norms as large as a lane must hold: x^3 − 1000x − 1, the order {1, 37i} of
# x^2 + 1, and the two-factor algebras
LANE_ALGEBRAS = [
    EtaleAlgebra([QPoly([-1, -1000, 0, 1])]),
    EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 37]])),
    SEARCH_ALGEBRAS[6],
    SEARCH_ALGEBRAS[7],
]


def _lane_bound(e, bound):
    """V: 2^n times the Hadamard bound at reach B + n + 1."""
    return 2**e.n * units._hadamard_bound(e, bound + e.n + 1)


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("e", LANE_ALGEBRAS, ids=repr)
def test_search_units_lanes_match_full_box_oracle(e, bound):
    # S-unit targets for S = {5} up past the lane bound V, 0, and the norms
    # of two box corners, so that hits sit in the largest lanes
    lane_bound = _lane_bound(e, bound)
    norm, corners = oracle_norm(e), [(bound,) * e.n, ((bound, -bound) * e.n)[: e.n]]
    targets = {Fraction(0)} | {Fraction(norm(x)) for x in corners}
    targets |= {Fraction(s * 5**k) for k in range(lane_bound.bit_length()) for s in (1, -1)}
    assert max(targets) > lane_bound
    found = search_units(e, bound, (5,), targets)
    assert sorted(found) == oracle_unit_search(e, bound, targets)


# at bounds 2 and 3 the corner is the whole simplex for every n ≤ 4, so the
# walk holds true differences of N
@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("e", LANE_ALGEBRAS, ids=repr)
def test_lane_bound_covers_every_difference_of_the_walk(e, bound):
    assert oracle_walk_difference_max(e, bound) <= _lane_bound(e, bound)
    # and no norm in the box exceeds the bound its targets are filtered by
    norm = oracle_norm(e)
    box = itertools.product(range(-bound, bound + 1), repeat=e.n)
    assert max(abs(norm(x)) for x in box) <= units._hadamard_bound(e, bound)


@pytest.mark.parametrize("d, fundamental", [(2, (1, 1)), (3, (2, 1))])
def test_search_units_at_the_largest_box_the_budget_admits(d, fundamental):
    # the units of Z[√d] are ±ε^k, k ∈ Z; ε' = a − b√d = ±ε⁻¹, and
    # (x + y√d)(a + b√d) = (ax + dby) + (bx + ay)√d
    e, bound = EtaleAlgebra([QPoly([-d, 0, 1])]), 499
    assert (2 * bound + 1) ** 2 <= 10**6
    expected = set()
    for a, b in (fundamental, (fundamental[0], -fundamental[1])):
        x, y = 1, 0
        while max(abs(x), abs(y)) <= bound:
            expected |= {(x, y), (-x, -y)}
            x, y = a * x + d * b * y, b * x + a * y
    found = search_units(e, bound)
    assert len(found) == len(expected)
    assert {ints for ints, _ in found} == expected


# What verify_unit_system certifies for the assembled unit systems of examples
# 5.1–5.4, recorded from the Fraction-series logarithms: tighter log
# enclosures must not change which minor certifies or at which precision.
PAPER_UNIT_CERTIFICATES = {
    "ex51": (("real(0.0)",), 64),
    "ex52": (("real(0.0)", "real(0.1)", "real(0.2)"), 64),
    "ex53": (("real(0.0)",), 64),
    "ex54": (("complex(0.0)", "v(5/0.0)"), 64),
}


@pytest.mark.parametrize("name", sorted(PAPER_UNIT_CERTIFICATES))
def test_paper_unit_certificates_keep_their_minor_and_precision(name):
    golden = pipeline._load_golden(pipeline.corpus_dir(), f"{name}.json")
    req = pipeline.PipelineRequest.from_json(golden["request"])
    _, cert = pipeline._verified_units(req)
    assert (cert.minor_columns, cert.precision_bits) == PAPER_UNIT_CERTIFICATES[name]


def _ex52_request():
    golden = pipeline._load_golden(pipeline.corpus_dir(), "ex52.json")
    return pipeline.PipelineRequest.from_json(golden["request"])


def test_log_embedding_sums_one_log_series_per_entry(monkeypatch):
    # one log_grid call per archimedean entry, at the lower end of |A(α)|²,
    # and one per S-prime; the upper end is closed without a second series
    calls = []
    log_grid = units.log_grid

    def counting_log_grid(a, b, bits):
        calls.append((a, b))
        return log_grid(a, b, bits)

    monkeypatch.setattr(units, "log_grid", counting_log_grid)
    ex52 = pipeline._verified_units(_ex52_request())[0]
    gauss = assemble_unit_system(GAUSS, (13, 17), 6)
    for system, archimedean in ((ex52, 4), (gauss, 1)):
        for bits in units.PRECISION_LADDER:
            calls.clear()
            build_log_embedding(system.algebra, system.free_generators, system.s_primes, bits)
            assert len(calls) == system.rank * archimedean + len(system.s_primes)


def test_saturation_takes_each_basis_power_once_a_round(monkeypatch):
    # ex 5.2 saturates in two rounds: the basis is enlarged once. Within a
    # round, every g_i^a the reductions ask for is multiplied out once.
    fresh_memos(monkeypatch)
    rounds, inside = [[]], []
    power, express, enlarge = EtaleAlgebra.power, units._express_from_rows, units._enlarge_basis

    def counting_power(self, a, k):
        if inside:
            rounds[-1].append((a, k))
        return power(self, a, k)

    def marked_express(*args):
        inside.append(True)
        try:
            return express(*args)
        finally:
            inside.pop()

    def next_round(*args):
        rounds.append([])
        return enlarge(*args)

    monkeypatch.setattr(EtaleAlgebra, "power", counting_power)
    monkeypatch.setattr(units, "_express_from_rows", marked_express)
    monkeypatch.setattr(units, "_enlarge_basis", next_round)
    pipeline._verified_units(_ex52_request())
    assert [len(set(taken)) for taken in rounds] == [len(taken) for taken in rounds]
    assert list(map(len, rounds)) == [9, 21]


def test_split_gaussian_s_units_certify_in_polynomial_time():
    # x² + 1 with four and five split primes: S-unit ranks 8 and 10. Each
    # minor is one integer determinant against a ball bound, where a Laplace
    # expansion took r! interval products (rank 8 took about 70 s that way)
    start = time.process_time()
    primes = (5, 13, 17, 29, 37)
    for rank in (8, 10):
        system = assemble_unit_system(GAUSS, primes[: rank // 2], 12)
        cert = verify_unit_system(system)
        assert system.rank == cert.rank == rank
        assert cert.precision_bits == 64
        finite = [f"v({p}/0.{i})" for p in primes for i in (0, 1)]
        assert cert.minor_columns == ("complex(0.0)", *finite[: rank - 1])
    assert time.process_time() - start < 2


SHIFTED_SQRT2 =EtaleAlgebra([QPoly([-2, 0, 1])], linalg.matrix([[1, 5], [0, 1]]))  # 1 = (1, -5)


def test_torsion_of_a_shifted_order_needs_no_box():
    assert SHIFTED_SQRT2.is_order() == (True, None)
    system = assemble_unit_system(SHIFTED_SQRT2, (), 6)
    assert (system.torsion_generator, system.torsion_order) == (element([-1, 5]), 2)
    assert system.free_generators == [element([1, -4])]  # 1 + x
    assert torsion_units(SHIFTED_SQRT2) == (element([-1, 5]), 2)


def test_an_undecided_unit_system_names_its_box(monkeypatch):
    # the fundamental unit 8 + 3√7 of Z[√7] lies outside the box of sup-norm 3
    with pytest.raises(
        IndependenceUndecidedError,
        match=r"^found 0 independent units in the box of sup-norm <= 3 with norm exponents "
        r"<= kmax=2, expected rank 1 \(missing 1 archimedean\)$",
    ):
        assemble_unit_system(EtaleAlgebra([QPoly([-7, 0, 1])]), (), 3)
    monkeypatch.setattr(units, "_express_from_rows", lambda *args: None)
    with pytest.raises(
        IndependenceUndecidedError,
        match=r"^unit in the box of sup-norm <= 2 with norm exponents <= kmax=2 does not "
        r"reduce against the basis$",
    ):
        assemble_unit_system(SQRT2, (), 2)


@pytest.mark.parametrize(
    "coeffs, places, missing",
    [
        # Q(√−23) has no unit of infinite order, and 2 splits: the box finds
        # one of the two directions at the places above 2
        (["6", "1", "1"], "inf,2", "found 1 independent units .* expected rank 2 "
         r"\(missing 0 archimedean, 1 at the places above 2\)$"),
        # the fundamental unit of Z[√94] lies far outside the box
        (["-94", "0", "1"], "inf",
         r"found 0 independent .* expected rank 1 \(missing 1 archimedean\)$"),
    ],
)
def test_an_undecided_unit_system_says_which_rank_is_missing(coeffs, places, missing):
    request = {"algebra": {"factors": [coeffs]}, "ambient": "GL", "places": places,
               "unit_source": {"search": {"coord_bound": 3}}}
    with pytest.raises(IndependenceUndecidedError, match=missing):
        pipeline.run_pipeline(pipeline.PipelineRequest.from_json(request))


def test_a_box_without_units_names_its_bound():
    # ±1 = ±(1, -5) lie outside the box of sup-norm 3, and so does every unit
    # of infinite order; the torsion is found without the box
    with pytest.raises(
        IndependenceUndecidedError,
        match=r"^found 0 independent units in the box of sup-norm <= 3 with norm exponents "
        r"<= kmax=2, expected rank 1 \(missing 1 archimedean\)$",
    ):
        assemble_unit_system(SHIFTED_SQRT2, (), 3)
    assert torsion_units(SHIFTED_SQRT2) == (element([-1, 5]), 2)


def test_assembly_rescales_no_operand_inside_the_algebra(monkeypatch):
    # the ring operations take and give the integer form (ints, den), so no
    # EtaleAlgebra method scales a Fraction vector to integers
    methods = {f.__code__ for f in vars(EtaleAlgebra).values() if isinstance(f, types.FunctionType)}
    integer_form, inside = linalg._integer_form, []

    def counting(v):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in methods:
            frame = frame.f_back
        if frame is not None:
            inside.append(frame.f_code.co_name)
        return integer_form(v)

    e = EtaleAlgebra([QPoly([1, 0, 1])])
    for name, mod in list(sys.modules.items()):  # every module that holds the helper
        if name.startswith("ampletori") and getattr(mod, "_integer_form", None) is integer_form:
            monkeypatch.setattr(mod, "_integer_form", counting)
    system = assemble_unit_system(e, (13, 17), 6)
    assert system.rank == 4
    assert inside == []
