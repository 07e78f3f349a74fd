import itertools
import random
from fractions import Fraction

import pytest

from ampletori import linalg
from ampletori.errors import InputError, RamifiedPlaceError, UnsupportedError
from ampletori.etale import EtaleAlgebra
from ampletori.places import INF, STANDARD_TAGS, orbits_of, regular_action, standard_tag
from ampletori.polynomials import QPoly, discriminant, is_prime
from ampletori.torus import (
    GL,
    SL,
    VERDICT_AMPLE,
    VERDICT_NOT_AMPLE,
    VERDICT_UNDECIDABLE,
    PlaceSet,
    TorusDatum,
    anisotropic_and_split_parts,
    build_torus,
    center_rank,
    decompose_module,
    global_orbits,
    global_rank,
    is_s_ample,
    local_rank,
    replay_certificate,
    _invariant_dim,
    _orbit_means,
    _zero_sum_basis,
)

from oracles import oracle_intersect_row_spaces

CUBIC = EtaleAlgebra([QPoly([-1, 1, 0, 1])])
GAUSS = EtaleAlgebra([QPoly([1, 0, 1])])
QUARTIC = EtaleAlgebra([QPoly([1, -16, 20, -8, 1])])
QQ = EtaleAlgebra([QPoly([-1, 1]), QPoly([-2, 1])])  # Q x Q
FIELDS = [CUBIC, GAUSS, QUARTIC, EtaleAlgebra([QPoly([-2, 0, 1])])]


def test_build_torus_modules():
    t = build_torus(CUBIC, SL)
    assert t.dim == 2 and t.tags[0].group == "S3"
    t = build_torus(GAUSS, SL)
    assert t.dim == 1 and t.tags[0].group == "C2"
    t = build_torus(QUARTIC, SL)
    assert t.dim == 3 and t.tags[0].group == "V4"


def test_global_rank_examples():
    assert global_rank(build_torus(CUBIC, SL)) == 0
    assert global_rank(build_torus(CUBIC, GL)) == 1
    assert global_rank(build_torus(QQ, SL)) == 1  # the diagonal split torus


def test_local_rank_examples():
    t = build_torus(GAUSS, SL)
    assert local_rank(t, INF) == 0
    assert local_rank(t, 5) == 1
    assert local_rank(build_torus(CUBIC, SL), INF) == 1


def test_local_rank_ramified_propagates():
    with pytest.raises(RamifiedPlaceError):
        local_rank(build_torus(CUBIC, SL), 31)


def test_decompose_module_examples():
    d = decompose_module(build_torus(CUBIC, SL))
    assert [(c.character, c.dim) for c in d.components] == [("std", 2)]
    assert d.multiplicity_free
    d = decompose_module(build_torus(QUARTIC, SL))
    assert [(c.character, c.dim) for c in d.components] == [
        ("chi1", 1), ("chi2", 1), ("chi3", 1)
    ]
    d = decompose_module(build_torus(GAUSS, SL))
    assert [(c.character, c.dim) for c in d.components] == [("sgn", 1)]


def test_is_s_ample_paper_verdicts():
    assert is_s_ample(build_torus(CUBIC, SL), PlaceSet(True, ())).verdict == VERDICT_AMPLE
    assert (
        is_s_ample(build_torus(GAUSS, SL), PlaceSet(True, ())).verdict
        == VERDICT_NOT_AMPLE
    )
    assert (
        is_s_ample(build_torus(GAUSS, SL), PlaceSet(True, (5,))).verdict
        == VERDICT_AMPLE
    )
    assert is_s_ample(build_torus(QUARTIC, SL), PlaceSet(True, ())).verdict == VERDICT_AMPLE


def test_ample_monotone_in_s():
    # more places only help condition (iii); condition (i) is S-independent
    base = is_s_ample(build_torus(GAUSS, SL), PlaceSet(True, ()))
    bigger = is_s_ample(build_torus(GAUSS, SL), PlaceSet(True, (5,)))
    assert base.verdict == VERDICT_NOT_AMPLE and bigger.verdict == VERDICT_AMPLE
    amp13 = is_s_ample(build_torus(CUBIC, SL), PlaceSet(True, ()))
    amp13b = is_s_ample(build_torus(CUBIC, SL), PlaceSet(True, (2,)))
    assert amp13.verdict == amp13b.verdict == VERDICT_AMPLE


def test_rank_monotonicity_global_le_local():
    rng = random.Random(3)
    for e in FIELDS:
        for ambient in (SL, GL):
            t = build_torus(e, ambient)
            g = global_rank(t)
            assert g <= local_rank(t, INF)
            disc = discriminant(e.factors[0])
            checked = 0
            p = 2
            while checked < 12:
                if is_prime(p) and disc % p != 0:
                    assert g <= local_rank(t, p)
                    checked += 1
                p += 1


def test_two_path_local_rank_consistency():
    from ampletori.places import places_over_p, signature

    for e in FIELDS:
        t_sl = build_torus(e, SL)
        t_gl = build_torus(e, GL)
        f = e.factors[0]
        sig = signature(f)
        assert local_rank(t_gl, INF) == sig.r1 + sig.r2
        assert local_rank(t_sl, INF) == sig.r1 + sig.r2 - 1
        disc = discriminant(f)
        checked = 0
        p = 2
        while checked < 12:
            if is_prime(p) and disc % p != 0:
                k = places_over_p(f, p)
                assert local_rank(t_gl, p) == k
                assert local_rank(t_sl, p) == k - 1
                checked += 1
            p += 1


def test_certificate_replay():
    from ampletori.serialize import certificate_to_json, dumps, loads
    from ampletori.torus import replay_certificate_json

    for e, s in [(CUBIC, ()), (GAUSS, ()), (GAUSS, (5,)), (QUARTIC, ())]:
        cert = is_s_ample(build_torus(e, SL), PlaceSet(True, s))
        assert replay_certificate(cert) == cert.verdict
        # and through a full serialization round trip
        wire = loads(dumps(certificate_to_json(cert)))
        assert replay_certificate_json(wire) == cert.verdict


def test_replay_detects_tampering():
    from ampletori.serialize import certificate_to_json
    from ampletori.torus import replay_certificate_json

    cert = is_s_ample(build_torus(GAUSS, SL), PlaceSet(True, (5,)))
    data = certificate_to_json(cert)
    # claim a bigger witness gap than the stored ranks support
    data["submodules"][0]["sub_rank_at_witness"] = -1
    with pytest.raises(AssertionError):
        replay_certificate_json(data)


def test_certificate_details_gauss():
    cert = is_s_ample(build_torus(GAUSS, SL), PlaceSet(True, (5,)))
    assert cert.local_ranks == {"inf": 0, "p:5": 1}
    assert cert.condition_i["pass"] and cert.condition_ii["pass"]
    assert cert.condition_iii["status"] == "pass"
    # W = 0 is among the proper submodules and its witness is the 5-adic place
    zero = [w for w in cert.submodules if w.dim == 0]
    assert zero and zero[0].witness_place == "p:5"


def test_not_multiplicity_free_is_undecidable():
    # the regular degree-6 action of S3 contains the standard rep twice;
    # condition (i) passes (no invariants in the zero-sum module), so the
    # verdict must be "undecidable", never a guess
    tag = regular_action(standard_tag("S3"))
    t = TorusDatum(SL, (tag,), _zero_sum_basis(6), None)
    assert global_rank(t) == 0
    d = decompose_module(t)
    assert not d.multiplicity_free
    std = [c for c in d.components if c.character == "std"]
    assert std and std[0].multiplicity == 2
    cert = is_s_ample(t, PlaceSet(True, ()))
    assert cert.verdict == VERDICT_UNDECIDABLE
    assert cert.condition_iii["status"] == "undecidable"
    assert cert.condition_iii["offending_component"] == "std"
    assert replay_certificate(cert) == VERDICT_UNDECIDABLE


def test_without_an_algebra_local_ranks_are_undecidable():
    # S3 on its 3 roots: the zero-sum module is the standard rep once, so
    # only the missing place profiles keep condition (iii) from running
    t = TorusDatum(SL, (standard_tag("S3"),), _zero_sum_basis(3), None)
    assert decompose_module(t).multiplicity_free and global_rank(t) == 0
    cert = is_s_ample(t, PlaceSet(True, (5,)))
    assert cert.verdict == VERDICT_UNDECIDABLE
    assert cert.local_ranks == {}
    assert cert.condition_iii == {
        "status": "not-evaluated",
        "reason": "no defining algebra; local ranks unavailable",
    }


def test_multi_factor_fails_condition_i_not_undecidable():
    cert = is_s_ample(build_torus(QQ, SL), PlaceSet(True, ()))
    assert cert.verdict == VERDICT_NOT_AMPLE
    assert not cert.condition_i["pass"]


def test_place_set_requires_infty():
    with pytest.raises(UnsupportedError):
        PlaceSet(False, (5,))
    assert PlaceSet.parse("inf,5,3").finite_primes == (3, 5)


@pytest.mark.parametrize("text", ["inf,4", "inf,-5", "inf,1", "inf,9"])
def test_place_set_rejects_non_primes(text):
    with pytest.raises(InputError) as err:
        PlaceSet.parse(text)
    assert err.value.path == "places"


def test_ramified_place_in_s_errors():
    with pytest.raises(RamifiedPlaceError):
        is_s_ample(build_torus(CUBIC, SL), PlaceSet(True, (31,)))


def test_anisotropic_and_split_parts():
    sp = anisotropic_and_split_parts(build_torus(GAUSS, SL), "Q")
    assert len(sp.split_basis) == 0 and sp.anisotropic_dim == 1
    sp = anisotropic_and_split_parts(build_torus(QQ, GL), "Q")
    assert len(sp.split_basis) == 2 and sp.anisotropic_dim == 0
    sp = anisotropic_and_split_parts(build_torus(QUARTIC, SL), INF)
    assert len(sp.split_basis) == 3  # totally real: trivial decomposition group


def test_degree_cap():
    with pytest.raises(UnsupportedError):
        build_torus(EtaleAlgebra([QPoly([3, 0, 0, 0, 0, 1])]), SL)  # x^5 + 3


def test_components_are_galois_stable():
    from ampletori.linalg import row_space_basis

    for e in (CUBIC, GAUSS, QUARTIC, EtaleAlgebra([QPoly([1, 1, 1, 1, 1])])):
        for ambient in (SL, GL):
            t = build_torus(e, ambient)
            d = decompose_module(t)
            tag = t.tags[0]
            for comp in d.components:
                basis = list(comp.basis)
                for g in tag.elements:
                    for v in comp.basis:
                        moved = [Fraction(0)] * len(v)
                        for i, x in enumerate(v):
                            moved[g[i]] = x
                        stacked = basis + [tuple(moved)]
                        assert len(row_space_basis(stacked)) == len(
                            row_space_basis(basis)
                        ), (e.factors, comp.character)


# ---------------------------------------------------------------------------
# orbit means against the intersection with the orbit-indicator span
# ---------------------------------------------------------------------------


def _reference_invariants(basis, orbits, n):
    """RREF basis of span(basis) ∩ span of the orbit indicators."""
    indicators = [tuple(Fraction(int(i in orbit)) for i in range(n)) for orbit in orbits]
    return oracle_intersect_row_spaces(list(basis), indicators)


def _modules(n):
    return {GL: tuple(linalg.identity(n)), SL: _zero_sum_basis(n)}


@pytest.mark.parametrize("ambient", [GL, SL])
@pytest.mark.parametrize("name", sorted(STANDARD_TAGS))
def test_orbit_means_give_the_invariants_of_every_submodule(name, ambient):
    tag = standard_tag(name)
    n = tag.degree
    t = TorusDatum(ambient, (tag,), _modules(n)[ambient])
    comps = decompose_module(t).components
    for g in tag.elements:  # D generated by g
        orbits = orbits_of([g], n)
        for size in range(len(comps) + 1):
            for subset in itertools.combinations(range(len(comps)), size):
                basis = [v for i in subset for v in comps[i].basis]
                want = _reference_invariants(basis, orbits, n)
                assert linalg.row_space_basis(_orbit_means(basis, orbits)) == want
                ranks = [_invariant_dim(comps[i].basis, orbits) for i in subset]
                assert _invariant_dim(basis, orbits) == len(want) == sum(ranks)
    want = _reference_invariants(t.module_basis, orbits_of(list(tag.elements), n), n)
    split = anisotropic_and_split_parts(t, "Q")
    assert split.split_basis == tuple(want) and global_rank(t) == len(want)


@pytest.mark.parametrize("ambient", [GL, SL])
def test_orbit_means_on_a_two_factor_torus(ambient):
    c2, s3 = standard_tag("C2"), standard_tag("S3")
    t = TorusDatum(ambient, (c2, s3), _modules(5)[ambient])
    for g, h in itertools.product(c2.elements, s3.elements):
        orbits = orbits_of([tuple(g) + tuple(2 + i for i in h)], 5)
        want = _reference_invariants(t.module_basis, orbits, 5)
        assert linalg.row_space_basis(_orbit_means(t.module_basis, orbits)) == want
        assert _invariant_dim(t.module_basis, orbits) == len(want)
    want = _reference_invariants(t.module_basis, global_orbits(t), 5)
    assert anisotropic_and_split_parts(t, "Q").split_basis == tuple(want)
    assert global_rank(t) == len(want) == center_rank(ambient) + 1
