import hashlib
import itertools
import math
import random

import pytest

from ampletori import torus
from ampletori.errors import InputError, RamifiedPlaceError, UnsupportedError
from ampletori.etale import EtaleAlgebra
from ampletori.places import INF, STANDARD_TAGS, PlaceProfile, orbits_of, standard_tag
from ampletori.polynomials import QPoly, discriminant, is_prime
from ampletori.serialize import replay_certificate
from ampletori.torus import (
    GL,
    SL,
    VERDICT_AMPLE,
    VERDICT_NOT_AMPLE,
    PlaceSet,
    TorusDatum,
    build_torus,
    center_rank,
    component_rank,
    decompose_module,
    global_rank,
    is_s_ample,
    local_rank,
    place_profiles,
)

from oracles import (
    oracle_invariants,
    oracle_isotypic_bases,
    oracle_isotypic_copies,
    oracle_module_basis,
    regular_action,
)

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
    assert global_rank(build_torus(QQ, GL)) == build_torus(QQ, GL).dim == 2
    assert global_rank(build_torus(GAUSS, SL)) == 0 and build_torus(GAUSS, SL).dim == 1


def test_local_rank_examples():
    t = build_torus(GAUSS, SL)
    assert local_rank(t, INF) == 0
    assert local_rank(t, 5) == 1
    assert local_rank(build_torus(CUBIC, SL), INF) == 1
    assert local_rank(build_torus(QUARTIC, SL), INF) == 3  # totally real: D trivial


def test_local_rank_ramified_propagates():
    with pytest.raises(RamifiedPlaceError):
        local_rank(build_torus(CUBIC, SL), 31)


def test_decompose_module_examples():
    d = decompose_module(build_torus(CUBIC, SL))
    assert [(c.character, c.dim, c.multiplicity) for c in d] == [("std", 2, 1)]
    d = decompose_module(build_torus(QUARTIC, SL))
    assert [(c.character, c.dim) for c in d] == [
        ("chi1", 1), ("chi2", 1), ("chi3", 1)
    ]
    d = decompose_module(build_torus(GAUSS, SL))
    assert [(c.character, c.dim) for c in d] == [("sgn", 1)]


@pytest.mark.parametrize("ambient", [GL, SL])
@pytest.mark.parametrize("name", sorted(STANDARD_TAGS))
def test_every_standard_tag_is_multiplicity_free(name, ambient):
    # so every request's condition (iii) runs over subsets of the components,
    # as it did before repeated components were enumerated
    comps = decompose_module(TorusDatum(ambient, (standard_tag(name),)))
    assert all(c.multiplicity == 1 for c in comps)


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


def test_replay_rejects_an_unknown_condition_iii_status():
    from ampletori.serialize import certificate_to_json
    from ampletori.torus import replay_certificate_json

    # with (i) passing and no submodules, an unchecked status replays as S-ample
    data = certificate_to_json(is_s_ample(build_torus(GAUSS, SL), PlaceSet(True, (5,))))
    data["condition_iii"] = {"status": "undecidable"}
    data["submodules"] = []
    with pytest.raises(AssertionError, match="unknown condition"):
        replay_certificate_json(data)


def test_replay_rejects_an_unevaluated_condition_iii_when_condition_i_passes():
    from ampletori.serialize import certificate_to_json
    from ampletori.torus import replay_certificate_json

    data = certificate_to_json(is_s_ample(build_torus(GAUSS, SL), PlaceSet(True, (5,))))
    assert data["condition_i"]["pass"]
    data["condition_iii"] = {"status": "not-evaluated", "reason": "tampered"}
    data["submodules"] = []
    with pytest.raises(AssertionError, match="not evaluated"):
        replay_certificate_json(data)


def test_certificate_details_gauss():
    cert = is_s_ample(build_torus(GAUSS, SL), PlaceSet(True, (5,)))
    assert cert.local_ranks == {"inf": 0, "p:5": 1}
    assert cert.condition_i["pass"] and cert.condition_ii["pass"]
    assert cert.condition_iii["status"] == "pass"
    # W = 0 is among the proper submodules and its witness is the 5-adic place
    zero = [w for w in cert.submodules if w.dim == 0]
    assert zero and zero[0].witness_place == "p:5"


def test_without_an_algebra_is_s_ample_raises():
    # S3 on its 3 roots: a module alone has no place profiles, so no local
    # ranks and no verdict
    t = TorusDatum(SL, (standard_tag("S3"),))
    with pytest.raises(UnsupportedError, match="place profiles need the defining algebra"):
        is_s_ample(t, PlaceSet(True, (5,)))


# (group, indices into its elements of the decomposition generators at inf
# and at 7, verdict). A stand-in for place_profiles gives each place the
# decomposition group the case names, so a module with repeated components
# gets local ranks. The not-ample cases each leave a submodule that holds
# one copy of the repeated component with no witness.
REGULAR_CASES = [
    ("S3", (1, 3), VERDICT_AMPLE),  # a transposition and a 3-cycle
    ("S3", (3, 4), VERDICT_NOT_AMPLE),  # 3-cycles: std has no invariants
    ("D4", (5, 1), VERDICT_AMPLE),  # r² and a reflection
    ("D4", (5, 3), VERDICT_NOT_AMPLE),  # r² and r
]


@pytest.mark.parametrize("ambient", [GL, SL])
@pytest.mark.parametrize("name, gen_indices, verdict", REGULAR_CASES)
def test_regular_modules_get_a_decided_verdict(name, gen_indices, verdict, ambient, monkeypatch):
    # std (S3) and std2 (D4) occur twice in the regular module; every
    # dimension vector's ranks agree with an explicit submodule of that shape
    tag = regular_action(standard_tag(name))
    t = TorusDatum(ambient, (tag,))
    n = t.n
    gens = dict(zip((INF, 7), (tag.elements[i] for i in gen_indices)))

    def profiles(t, place):
        return [PlaceProfile(place, orbits_of([gens[place]], n), gens[place])]

    monkeypatch.setattr(torus, "place_profiles", profiles)
    cert = is_s_ample(t, PlaceSet(True, (7,)))
    assert cert.verdict == verdict and replay_certificate(cert) == verdict
    comps = decompose_module(t)
    multiplicities = [c.multiplicity for c in comps]
    assert multiplicities.count(2) == 1 and set(multiplicities) == {1, 2}
    repeated = multiplicities.index(2)
    assert len(cert.submodules) == math.prod(c.multiplicity + 1 for c in comps) - 1
    if verdict == VERDICT_NOT_AMPLE:
        assert any(not w.passes and w.components.count(repeated) == 1 for w in cert.submodules)
    copies = {
        (i, k): oracle_isotypic_copies(tag, ambient, c.character, k)
        for i, c in enumerate(comps)
        for k in range(c.multiplicity + 1)
    }
    whole = oracle_module_basis(n, ambient)
    for w in cert.submodules:
        basis = [v for i in sorted(set(w.components)) for v in copies[i, w.components.count(i)]]
        assert len(basis) == w.dim
        for place, g in gens.items():
            orbits = orbits_of([g], n)
            sub, tor = oracle_invariants(basis, orbits, n), oracle_invariants(whole, orbits, n)
            assert w.local_ranks["inf" if place == INF else f"p:{place}"] == (len(sub), len(tor))


@pytest.mark.parametrize("ambient", [GL, SL])
@pytest.mark.parametrize("name", ["S3", "D4"])
def test_k_copies_have_k_times_the_rank_of_one(name, ambient):
    # explicit submodules V_χ^k, k = 0, 1, 2, of the regular module: their
    # invariants under each cyclic ⟨g⟩ have dimension k·component_rank
    tag = regular_action(standard_tag(name))
    n = tag.degree
    for c in decompose_module(TorusDatum(ambient, (tag,))):
        for k in range(c.multiplicity + 1):
            basis = oracle_isotypic_copies(tag, ambient, c.character, k)
            for g in tag.elements:
                want = k * component_rank(tag, c.char, g)
                assert len(oracle_invariants(basis, orbits_of([g], n), n)) == want, (c.character, k, g)


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


def test_degree_cap():
    with pytest.raises(UnsupportedError):
        build_torus(EtaleAlgebra([QPoly([3, 0, 0, 0, 0, 1])]), SL)  # x^5 + 3


# ---------------------------------------------------------------------------
# ranks from characters against projector images and invariant intersections
# ---------------------------------------------------------------------------

TAGS = {name: standard_tag(name) for name in sorted(STANDARD_TAGS)}
TAGS.update(
    {f"{name}-regular": regular_action(standard_tag(name)) for name in ("S3", "C4", "V4", "D4")}
)


@pytest.mark.parametrize("ambient", [GL, SL])
@pytest.mark.parametrize("name", sorted(TAGS))
def test_orbit_means_give_the_invariants_of_every_submodule(name, ambient):
    # the torus ranks are character means; the reference intersects the
    # projector images of the module basis with the fixed space of D
    tag = TAGS[name]
    n = tag.degree
    t = TorusDatum(ambient, (tag,))
    comps = decompose_module(t)
    isotypic = oracle_isotypic_bases(tag, ambient)
    assert [(c.character, c.dim) for c in comps] == [(c, len(b)) for c, b in isotypic]
    assert sum(c.dim for c in comps) == t.dim
    for g in tag.elements:  # D generated by g
        orbits = orbits_of([g], n)
        ranks = [c.multiplicity * component_rank(tag, c.char, g) for c in comps]
        for size in range(len(comps) + 1):
            for subset in itertools.combinations(range(len(comps)), size):
                basis = [v for i in subset for v in isotypic[i][1]]
                want = oracle_invariants(basis, orbits, n)
                assert sum(ranks[i] for i in subset) == len(want), (g, subset)
    whole = oracle_module_basis(n, ambient)
    assert global_rank(t) == len(oracle_invariants(whole, orbits_of(list(tag.elements), n), n))


TWO_FACTOR = [
    EtaleAlgebra([QPoly([-1, 1]), QPoly([-2, 1])]),  # Q x Q
    EtaleAlgebra([QPoly([1, 0, 1]), QPoly([-2, 0, 1])]),  # Q(i) x Q(sqrt 2)
    EtaleAlgebra([QPoly([-2, 0, 1]), QPoly([-1, 1, 0, 1])]),  # Q(sqrt 2) x cubic
]


@pytest.mark.parametrize("ambient", [GL, SL])
def test_orbit_means_on_a_two_factor_torus(ambient):
    # the decomposition orbits of every factor, side by side on Q^n
    for e in TWO_FACTOR:
        t = build_torus(e, ambient)
        whole = oracle_module_basis(t.n, ambient)
        disc = 1
        for f in e.factors:
            disc *= discriminant(f)
        for place in [INF] + [p for p in range(2, 18) if is_prime(p) and disc % p]:
            orbits, off = [], 0
            for prof in place_profiles(t, place):
                orbits += [tuple(off + i for i in orbit) for orbit in prof.orbits]
                off += len(prof.generator)
            assert local_rank(t, place) == len(oracle_invariants(whole, orbits, t.n))
        assert global_rank(t) == len(t.tags) - (ambient == SL)
    c2, s3 = standard_tag("C2"), standard_tag("S3")
    t = TorusDatum(ambient, (c2, s3))
    gens = [tuple(g) + (2, 3, 4) for g in c2.elements]
    gens += [(0, 1) + tuple(2 + i for i in h) for h in s3.elements]
    orbits = orbits_of(gens, 5)
    want = oracle_invariants(oracle_module_basis(5, ambient), orbits, 5)
    assert global_rank(t) == len(want) == center_rank(ambient) + 1


# ---------------------------------------------------------------------------
# certificate bytes, taken before the module basis left the torus layer
# ---------------------------------------------------------------------------

# (factors, primes in S besides inf, GL digest, SL digest) of the sha256 of
# serialize.dumps(certificate_to_json(...)); the D4 and V4 places all have a
# decomposition generator of cycle type other than (2,2)
CERTIFICATE_PINS = [
    ([[1, 0, 1]], (5,), "15d9d73b267a37ef21133e10df53f4131add25ddfdddcc2eed874f9910f3a9f9",
     "b918bad09303baaf90b62749148438c6a18902b78eca3eccd089444188c2ef0c"),
    ([[-2, 0, 1]], (), "71f205ecde70d19c42ca3504e1b24586d0e440f5c1c1e0d9aff0635ef4ea7bd7",
     "c277fed80f14d19c97fd83a1e9067be01b4d3fe5eb581badd3f9dcc2b631b2ab"),
    ([[1, -3, 0, 1]], (2,), "bb5d8a4acc523fa80ed31dc343f5c6346ff016d0935cd319db3547bf7aaa4c80",
     "53dffd14716ce84dc735eb1ccef32bc85bb72c2d30fed3edff08a870c1cc55aa"),
    ([[-1, -1, 0, 1]], (5,), "3cdb00d3103b324eab63bd237b3f7dbc25a93b92f9c0f96b08a473b5d2530536",
     "7894838a2756fc615357c051df6863425d9ee7576b3b6f8e27628150b83bc8a2"),
    ([[1, 1, 1, 1, 1]], (2, 11), "3aebad9f77c3cc3f62169f1736efdffc8d89c7d1a4b31687e8a97678bc37bbf3",
     "d7fbbc369867d073c9be701130970e46653f3df5aadbae7799a72874ff34bffd"),
    ([[1, 1, 1, 1, 1]], (), "a980e5ad8db6771fbe5f4927ba86d02145a10624c0ebf405e36e01b9180bea8a",
     "dcfac68b0d1b954774d29ab9886e0b17942999725b6a8cd87c355e182a10442a"),
    ([[-2, 0, 0, 0, 1]], (), "80ef8275f1c9fef1b30f9319b71c56db9cbf0734b3d4fead21f6eb11bb91974c",
     "21c4900547fd86e99920d395e2c65f4a0da4bcecee61968a503c5f5cc6aaadaa"),
    ([[-2, 0, 0, 0, 1]], (7,), "6039988df2494e01f89a0e00bc7d7e94a3ba5e03d301e4c32a0e186bf1a4152c",
     "e370255caafdf9745b0cd2b2b9eb33e70778590ae351b60dfa7a3f3f36a1282c"),
    ([[-2, 0, 0, 0, 1]], (5, 23), "4a5c5216e2245f1d3a4f7fc2d2a23f0c0f9d58359a2b842b2f46c79c64b91337",
     "d7a20406545878c4ff802c40beb3d1b3f536148fb9c12bcac06d56bd63a45a50"),
    ([[1, -16, 20, -8, 1]], (), "6d1a7f0eb3bd76b50949944696c3eba9085b5557da6b753b455828d09cae939e",
     "c0a8afb8dd1504d53ed5e26b50c589f681c6a181d121c8c8e4c722b2d7e00e44"),
    ([[12, 8, 0, 0, 1]], (), "85effe3622cdcaf3056232dd9598e7bf130a7030a98bd12f94b6964c9d87300b",
     "4cd220db1dc10a41579fd5ca8948a2f93c7f1522f8c83bf7ff2f1c26c7918710"),
    ([[12, 8, 0, 0, 1]], (5,), "90cb30fde39cd19d21e4b243f4ffa1909bb8644f38b9bf2bf72ea5bbfc1b92f3",
     "6f25894acd614f6de0d6ed801e96b4b73d7cf0e96efa454b023e4f73b70f8016"),
    ([[-1, -1, 0, 0, 1]], (3,), "020d1bc702f7c524157480326321f7791fba753d3fb3a14358e37b808415ef40",
     "355ef846eb2b75583095d4f32322d3c9fc40bd417fe1b8b84dbf237d1afd37f9"),
    ([[1, 0, 1], [-2, 0, 1]], (17,), "2971b2fcfa575516bfbedeae2e02340fa0e2890ddf155bb27160e6cfeaf1447b",
     "13f82e36bad48de309cf3e3b6bac8a01421fff0009c735498501965f1bb89ed4"),
]


@pytest.mark.parametrize("factors, primes, gl_digest, sl_digest", CERTIFICATE_PINS)
def test_certificate_bytes_are_pinned(factors, primes, gl_digest, sl_digest):
    from ampletori.serialize import certificate_to_json, dumps

    e = EtaleAlgebra([QPoly(c) for c in factors])
    for ambient, digest in ((GL, gl_digest), (SL, sl_digest)):
        cert = is_s_ample(build_torus(e, ambient), PlaceSet(True, primes))
        wire = dumps(certificate_to_json(cert)).encode()
        assert hashlib.sha256(wire).hexdigest() == digest, (factors, ambient)
