import hashlib
import math
import random

import pytest

from ampletori.errors import NoSuchElementError, RamifiedPlaceError, UnsupportedError
from ampletori.places import (
    INF,
    STANDARD_TAGS,
    cycle_type,
    decomposition_profile,
    frobenius_cycle_type,
    galois_group_small,
    orbits_of,
    places_over_p,
    signature,
    standard_tag,
)
from ampletori.polynomials import QPoly, discriminant, is_prime

from oracles import regular_action

CUBIC = QPoly([-1, 1, 0, 1])
QUARTIC = QPoly([1, -16, 20, -8, 1])
GAUSS = QPoly([1, 0, 1])

FIELDS = [GAUSS, CUBIC, QUARTIC, QPoly([-2, 0, 1]), QPoly([1, 1, 1, 1, 1])]


def test_signature_examples():
    assert (signature(GAUSS).r1, signature(GAUSS).r2) == (0, 1)
    assert (signature(CUBIC).r1, signature(CUBIC).r2) == (1, 1)
    assert (signature(QUARTIC).r1, signature(QUARTIC).r2) == (4, 0)


def test_places_over_p_examples():
    assert places_over_p(GAUSS, 5) == 2
    assert places_over_p(GAUSS, 3) == 1
    with pytest.raises(RamifiedPlaceError) as err:
        places_over_p(CUBIC, 31)
    assert err.value.p == 31 and err.value.disc == -31


def test_galois_small_examples():
    assert galois_group_small(GAUSS).group == "C2"
    assert galois_group_small(CUBIC).group == "S3"
    assert galois_group_small(QUARTIC).group == "V4"


def test_galois_known_quartics_and_cubics():
    assert galois_group_small(QPoly([1, 1, 1, 1, 1])).group == "C4"  # Phi_5
    assert galois_group_small(QPoly([-2, 0, 0, 0, 1])).group == "D4"  # x^4 - 2
    assert galois_group_small(QPoly([12, 8, 0, 0, 1])).group == "A4"  # x^4+8x+12
    assert galois_group_small(QPoly([-1, -1, 0, 0, 1])).group == "S4"  # x^4-x-1
    assert galois_group_small(QPoly([1, -3, 0, 1])).group == "C3"  # x^3-3x+1
    assert galois_group_small(QPoly([-2, 0, 1])).group == "C2"
    assert galois_group_small(QPoly([5, 1])).group == "C1"


def test_galois_rejects_high_degree():
    with pytest.raises(UnsupportedError):
        galois_group_small(QPoly([-2, 0, 0, 0, 0, 1]))


def test_group_tables_are_groups():
    for name in ("C1", "C2", "C3", "S3", "C4", "V4", "D4", "A4", "S4"):
        tag = standard_tag(name)
        elems = set(tag.elements)
        assert tag.elements[0] == tuple(range(tag.degree))
        for g in tag.elements:
            for h in tag.elements:
                composed = tuple(g[h[i]] for i in range(tag.degree))
                assert composed in elems
        for c in tag.characters:
            assert c.values[0] == c.dim


def test_standard_tags_are_built_once_and_frozen():
    for name in STANDARD_TAGS:
        tag = standard_tag(name)
        assert standard_tag(name) is tag
        assert type(tag.elements) is type(tag.characters) is tuple
        assert all(type(g) is tuple for g in tag.elements)
        for char in tag.characters:
            assert type(char.values) is tuple and all(type(v) is int for v in char.values)
        for obj, attr in [(tag, "group"), (tag, "elements"), (tag, "characters")] + [
            (char, f) for char in tag.characters for f in ("name", "dim", "values")
        ]:
            with pytest.raises(AttributeError):
                setattr(obj, attr, None)
    stored = standard_tag.cache_info().currsize
    with pytest.raises(UnsupportedError, match="unknown Galois tag"):
        standard_tag("C5")
    assert standard_tag.cache_info().currsize == stored <= len(STANDARD_TAGS)


def test_rational_character_orthogonality_and_regular_identity():
    # distinct Q-irreducible characters are orthogonal; <chi,chi> = t >= 1
    # counts the Galois-conjugate complex constituents, and the regular
    # character decomposes as sum of (chi(1)/t)*chi
    for name in ("C1", "C2", "C3", "S3", "C4", "V4", "D4", "A4", "S4"):
        tag = standard_tag(name)
        chars = tag.characters
        t = {}
        for i, c in enumerate(chars):
            for j, d in enumerate(chars):
                inner = sum(cv * dv for cv, dv in zip(c.values, d.values))
                if i != j:
                    assert inner == 0, (name, c.name, d.name)
                else:
                    assert inner % tag.order == 0 and inner >= tag.order
                    t[c.name] = inner // tag.order
        for k, g in enumerate(tag.elements):
            reg = sum(
                (c.dim // t[c.name]) * c.values[k] if c.dim % t[c.name] == 0
                else c.dim * c.values[k] / t[c.name]
                for c in chars
            )
            assert reg == (tag.order if k == 0 else 0), (name, g)


def test_decomposition_profile_examples():
    tag = galois_group_small(GAUSS)
    prof = decomposition_profile(GAUSS, tag, INF)
    assert prof.orbits == ((0, 1),) and prof.num_places_over == 1
    prof5 = decomposition_profile(GAUSS, tag, 5)
    assert prof5.orbits == ((0,), (1,)) and prof5.num_places_over == 2
    assert (prof.place_str(), prof5.place_str()) == ("inf", "p:5")
    tagq = galois_group_small(QUARTIC)
    profq = decomposition_profile(QUARTIC, tagq, INF)
    assert profq.num_places_over == 4
    assert profq.generator == (0, 1, 2, 3)


def test_infinite_place_orbit_count_is_r1_plus_r2():
    for f in FIELDS:
        tag = galois_group_small(f)
        sig = signature(f)
        prof = decomposition_profile(f, tag, INF)
        assert prof.num_places_over == sig.r1 + sig.r2


def test_frobenius_orbit_count_matches_factor_count():
    rng = random.Random(12)
    for f in FIELDS:
        disc = discriminant(f)
        tag = galois_group_small(f)
        checked = 0
        p = 2
        while checked < 50:
            if is_prime(p) and disc % p != 0:
                prof = decomposition_profile(f, tag, p)
                assert prof.num_places_over == places_over_p(f, p)
                checked += 1
            p += 1


def test_observed_cycle_types_occur_in_group():
    for f in FIELDS:
        disc = discriminant(f)
        tag = galois_group_small(f)
        types = {cycle_type(g) for g in tag.elements}
        checked = 0
        p = 2
        while checked < 30:
            if is_prime(p) and disc % p != 0:
                assert frobenius_cycle_type(f, p) in types
                checked += 1
            p += 1


def test_chebotarev_smoke_split_density():
    # statistical, non-acceptance: split primes for x^2+1 near density 1/2
    split = total = 0
    for p in range(3, 500):
        if is_prime(p):
            total += 1
            if places_over_p(GAUSS, p) == 2:
                split += 1
    assert 0.35 <= split / total <= 0.65


def test_no_such_element_for_inconsistent_input():
    # V4 contains no 4-cycle; a cycle type (4,) cannot be matched
    tag = standard_tag("V4")
    with pytest.raises(NoSuchElementError):
        tag.find_by_cycle_type((4,))


def test_regular_action_is_faithful_and_transitive():
    tag = regular_action(standard_tag("S3"))
    assert tag.degree == 6 and tag.order == 6
    assert orbits_of(list(tag.elements), 6) == (tuple(range(6)),)


# sha256 of each standard tag's character names and degrees, in order, and of
# its map from element to character values, read in sorted element order
TAG_DIGESTS = {
    "C1": "64f3bc32ab707ca093be7ce1046d5036edd3c0f3e0d4516c808da65e42af7a08",
    "C2": "5717b787ad6ee959fbd3b7bde8db21fab045a23b0d888215033afdc807af59f5",
    "C3": "264d063285717eb79a93bb487e877ed418695ad25bdc3a151b9b59d29d37b48c",
    "S3": "367dcb05120b0164e2781dbc2f35dfc0574bc6d4e7f58c609a3aeaad4493281a",
    "C4": "4800527aace65ed188728fe0a21502e510644c1e3288f8bdf6b9906f32857b17",
    "V4": "fef4a7e337e2647cf8176b4af784994a0f8ac7341dd1d833f604e1271233a969",
    "D4": "dd6947890f2adc69c3bfdfa2f6f7e0ba47af3191ae9843ce3293bdbdf008d97f",
    "A4": "07ffe4dfc61b0fff2ae052be2cc4bf29fe5b687fed8d5c34372b39c78d5f1753",
    "S4": "44bc765d3d34a20effe5d9fbaa64dfdc6630e4a038387d96e1566e324b59e2e8",
}


def tag_digest(tag):
    head = [(c.name, c.dim) for c in tag.characters]
    table = sorted(zip(tag.elements, zip(*(c.values for c in tag.characters))))
    return hashlib.sha256(repr((tag.group, head, table)).encode()).hexdigest()


def test_every_standard_tag_is_pinned():
    assert set(TAG_DIGESTS) == set(STANDARD_TAGS)


@pytest.mark.parametrize("name", sorted(TAG_DIGESTS))
def test_standard_tag_characters_are_pinned_per_element(name):
    tag = standard_tag(name)
    assert tag.elements[0] == tuple(range(tag.degree))
    assert tag_digest(tag) == TAG_DIGESTS[name]


GROUP_ORDERS = {"C1": 1, "C2": 2, "C3": 3, "S3": 6, "C4": 4, "V4": 4, "D4": 8, "A4": 12, "S4": 24}


def generated_group(generators):
    n = len(generators[0])
    group = {tuple(range(n))}
    while True:
        grown = group | {tuple(g[h[i]] for i in range(n)) for g in generators for h in group}
        if grown == group:
            return group
        group = grown


def rational_class_minima(group):
    """The least element of each rational class, by brute force: h is in the
    class of g when h = x·g^k·x⁻¹ for some x and some k prime to ord(g)."""
    n = len(next(iter(group)))
    ident = tuple(range(n))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(n))

    minima = set()
    for g in group:
        powers = [g]
        while powers[-1] != ident:
            powers.append(compose(g, powers[-1]))
        inverse = {x: next(y for y in group if compose(x, y) == ident) for x in group}
        members = {
            compose(compose(x, gk), inverse[x])
            for k, gk in enumerate(powers, 1)
            if math.gcd(k, len(powers)) == 1
            for x in group
        }
        minima.add(min(members))
    return sorted(minima)


@pytest.mark.parametrize("name", sorted(STANDARD_TAGS))
def test_each_table_lists_the_rational_classes_of_its_group(name):
    # the group is the one the listed classes generate, of the group's order;
    # the table is square, and each character's first value is its degree
    classes, characters = STANDARD_TAGS[name]
    group = generated_group(classes)
    assert len(group) == GROUP_ORDERS[name]
    assert list(classes) == rational_class_minima(group)
    assert len(characters) == len(classes)
    assert all(len(values) == len(classes) for values in characters.values())
    tag = standard_tag(name)
    assert sorted(tag.elements) == sorted(group)
    assert [(c.name, c.dim) for c in tag.characters] == [(k, v[0]) for k, v in characters.items()]
