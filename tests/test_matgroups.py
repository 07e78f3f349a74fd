import collections
import json
import random
from fractions import Fraction

import pytest

from ampletori import linalg, matgroups, pipeline, polynomials
from ampletori.errors import NotAnOrderError
from ampletori.etale import EtaleAlgebra
from ampletori.matgroups import (
    GeneratorSet,
    _check_automorphism,
    block_diag,
    elementary_matrix,
    enumerate_automorphisms,
    group_sanity,
    verify_normalization,
    verify_semidirect,
)
from ampletori.polynomials import QPoly, is_s_number
from oracles import (
    as_fractions,
    oracle_automorphisms,
    oracle_det,
    oracle_group_sanity,
    oracle_is_unipotent,
    oracle_mat_inv,
    oracle_mat_mul,
    oracle_mat_trace,
    oracle_mat_vec,
    oracle_matrix_is_s_integral,
    oracle_s_integral_both_ways,
    oracle_semidirect,
)
from test_memos import fresh_memos

CUBIC = EtaleAlgebra([QPoly([-1, 1, 0, 1])])
GAUSS = EtaleAlgebra([QPoly([1, 0, 1])])
QUARTIC = EtaleAlgebra([QPoly([1, -16, 20, -8, 1])])

G51 = linalg.matrix([[0, 0, 1], [1, 0, -1], [0, 1, 0]])
I_MAT = linalg.matrix([[0, -1], [1, 0]])
G54 = linalg.matrix([[Fraction(4, 5), Fraction(-3, 5)], [Fraction(3, 5), Fraction(4, 5)]])


def test_automorphism_matrix_conjugation():
    conj = linalg.matrix([[1, 0], [0, -1]])  # i ↦ −i: column j holds σ(b_j)
    assert _check_automorphism(GAUSS, conj) == (True, None)
    assert conj in enumerate_automorphisms(GAUSS)


def test_automorphism_matrix_identity():
    assert _check_automorphism(GAUSS, linalg.identity(2)) == (True, None)
    assert linalg.identity(2) in enumerate_automorphisms(GAUSS)


def test_automorphism_rejects_non_hom():
    # 1 ↦ 1, i ↦ 1 + i: invertible over Z, but σ(i·i) = −1 and σ(i)² = 2i
    bad = linalg.matrix([[1, 1], [0, 1]])
    ok, reason = _check_automorphism(GAUSS, bad)
    assert not ok and reason == "sigma(b_1 b_1) != sigma(b_1) sigma(b_1)"
    half = linalg.matrix([[1, 0], [0, Fraction(1, 2)]])
    assert _check_automorphism(GAUSS, half) == (False, "images are not integral")
    double = linalg.matrix([[1, 0], [0, 2]])
    assert _check_automorphism(GAUSS, double) == (False, "determinant 2 is not ±1")


def test_enumerate_automorphisms():
    assert len(enumerate_automorphisms(GAUSS)) == 2
    assert len(enumerate_automorphisms(CUBIC)) == 1  # trivial automorphism group
    quartic_autos = enumerate_automorphisms(QUARTIC)
    assert len(quartic_autos) == 4  # V4: the field is Galois over Q


@pytest.mark.parametrize(
    "coeffs, basis",
    [
        ([-3, 0, 1], None),  # C2
        ([1, -3, 0, 1], None),  # C3
        ([-1, -1, 0, 1], None),  # S3
        ([5, 0, -5, 0, 1], None),  # C4
        ([1, -16, 20, -8, 1], None),  # V4, ex 5.2: root coordinates up to 8
        ([-2, 0, 0, 0, 1], None),  # D4
        ([12, 8, 0, 0, 1], None),  # A4
        ([1, -1, 1, 0, 1], None),  # S4
        ([1, 0, 1], linalg.matrix([[1, 0], [0, 2]])),  # Z[2i]: x is not in the order
    ],
)
def test_automorphisms_match_the_box_oracle(coeffs, basis):
    e = EtaleAlgebra([QPoly(coeffs)], basis)
    found = [as_fractions(linalg.transpose(m)) for m in enumerate_automorphisms(e)]
    assert found == oracle_automorphisms(e, 10)


def test_z2i_automorphisms_include_conjugation():
    # x = i is not in the order Z[2i], but x ↦ −x maps the basis {1, 2i} to {1, −2i}
    e = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, 2]]))
    assert enumerate_automorphisms(e) == [
        linalg.matrix([[1, 0], [0, -1]]),
        linalg.identity(2),
    ]


def test_a_trivial_automorphism_group_needs_no_root(monkeypatch):
    # Aut(K) = {1} for an S3 cubic and an S4 quartic, read off the Galois tag:
    # no split prime is sought and no root of f is solved for
    algebras = [EtaleAlgebra([QPoly(c)]) for c in ([-1, -1, 0, 1], [1, -1, 1, 0, 1])]

    def refuse(*args):
        raise AssertionError("the Galois tag already fixes Aut(K)")

    fresh_memos(monkeypatch, matgroups._automorphisms)
    monkeypatch.setattr(polynomials, "split_prime", refuse)
    monkeypatch.setattr(EtaleAlgebra, "elements_with_charpoly", refuse)
    for e in algebras:
        assert enumerate_automorphisms(e) == [linalg.identity(e.n)]


def test_automorphism_cache_is_bounded_and_history_free(monkeypatch):
    fresh_memos(monkeypatch, matgroups._automorphisms, maxsize=1)
    first = {e: enumerate_automorphisms(e) for e in (GAUSS, CUBIC)}
    # CUBIC evicted GAUSS; len() of _AUTOMORPHISM_CACHE is the memo's size
    assert len(matgroups._AUTOMORPHISM_CACHE) == 1 == matgroups._automorphisms.cache_info().currsize
    for e in (GAUSS, CUBIC, GAUSS):
        mats = enumerate_automorphisms(e)  # a miss: the other algebra was held
        assert mats == first[e]
        mats.clear()  # a caller's edit does not reach the memo
        hits = matgroups._automorphisms.cache_info().hits
        assert enumerate_automorphisms(e) == first[e]  # e is the one entry held
        assert matgroups._automorphisms.cache_info().hits == hits + 1
        assert len(matgroups._AUTOMORPHISM_CACHE) == 1


def test_automorphism_functoriality_v4():
    # pi is functorial: matrix of a composition is the product of matrices
    mats = enumerate_automorphisms(QUARTIC)
    images = {as_fractions(linalg.transpose(m)): m for m in mats}
    for m1 in mats:
        for m2 in mats:
            columns = as_fractions(linalg.transpose(m2))
            composed = tuple(oracle_mat_vec(as_fractions(m1), img) for img in columns)
            assert composed in images
            assert images[composed] == linalg._int_mul(m1, m2)


def test_verify_normalization_examples():
    ok, sigma = verify_normalization(GAUSS, linalg.matrix([[1, 0], [0, -1]]))
    assert ok
    ok, sigma = verify_normalization(GAUSS, I_MAT)
    assert ok and sigma == linalg.identity(2)  # inner
    ok, witness = verify_normalization(GAUSS, linalg.matrix([[1, 1], [0, 1]]))
    assert not ok and witness == 2


def test_elementary_matrix():
    e14 = elementary_matrix(4, 1, 4)
    assert e14 == linalg.matrix([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        elementary_matrix(3, 2, 2)
    a = as_fractions(elementary_matrix(2, 1, 2))
    b = as_fractions(elementary_matrix(2, 2, 1))
    assert oracle_mat_trace(oracle_mat_mul(a, b)) == 3
    e24 = elementary_matrix(4, 2, 4)
    assert linalg._int_mul(e14, e24) == linalg._int_mul(e24, e14)  # commuting root groups


def test_verify_semidirect_examples():
    ghat = block_diag(G51, (1, 1))
    minus = linalg.matrix([[-int(i == j) for j in range(4)] for i in range(4)])
    unis = [elementary_matrix(4, i, 4) for i in (1, 2, 3)]
    ok, witness = verify_semidirect([ghat, minus], unis)
    assert ok and witness is None
    # conjugate of E_{1,2} by pi(i) leaves the pattern
    ok, witness = verify_semidirect([I_MAT], [elementary_matrix(2, 1, 2)])
    assert not ok and witness == (0, 0)
    ok, _ = verify_semidirect([linalg.identity(2)], [elementary_matrix(2, 1, 2)])
    assert ok


def test_conjugated_elementary_column_formula():
    # conjugating E_{i,4} by diag(g,1) gives I + (g e_i) e_4^T, exactly
    ghat = as_fractions(block_diag(G51, (1, 1)))
    ghat_inv = oracle_mat_inv(ghat)
    for i in range(3):
        conj = oracle_mat_mul(
            oracle_mat_mul(ghat, as_fractions(elementary_matrix(4, i + 1, 4))), ghat_inv
        )
        expected = [[int(r == c) for c in range(4)] for r in range(4)]
        for r in range(3):
            expected[r][3] = G51[0][r][i]
        assert conj == expected
        assert oracle_is_unipotent(conj)


def generator_set(n, ring_primes=(), ambient="SL", **given):
    """A GeneratorSet holding the given lists; every other list is a fresh empty one."""
    empty = {"torus_gens": [], "torsion_gens": [], "normalizer_gens": [], "unipotent_gens": []}
    return GeneratorSet(n, ring_primes, ambient, **{**empty, "provenance": {}, **given})


def test_group_sanity_example_51():
    gens = generator_set(3, torus_gens=[G51])
    report = group_sanity(gens, CUBIC)
    assert report["all_pass"]["pass"]


def test_group_sanity_example_54():
    gens = generator_set(
        2, (5,), torus_gens=[G54], torsion_gens=[I_MAT], provenance={"torsion:0": {"order": 4}}
    )
    report = group_sanity(gens, GAUSS)
    assert report["all_pass"]["pass"]
    assert gens.ring_str() == "Z[1/5]"


def test_group_sanity_det_two_fails():
    gens = generator_set(2, torus_gens=[linalg.matrix([[2, 0], [0, 1]])])
    report = group_sanity(gens)
    assert not report["determinants"]["pass"]
    assert not report["all_pass"]["pass"]


def test_group_sanity_catches_noncommuting():
    gens = generator_set(2, torus_gens=[I_MAT, linalg.matrix([[1, 1], [0, 1]])])
    report = group_sanity(gens)
    assert not report["torus_commutes"]["pass"]


def test_group_sanity_reports_a_non_s_integral_entry():
    gens = generator_set(
        2,
        (5,),
        "GL",
        torus_gens=[linalg.matrix([[1, Fraction(1, 5)], [0, 1]])],
        torsion_gens=[linalg.matrix([[1, Fraction(1, 3)], [0, 1]])],
    )
    report = group_sanity(gens)
    assert report["determinants"]["pass"]
    assert report["s_integrality"] == {"pass": False, "detail": ["torsion:0"]}


def test_group_sanity_reports_a_wrong_torsion_order():
    gens = generator_set(
        2,
        torsion_gens=[I_MAT, linalg.matrix([[1, 1], [0, 1]])],
        provenance={"torsion:0": {"order": 2}},
    )
    report = group_sanity(gens)
    assert report["torsion_orders"] == {
        "pass": False,
        "detail": ["torsion:0: order=4, claimed=2", "torsion:1: order=None, claimed=None"],
    }


def test_group_sanity_reports_a_non_normalizing_generator():
    # E_12 conjugates π(i) to [[1, -2], [1, -1]]: outside span{1, π(i)}, and
    # not π of its own column (1, 1), so the second basis element fails
    gens = generator_set(2, torus_gens=[I_MAT], normalizer_gens=[elementary_matrix(2, 1, 2)])
    moves = "normalizer:0 moves the torus algebra"
    assert group_sanity(gens)["normalizer"] == {"pass": False, "detail": [moves]}
    assert group_sanity(gens, GAUSS)["normalizer"] == {
        "pass": False,
        "detail": [moves, "normalizer:0 fails at basis index 2"],
    }
    gens = gens._replace(torus_gens=[])  # the torus algebra is then Q·1, which every w fixes
    assert group_sanity(gens, GAUSS)["normalizer"] == {
        "pass": False,
        "detail": ["normalizer:0 fails at basis index 2"],
    }
    gens = gens._replace(normalizer_gens=[linalg.matrix([[1, 0], [0, -1]])])  # complex conjugation
    assert group_sanity(gens, GAUSS)["normalizer"] == {"pass": True, "detail": []}


def test_group_sanity_reports_a_conjugate_outside_the_radical():
    gens = generator_set(2, torus_gens=[I_MAT], unipotent_gens=[elementary_matrix(2, 1, 2)])
    report = group_sanity(gens)
    assert report["semidirect"] == {"pass": False, "detail": (0, 0)}
    assert not report["all_pass"]["pass"]


def test_normalization_holds_for_torus_elements():
    # pi(u) normalizes with the identity automorphism for every unit u
    for e, u in [(GAUSS, ((0, 1), 1)), (CUBIC, ((0, 1, 0), 1))]:
        ok, sigma = verify_normalization(e, e.regular_rep(u))
        assert ok and sigma == linalg.identity(e.n)


def test_automorphism_search_requires_an_order(monkeypatch):
    fresh_memos(monkeypatch, matgroups._automorphisms)
    half = EtaleAlgebra([QPoly([1, 0, 1])], linalg.matrix([[1, 0], [0, Fraction(1, 2)]]))
    with pytest.raises(NotAnOrderError):
        enumerate_automorphisms(half)


def test_group_sanity_names_a_singular_generator():
    singular = linalg.matrix([[1, 2], [2, 4]])
    report = group_sanity(generator_set(2, (), "GL", torus_gens=[singular]))
    assert report["determinants"] == {"pass": False, "detail": ["torus:0: det=0"]}
    assert report["s_integrality"] == {"pass": False, "detail": ["torus:0"]}
    assert not report["all_pass"]["pass"]
    report = group_sanity(generator_set(2, (), "GL", torus_gens=[I_MAT], normalizer_gens=[singular]))
    assert report["s_integrality"] == {"pass": False, "detail": ["normalizer:0"]}
    assert report["normalizer"] == {"pass": False, "detail": ["normalizer:0 is singular"]}
    # a singular t has no conjugation: the semidirect check fails at its first pair
    assert verify_semidirect([I_MAT, singular], [elementary_matrix(2, 1, 2)]) == (False, (0, 0))
    assert verify_semidirect([linalg.identity(2), singular], [elementary_matrix(2, 1, 2)]) == (
        False,
        (1, 0),
    )


def _seeded_matrices(rng, count):
    """Rational 2×2 and 3×3 matrices with denominators in {1, 2, 3, 4, 5}:
    every fourth is made singular (last row the sum of the others)."""
    out = []
    for k in range(count):
        n = 2 + k % 2
        rows = [
            [Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3, 4, 5])) for _ in range(n)]
            for _ in range(n)
        ]
        if k % 4 == 3:
            rows[-1] = [sum(col[:-1], Fraction(0)) for col in zip(*rows)]
        out.append(linalg.matrix(rows))
    return out


def test_s_integrality_read_off_the_determinant_matches_the_inverse():
    rng = random.Random(20261019)
    kinds = collections.Counter()
    for m in _seeded_matrices(rng, 64):
        for s in ((), (2,), (5,), (2, 3)):
            got = group_sanity(generator_set(len(m[0]), s, "GL", torus_gens=[m]))["s_integrality"]
            expected = oracle_s_integral_both_ways(as_fractions(m), s)
            assert got["pass"] == expected, (m, s)
            det = oracle_det(as_fractions(m))
            entries_ok = oracle_matrix_is_s_integral(as_fractions(m), s)
            kinds["singular" if not det else "verdict " + str(expected)] += 1
            if det and entries_ok and not is_s_number(det.numerator * det.denominator, s):
                kinds["det not an S-unit"] += 1
            kinds["entries not S-integral"] += not entries_ok
    assert min(kinds.values()) >= 10, kinds


def _seeded_tori(rng, n, count):
    """Invertible rational matrices: products of elementary, diagonal and
    permutation steps."""
    out = []
    for _ in range(count):
        m = linalg.identity(n)
        for _ in range(3):
            i, j = rng.sample(range(n), 2)
            step = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
            kind = rng.randrange(3)
            if kind == 0:
                step[i][j] = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
            elif kind == 1:
                step[i][i] = Fraction(rng.choice([-1, 2, 3]))
            else:
                step[i], step[j] = step[j], step[i]
            m = linalg._int_mul(m, linalg.matrix(step))
        out.append(m)
    return out


def _oracle_semidirect(torus, unis):
    return oracle_semidirect([as_fractions(t) for t in torus], [as_fractions(u) for u in unis])


def test_semidirect_matches_the_per_pair_oracle():
    rng = random.Random(5)
    n = 3
    elementary = [elementary_matrix(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    not_unipotent = linalg.matrix([[1, 1, 0], [0, 2, 0], [0, 0, 1]])
    radicals = [
        [elementary_matrix(n, 1, 3), elementary_matrix(n, 2, 3)],
        [elementary_matrix(n, 1, 2), elementary_matrix(n, 2, 1)],  # span holds non-nilpotents
        [elementary_matrix(n, 1, 3), not_unipotent],
    ] + [rng.sample(elementary, rng.randint(1, 3)) for _ in range(12)]
    verdicts = collections.Counter()
    for unis in radicals:
        for torus in ([], *([t] for t in _seeded_tori(rng, n, 4)), _seeded_tori(rng, n, 3)):
            got = verify_semidirect(torus, unis)
            assert got == _oracle_semidirect(torus, unis), (torus, unis)
            verdicts[got[0]] += 1
    # span{E₁₂, E₂₁} holds E₁₂ + E₂₁, which is not nilpotent: membership
    # alone proves no unipotency. A diagonal t keeps the span; t = I + E₁₂
    # keeps I + E₁₂ and moves I + E₂₁ to I + E₁₁ − E₂₂ − E₁₂ + E₂₁, outside it
    diag = [linalg.matrix([[2, 0, 0], [0, 3, 0], [0, 0, 1]])]
    shear = [linalg.matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])]
    assert verify_semidirect(diag, radicals[1]) == (True, None) == _oracle_semidirect(diag, radicals[1])
    assert verify_semidirect(shear, radicals[1]) == (False, (0, 1)) == _oracle_semidirect(
        shear, radicals[1]
    )
    assert verify_semidirect(diag, radicals[2]) == (False, (0, 1))
    assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts


def test_group_sanity_work_counts_on_example_53(monkeypatch):
    golden = json.loads((pipeline.corpus_dir() / "ex53.json").read_text())
    gens = pipeline.run_pipeline(pipeline.PipelineRequest.from_json(golden["request"])).generators
    assert gens.unipotent_gens and gens.torus_gens
    calls = []

    def counted(name):
        real = getattr(linalg, name)
        return lambda m: calls.append((name, m)) or real(m)

    for name in ("_berkowitz", "_int_inv"):
        monkeypatch.setattr(linalg, name, counted(name))
    assert group_sanity(gens)["all_pass"]["pass"]
    charpolys = [m for name, m in calls if name == "_berkowitz"]  # on the integer rows
    assert sorted(charpolys) == sorted(rows for rows, _ in gens.unipotent_gens)
    inverses = [m for name, m in calls if name == "_int_inv"]
    invertible = set(gens.torus_gens + gens.torsion_gens + gens.normalizer_gens)
    assert len(set(inverses)) == len(inverses) and set(inverses) <= invertible


SANITY_REQUESTS = [
    ({"factors": [["1", "0", "1"]]}, "GL", "inf,5", None),  # torsion i, conjugation
    ({"factors": [["-2", "0", "1"]]}, "SL", "inf", None),  # a det −1 automorphism fixed by 1 + √2
    ({"factors": [["1", "0", "1"]]}, "SL", "inf,5", None),
    ({"factors": [["1", "-3", "0", "1"]]}, "SL", "inf", None),  # C3: automorphisms of order 3
    ({"factors": [["-1", "1", "0", "1"]]}, "SL", "inf", {"n": 4}),  # ex 5.3: a unipotent radical
]


def _emitted_sets():
    """(generators, algebra) as run_pipeline checks them, for each request."""
    out = []
    for algebra, ambient, places, block in SANITY_REQUESTS:
        request = {"algebra": algebra, "ambient": ambient, "places": places}
        if block:
            request["unipotent_block"] = block
        req = pipeline.PipelineRequest.from_json(request)
        gens = pipeline.run_pipeline(req).generators
        out.append((gens, None if block else req.algebra))
    return out


def _random_matrix(rng, n, singular=False):
    rows = [
        [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 1, 5])) for _ in range(n)] for _ in range(n)
    ]
    if singular:
        rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
    return linalg.matrix(rows)


def _mutated(rng, gens):
    """gens with one random change: kept, a generator added, replaced by a
    singular one, a claimed torsion order changed, all conjugated by a
    diagonal matrix, or a unipotent added outside the last-column pattern."""
    n = gens.n
    gens = gens._replace(
        torus_gens=list(gens.torus_gens),
        torsion_gens=list(gens.torsion_gens),
        normalizer_gens=list(gens.normalizer_gens),
        unipotent_gens=list(gens.unipotent_gens),
        provenance={k: dict(v) for k, v in gens.provenance.items()},
    )
    kinds = ["keep", "torus", "torsion", "order", "rescaled", "normalizer", "singular", "unipotent"]
    kind = rng.choice(kinds)
    if kind in ("torus", "torsion", "normalizer"):
        getattr(gens, f"{kind}_gens").append(_random_matrix(rng, n))
    elif kind == "order":
        gens.provenance["torsion:0"] = {"order": rng.choice([1, 2, 3, 6])}
    elif kind == "rescaled":  # every generator conjugated by diag(1, …, 1, 5): dens appear
        d, dinv = (
            linalg.matrix([[(x if i == j == n - 1 else 1) * (i == j) for j in range(n)] for i in range(n)])
            for x in (5, Fraction(1, 5))
        )
        for gs in (gens.torus_gens, gens.torsion_gens, gens.normalizer_gens, gens.unipotent_gens):
            gs[:] = [linalg._int_mul(linalg._int_mul(d, m), dinv) for m in gs]
    elif kind == "singular":
        lists = [m for m in (gens.torus_gens, gens.torsion_gens, gens.normalizer_gens) if m]
        target = rng.choice(lists)
        target[rng.randrange(len(target))] = _random_matrix(rng, n, singular=True)
    elif kind == "unipotent":
        j = rng.randrange(1, n)  # E_ij with j < n: outside the last column
        i = rng.choice([k for k in range(1, n + 1) if k != j])
        gens.unipotent_gens.append(elementary_matrix(n, i, j))
    return gens, kind


def test_group_sanity_matches_the_fraction_oracle():
    rng = random.Random(20261019)
    emitted = _emitted_sets()
    failures, kinds = collections.Counter(), collections.Counter()
    for _ in range(70):
        base, algebra = rng.choice(emitted)
        gens, kind = _mutated(rng, base)
        got = group_sanity(gens, algebra)
        assert got == oracle_group_sanity(gens, algebra), (kind, gens)
        kinds[kind] += 1
        failures.update(k for k, v in got.items() if not v["pass"])
    assert all(group_sanity(gens, algebra)["all_pass"]["pass"] for gens, algebra in emitted)
    checks = ["determinants", "s_integrality", "torus_commutes", "torsion_orders",
              "normalizer", "semidirect"]
    assert all(failures[k] >= 3 for k in checks), failures
    assert kinds["singular"] >= 3 and kinds["keep"] >= 3, kinds
