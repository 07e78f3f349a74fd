"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines (or `-rA` to get them in the captured-output report). Every
tolerance is exact: matrix comparisons are bit-exact, runtimes are
wall-clock bounds.
"""

import json
import random
import shutil
import time
from fractions import Fraction
from operator import add

import pytest

from ampletori import linalg
from ampletori.errors import RamifiedPlaceError, UnsupportedError
from ampletori.etale import EtaleAlgebra, element
from ampletori.matgroups import GeneratorSet, group_sanity, verify_semidirect
from ampletori.pipeline import PipelineRequest, corpus_dir, run_pipeline, verify_paper_examples
from ampletori.places import (
    INF,
    places_over_p,
    signature,
    standard_tag,
)
from ampletori.polynomials import (
    QPoly,
    discriminant,
    factor_mod_p,
    fp_mul,
    is_prime,
    squarefree_root,
)
from ampletori.serialize import replay_certificate
from ampletori.torus import (
    SL,
    PlaceSet,
    TorusDatum,
    build_torus,
    global_rank,
    is_s_ample,
    local_rank,
)
from ampletori.units import (
    assemble_unit_system,
    norm_one_subgroup,
    s_unit_rank,
    verify_unit_system,
)

from oracles import as_fractions, oracle_count_real_roots, oracle_mat_mul

CUBIC = QPoly([-1, 1, 0, 1])
GAUSS = QPoly([1, 0, 1])
QUARTIC = QPoly([1, -16, 20, -8, 1])


def _report(criterion: str, ok: bool, detail: str, elapsed: float, limit: float):
    line = (
        f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
        f"({detail}; {elapsed:.1f}s / limit {limit:.0f}s)"
    )
    print(line, flush=True)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_1_example_51_bit_exact():
    t0 = time.monotonic()
    report = run_pipeline(
        PipelineRequest.from_json(
            {
                "algebra": {"factors": [["-1", "1", "0", "1"]]},
                "ambient": "SL",
                "places": "inf",
                "unit_source": {"search": {"coord_bound": 3}},
            }
        )
    )
    expected = linalg.matrix([[0, 0, 1], [1, 0, -1], [0, 1, 0]])
    ok = (
        report.verdict == "S-ample"
        and report.generators.torus_gens == [expected]
        and report.generators.torsion_gens == []
        and report.unit_system.rank == 1
    )
    _report("1 (Ex 5.1)", ok, "matrix g, verdict, unit rank 1", time.monotonic() - t0, 5.0)


def test_criterion_2_example_54_bit_exact():
    t0 = time.monotonic()
    base = {
        "algebra": {"factors": [["1", "0", "1"]]},
        "ambient": "SL",
        "unit_source": {"search": {"coord_bound": 3}},
    }
    ample = run_pipeline(PipelineRequest.from_json({**base, "places": "inf,5"}))
    not_ample = run_pipeline(PipelineRequest.from_json({**base, "places": "inf"}))
    g = linalg.matrix([[Fraction(4, 5), Fraction(-3, 5)], [Fraction(3, 5), Fraction(4, 5)]])
    i_mat = linalg.matrix([[0, -1], [1, 0]])
    ok = (
        ample.certificate.local_ranks == {"inf": 0, "p:5": 1}
        and ample.verdict == "S-ample"
        and not_ample.verdict == "not-S-ample"
        and ample.generators.torus_gens == [g]
        and ample.generators.torsion_gens == [i_mat]
    )
    _report(
        "2 (Ex 5.4)", ok, "ranks 0/1, both verdicts, matrices i and (4+3i)/5",
        time.monotonic() - t0, 5.0,
    )


def test_criterion_3_example_53_bit_exact():
    t0 = time.monotonic()
    report = run_pipeline(
        PipelineRequest.from_json(
            {
                "algebra": {"factors": [["-1", "1", "0", "1"]]},
                "ambient": "SL",
                "places": "inf",
                "unipotent_block": {"n": 4, "pattern": "last-column"},
                "unit_source": {"search": {"coord_bound": 3}},
            }
        )
    )
    g_hat = linalg.matrix(
        [[0, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    minus_one = linalg.matrix([[-int(i == j) for j in range(4)] for i in range(4)])
    e14 = linalg.matrix([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    e24 = linalg.matrix([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    e34 = linalg.matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    gens = report.generators
    five_exact = (
        gens.torus_gens == [g_hat]
        and gens.torsion_gens == [minus_one]
        and gens.unipotent_gens == [e14, e24, e34]
        and gens.normalizer_gens == []
    )
    semi_ok, _ = verify_semidirect(
        gens.torus_gens + gens.torsion_gens, gens.unipotent_gens
    )
    sanity = report.sanity["all_pass"]["pass"]
    ok = report.verdict == "S-ample" and five_exact and semi_ok and sanity
    _report(
        "3 (Ex 5.3)", ok, "five generators bit-exact, semidirect and sanity pass",
        time.monotonic() - t0, 5.0,
    )


def test_criterion_4_example_52_weakened():
    t0 = time.monotonic()
    rows = verify_paper_examples()
    row = next(r for r in rows if r["example"] == "5.2")
    quartic = EtaleAlgebra([QUARTIC])
    system = assemble_unit_system(quartic, (), 9)
    norm_one = norm_one_subgroup(system)
    cert = verify_unit_system(norm_one)
    conjugacy_attempted = row["pass"] and (
        row["detail"] == "conjugator found"
        or any("conjugator" in c for c in row["caveats"])
    )
    ok = row["pass"] and cert.rank == 3 and conjugacy_attempted
    _report(
        "4 (Ex 5.2)",
        ok,
        f"V4 + signature + rank 3 certified; {row['detail']}",
        time.monotonic() - t0,
        60.0,
    )


def test_criterion_5_property_suite():
    t0 = time.monotonic()
    cases = 0
    rng = random.Random(20260809)

    cubic = EtaleAlgebra([CUBIC])
    gauss = EtaleAlgebra([GAUSS])
    quartic = EtaleAlgebra([QUARTIC])

    # ring homomorphism + norm multiplicativity
    for e in (cubic, gauss):
        for _ in range(100):
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(e.n)]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(e.n)]
            a_plus_b = element(list(map(add, a, b)))
            a, b = element(a), element(b)
            ma, mb = as_fractions(e.regular_rep(a)), as_fractions(e.regular_rep(b))
            product = as_fractions(e.regular_rep(e.mul(a, b)))
            assert [list(row) for row in product] == oracle_mat_mul(ma, mb)
            assert as_fractions(e.regular_rep(a_plus_b)) == tuple(
                tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(ma, mb)
            )
            norm = Fraction(*e.norm(e.mul(a, b)))
            assert norm == Fraction(*e.norm(a)) * Fraction(*e.norm(b))
            cases += 1

    # squarefree roots: a squarefree s is the root of s^k, and any root
    # found of f·h is squarefree and gives f·h back
    for _ in range(60):
        f = QPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
        g = QPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
        h = QPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [1])
        s = f * g
        if discriminant(s):
            assert all(squarefree_root(s**k) == (s, k) for k in (1, 2, 3))
        root = squarefree_root(f * h)
        assert root is None or (root[0] ** root[1] == f * h and discriminant(root[0]))
        cases += 1

    # discriminant vs repeated factors mod p, and factor re-multiplication
    primes = [p for p in range(2, 60) if is_prime(p)]
    for _ in range(16):
        f = QPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
        disc = discriminant(f)
        for p in primes[:10]:
            factors = factor_mod_p(f, p)
            repeated = any(m > 1 for _, m in factors)
            assert (disc % p == 0) == repeated
            prod = [1]
            for gg, m in factors:
                for _ in range(m):
                    prod = fp_mul(prod, gg, p)
            assert prod == f.reduce_mod(p)
            cases += 1

    # root-disk signatures vs the independent bisection oracle
    done = 0
    while done < 60:
        deg = rng.randint(1, 6)
        f = QPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        if not discriminant(f):  # monic: squarefree exactly when disc f ≠ 0
            continue
        assert signature(f).r1 == oracle_count_real_roots(f)
        done += 1
        cases += 1

    # rank monotonicity (global <= local) and two-path local-rank consistency
    for e in (cubic, gauss, quartic):
        f = e.factors[0]
        disc = discriminant(f)
        for ambient in (SL, "GL"):
            t = build_torus(e, ambient)
            grank = global_rank(t)
            assert grank <= local_rank(t, INF)
            cases += 1
            checked, p = 0, 2
            while checked < 10:
                if is_prime(p) and disc % p != 0:
                    lr = local_rank(t, p)
                    assert grank <= lr
                    expected = places_over_p(f, p) - (1 if ambient == SL else 0)
                    assert lr == expected
                    checked += 1
                    cases += 1
                p += 1

    # Dirichlet-rank consistency on the worked examples
    for e, s, bound in ((cubic, (), 3), (gauss, (5,), 3)):
        sysx = assemble_unit_system(e, s, bound)
        cert = verify_unit_system(sysx)
        assert cert.rank == s_unit_rank(e, s)
        cases += 1

    # certificate replay
    for e, s in ((cubic, ()), (gauss, ()), (gauss, (5,)), (quartic, ())):
        certif = is_s_ample(build_torus(e, SL), PlaceSet(True, s))
        assert replay_certificate(certif) == certif.verdict
        cases += 1

    elapsed = time.monotonic() - t0
    _report(
        "5 (properties)",
        cases >= 500,
        f"{cases} randomized cases, zero failures",
        elapsed,
        120.0,
    )


def test_criterion_6_negative_controls(tmp_path):
    t0 = time.monotonic()
    # (a) ramified place requests error, never guess
    with pytest.raises(RamifiedPlaceError):
        places_over_p(CUBIC, 31)
    with pytest.raises(RamifiedPlaceError):
        is_s_ample(build_torus(EtaleAlgebra([CUBIC]), SL), PlaceSet(True, (31,)))

    # (b) a module without its defining algebra has no local ranks: an error
    t = TorusDatum(SL, (standard_tag("S3"),))
    with pytest.raises(UnsupportedError):
        is_s_ample(t, PlaceSet(True, ()))

    # (c) a det-2 matrix fails sanity
    gens = GeneratorSet(2, (), "SL", [linalg.matrix([[2, 0], [0, 1]])], [], [], [], {})
    report = group_sanity(gens)
    assert not report["determinants"]["pass"] and not report["all_pass"]["pass"]

    # (d) a corrupted golden file fails verify_paper_examples
    src = corpus_dir()
    for name in ("ex51.json", "ex52.json", "ex53.json", "ex54.json"):
        shutil.copy(src / name, tmp_path / name)
    data = json.loads((tmp_path / "ex51.json").read_text())
    data["request"]["algebra"]["factors"][0] = ["-1", "2", "0", "1"]
    (tmp_path / "ex51.json").write_text(json.dumps(data))
    rows = verify_paper_examples(tmp_path)
    row51 = next(r for r in rows if r["example"] == "5.1")
    assert not row51["pass"]

    _report(
        "6 (negative controls)",
        True,
        "ramified error, no-algebra error, det-2 sanity failure, corrupted golden",
        time.monotonic() - t0,
        120.0,
    )
