"""A factor polynomial's invariants in integers, checked against oracles.

The discriminant is checked against sympy, `padic_roots` against the
linear factors of `factor_mod_p` (every root it returns is a root modulo q
above one of them, and Hensel makes that root unique), the β products of
`PrimePlaces` against the same products taken by sympy, and
`split_prime` against its definition, on every (factor, S-prime) of the
corpus and of the benchmark workloads at seeds 1–3 (and at the small
unramified primes, where cubics and quartics split too). Guards keep the
integer paths free of Fractions: the invariants, the Galois group of every
quartic there, the unit certificate and the ampleness decision. The per-polynomial caches are shown to be
bounded, history-free and not editable by a caller.
"""

import functools
import importlib.util
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from ampletori import places, polynomials, realsplit, units
from ampletori.etale import EtaleAlgebra, element
from ampletori.pipeline import PipelineRequest, corpus_dir
from ampletori.places import PrimePlaces
from ampletori.polynomials import (
    QPoly,
    discriminant,
    factor_mod_p,
    is_irreducible_q,
    is_prime,
    padic_roots,
    split_prime,
)
from ampletori.torus import build_torus, is_s_ample
from ampletori.units import build_log_embedding

from test_memos import fresh_memos

X = sympy.Symbol("x")
WORKLOADS = Path(__file__).resolve().parent.parent / "ampbench" / "workloads.py"


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _monic(rng, degree, size=9):
    return tuple(rng.randint(-size, size) for _ in range(degree)) + (1,)


def _value(coeffs, x, m):
    return sum(c * pow(x, k, m) for k, c in enumerate(coeffs)) % m


# ---------------------------------------------------------------------------
# the discriminant against sympy
# ---------------------------------------------------------------------------


def _discriminant_cases() -> list[tuple[int, ...]]:
    rng = random.Random("discriminant")
    cases = [_monic(rng, d, 10**rng.randint(0, 6)) for d in range(1, 7) for _ in range(12)]
    cases += [_mul(c, c) for c in (_monic(rng, 1), _monic(rng, 2))]  # disc 0
    big = 10**15
    cases += [
        (10**14 + 3, 0, 0, 0, 1),
        (10**30 + 3, 0, 0, 0, 1),
        (4 * 10**28, 0, 0, 0, 1),
        _mul((big + 7, 0, 1), (big + 9, 1, 1)),
    ]
    return cases


@pytest.mark.parametrize("coeffs", _discriminant_cases(), ids=str)
def test_discriminant_matches_sympy(coeffs):
    want = sympy.discriminant(sympy.Poly(list(reversed(coeffs)), X))
    got = discriminant(QPoly(coeffs))
    assert type(got) is int and got == int(want)


# ---------------------------------------------------------------------------
# p-adic roots against the linear factors modulo p
# ---------------------------------------------------------------------------


def _padic_cases() -> list[tuple[tuple[int, ...], int, int]]:
    """(f, p, k): f monic with p ∤ disc f, roots wanted modulo p^k."""
    rng = random.Random("padic_roots")
    cases = []
    for p in (2, 3, 5, 7, 13, 101, 2003, 10007):
        k = 2 if p > 1000 else 4
        polys = [_monic(rng, d) for d in range(1, 7) for _ in range(3)]
        # split over Z, so every root is there modulo p, the large p included
        polys += [functools.reduce(_mul, [(-rng.randint(-50, 50), 1) for _ in range(n)]) for n in (2, 4, 6)]
        for coeffs in polys:
            if discriminant(QPoly(coeffs)) % p:
                cases.append((coeffs, p, k))
    return cases


PADIC_CASES = _padic_cases()


def test_padic_cases_reach_every_branch():
    counts = [(len(f) - 1, p, len(padic_roots(QPoly(f), p, p))) for f, p, _ in PADIC_CASES]
    assert any(0 < r < n for n, _, r in counts)  # fewer roots than the degree
    assert any(r == 0 for n, _, r in counts)
    searched = [(n, r) for n, p, r in counts if p * r > 10**4]  # the equal-degree split
    assert any(r == n >= 4 for n, r in searched) and any(2 <= r < n for n, r in searched)


@pytest.mark.parametrize("coeffs, p, k", PADIC_CASES, ids=str)
def test_padic_roots_lift_the_linear_factors_mod_p(coeffs, p, k):
    q = p**k
    residues = sorted(-g[0] % p for g, _ in factor_mod_p(coeffs, p) if len(g) == 2)
    roots = padic_roots(QPoly(coeffs), p, q)
    assert [r % p for r in roots] == residues
    assert all(0 <= r < q and _value(coeffs, r, q) == 0 for r in roots)


# ---------------------------------------------------------------------------
# every factor and S-prime of the corpus and the benchmark workloads
# ---------------------------------------------------------------------------


def _requests() -> list[dict]:
    spec = importlib.util.spec_from_file_location("ampbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    requests = [json.loads(path.read_text())["request"] for path in sorted(corpus_dir().glob("*.json"))]
    for name in ("cli-cold", "session-warm"):
        for seed in (1, 2, 3):
            requests += [op["request"] for op in workloads.build(name, seed)]
    return requests


def _factor_places() -> dict[tuple[int, ...], set[int]]:
    """Every factor of the requests, with the unramified S-primes asked of it."""
    out: dict[tuple[int, ...], set[int]] = {}
    for req in _requests():
        primes = [int(x) for x in req["places"].split(",") if x != "inf"]
        for factor in req["algebra"]["factors"]:
            f = tuple(int(c) for c in factor)
            out.setdefault(f, set()).update(p for p in primes if discriminant(QPoly(f)) % p)
    return out


FACTOR_PLACES = _factor_places()


def test_the_workload_factors_cover_every_degree_and_many_places():
    assert {len(f) - 1 for f in FACTOR_PLACES} == {2, 3, 4}
    assert sum(map(len, FACTOR_PLACES.values())) >= 7


@pytest.mark.parametrize("coeffs", sorted(FACTOR_PLACES, key=lambda c: (len(c), c)), ids=str)
def test_workload_factor_invariants(coeffs):
    f = QPoly(coeffs)
    assert is_irreducible_q(f) == sympy.Poly(list(reversed(coeffs)), X).is_irreducible
    disc, p = discriminant(f), split_prime(f)
    assert is_prime(p) and disc % p and all(len(g) == 2 for g, _ in factor_mod_p(f, p))
    assert not any(
        disc % r and all(len(g) == 2 for g, _ in factor_mod_p(f, r))
        for r in range(2, p) if is_prime(r)
    )
    assert [r % p for r in padic_roots(f, p, p**3)] == sorted(-g[0] % p for g, _ in factor_mod_p(f, p))
    for s in FACTOR_PLACES[coeffs] | {r for r in (3, 5, 7, 11, 13) if disc % r}:
        # β_i = ∏_{j≠i} g_j mod f, as sympy gives it
        t = sympy.Poly(list(reversed(coeffs)), X)
        lifts = [sympy.Poly(list(reversed(g)), X) for g, _ in factor_mod_p(f, s)]
        betas = PrimePlaces(f, s)._betas
        for i, beta in enumerate(betas):
            want = math.prod(lifts[:i] + lifts[i + 1 :], start=sympy.Poly(1, X)).rem(t)
            assert QPoly(beta) == QPoly([int(c) for c in reversed(want.all_coeffs())])
            assert all(type(c) is int for c in beta)


# ---------------------------------------------------------------------------
# the integer paths make no Fraction
# ---------------------------------------------------------------------------


def _count_fractions(monkeypatch) -> list:
    """The arguments of every Fraction made from here on; the count is first
    shown to see one made."""
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **k: made.append(a) or new(cls, *a, **k)))
    assert Fraction(1, 2) and made == [(1, 2)]  # the count sees a Fraction made
    made.clear()
    return made


def test_integer_paths_construct_no_fraction(monkeypatch):
    polys = [QPoly(c) for c in [(1, 0, 1), (-1, 1, 0, 1), (6, -5, 1), (1, -16, 20, -8, 1),
                                (10**14 + 3, 0, 0, 0, 1), (-2, 0, 0, 0, 0, 1)]]
    large = [next(p for p in (10007, 10009) if discriminant(f) % p) for f in polys]
    for cached in (discriminant, split_prime, is_irreducible_q):
        cached.cache_clear()
    made = _count_fractions(monkeypatch)
    for f, big in zip(polys, large):
        discriminant(f)
        is_irreducible_q(f)
        p = split_prime(f)
        padic_roots(f, p, p**4)
        padic_roots(f, big, big**2)
    assert made == []


QUARTICS = sorted(f for f in FACTOR_PLACES if len(f) == 5)


def test_galois_group_makes_no_fraction(monkeypatch):
    # the cubic resolvent is monic integral with disc f ≠ 0: its rational
    # roots are its integer roots, and the character tables hold ints
    assert len({places.galois_group_small(QPoly(c)).group for c in QUARTICS}) >= 3
    polys = [QPoly(c) for c in QUARTICS]
    for cached in (discriminant, split_prime, is_irreducible_q, places.galois_group_small):
        cached.cache_clear()
    made = _count_fractions(monkeypatch)
    for f in polys:
        places.galois_group_small(f)
        assert made == [], f


def test_unit_certificate_makes_no_fraction(monkeypatch):
    # ex 5.4's full S-unit group at {5}: the S-number checks take integer
    # denominators and determinants, and log 5 is read off the integer grid
    e = EtaleAlgebra([QPoly([1, 0, 1])])
    system = units.assemble_unit_system(e, (5,), 3)
    made = _count_fractions(monkeypatch)
    assert units.verify_unit_system(system).rank == system.rank == 2
    build_log_embedding(e, system.free_generators, (5,), 64)
    assert made == []


def test_ampleness_decision_makes_no_fraction(monkeypatch):
    # every corpus torus, at its places and at the places where it is not
    # ample: the character means are integer divisions
    goldens = [json.loads(path.read_text()) for path in sorted(corpus_dir().glob("*.json"))]
    cases = []
    for golden in goldens:
        for places_str in [golden["request"]["places"]] + golden.get("negative_places", []):
            req = PipelineRequest.from_json({**golden["request"], "places": places_str})
            cases.append((build_torus(req.algebra, req.ambient), req.places))
    made = _count_fractions(monkeypatch)
    verdicts = {is_s_ample(t, s).verdict for t, s in cases}
    assert verdicts == {"S-ample", "not-S-ample"} and made == []


# ---------------------------------------------------------------------------
# the caches: bounded, history-free, not editable
# ---------------------------------------------------------------------------


def test_invariant_caches_are_bounded_and_history_free(monkeypatch):
    fields = [(QPoly([1, 0, 1]), 5), (QPoly([-1, 1, 0, 1]), 7), (QPoly([1, -16, 20, -8, 1]), 23)]

    def answers():
        out = []
        for f, p in fields:
            emb = build_log_embedding(EtaleAlgebra([f]), [element([2] + [1] * (f.degree - 1))], (p,))
            out.append((polynomials.discriminant(f), places.places_over_p(f, p),
                        places.frobenius_cycle_type(f, p), realsplit.root_disks(f, 64), emb.rows))
        return out

    first = answers()

    def memos():
        return polynomials.discriminant, places.prime_places, realsplit.root_disks

    fresh_memos(monkeypatch, *memos())
    assert answers() == first
    # at bound 1 every new key evicts the last one
    fresh_memos(monkeypatch, *memos(), maxsize=1)
    for _ in range(2):
        assert answers() == first
        assert [memo.cache_info().currsize for memo in memos()] == [1, 1, 1]
    # a caller gets the cached tuple of immutable disks, which it cannot edit
    disks = realsplit.root_disks(fields[-1][0], 64)
    assert disks is realsplit.root_disks(fields[-1][0], 64)
    with pytest.raises(TypeError):
        disks[0] = disks[1]
    with pytest.raises(AttributeError):
        disks[0].re = 0
    assert answers() == first
