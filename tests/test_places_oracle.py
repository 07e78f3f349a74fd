"""Differential tests of the Galois tags against sympy's galois_group.

sympy is a test-only oracle; the library never imports it. The fields are
every corpus and benchmark-workload polynomial plus a seeded set of
irreducible monic polynomials of degree 2 to 4. On the same fields the
number of order automorphisms of the power-basis order, and the number of
roots of f in K, must equal |Aut(K)| read off the tag.
"""

import json
import random
import re
from pathlib import Path

import pytest
import sympy
from sympy.polys.numberfields.galoisgroups import galois_group

from ampletori.etale import EtaleAlgebra
from ampletori.matgroups import enumerate_automorphisms
from ampletori.pipeline import corpus_dir
from ampletori.places import automorphism_count, galois_group_small, standard_tag
from ampletori.polynomials import QPoly
from oracles import oracle_automorphism_count

X = sympy.Symbol("x")
SYMPY_NAMES = {"S2": "C2", "A3": "C3", "S3": "S3", "C4": "C4", "V": "V4", "D4": "D4", "A4": "A4", "S4": "S4"}
# one field per tag that the corpus and the workloads may lack: C3, V4, D4, A4
NAMED = [(1, -3, 0, 1), (1, 0, 0, 0, 1), (-2, 0, 0, 0, 1), (12, 8, 0, 0, 1)]
WORKLOADS = Path(__file__).resolve().parent.parent / "ampbench" / "workloads.py"


def _sympy_poly(coeffs):
    return sympy.Poly([int(c) for c in reversed(coeffs)], X)


def _fields() -> list[tuple[int, ...]]:
    found = set(NAMED)
    for path in sorted(corpus_dir().glob("*.json")):
        for factor in json.loads(path.read_text())["request"]["algebra"]["factors"]:
            found.add(tuple(int(c) for c in factor))
    for args in re.findall(r"_poly\(([-\d, ]+)\)", WORKLOADS.read_text()):
        found.add(tuple(int(c) for c in args.split(",")))
    rng = random.Random(20261018)
    while len(found) < 60:
        coeffs = tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 4))) + (1,)
        if _sympy_poly(coeffs).is_irreducible:
            found.add(coeffs)
    return sorted(found, key=lambda c: (len(c), c))


FIELDS = _fields()


def test_the_fields_cover_every_tag_and_the_workloads():
    assert {galois_group_small(QPoly(c)).group for c in FIELDS} == set(SYMPY_NAMES.values())
    assert (1, -16, 20, -8, 1) in FIELDS and (1, -1, 1, 0, 1) in FIELDS


@pytest.mark.parametrize("coeffs", FIELDS, ids=str)
def test_galois_tag_and_automorphisms_match_sympy(coeffs):
    group, _ = galois_group(_sympy_poly(coeffs), by_name=True)
    tag = galois_group_small(QPoly(coeffs))
    assert tag.group == SYMPY_NAMES[group.name]
    e = EtaleAlgebra([QPoly(coeffs)])
    count = oracle_automorphism_count(tag)
    assert count == automorphism_count(tag) == len(enumerate_automorphisms(e))
    # the p-adic solver, which the count now skips where it is 1, finds one
    # root of f in K per automorphism
    assert len(e.elements_with_charpoly(QPoly(coeffs))) == count


@pytest.mark.parametrize(
    "name, count",
    [
        ("C1", 1), ("C2", 2), ("C3", 3), ("S3", 1), ("C4", 4),
        ("V4", 4), ("D4", 2), ("A4", 1), ("S4", 1),
    ],
)
def test_automorphism_count(name, count):
    # |N_G(H)/H| equals the number of points H fixes, for a transitive action
    tag = standard_tag(name)
    stabilizer = [g for g in tag.elements if g[0] == 0]
    fixed = [i for i in range(tag.degree) if all(g[i] == i for g in stabilizer)]
    assert oracle_automorphism_count(tag) == automorphism_count(tag) == len(fixed) == count
