"""Output checks from outside the program: stdlib `fractions` only.

This module never imports `ampletori`. It reads the canonical JSON an op
printed and checks it against the op's expected verdict and against the
defining properties of the emitted matrices:

- det 1 in SL, or a unit of Z[1/S] in GL;
- every generator and its inverse are S-integral;
- torus and torsion generators commute pairwise;
- each torsion generator has exactly the order its provenance claims;
- unipotent generators are elementary matrices I + E_ij, as claimed;
- the report's own sanity table passes.

For `paper` ops every reproduction row must pass.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


def _matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _det_and_inverse(m):
    """Gauss-Jordan over Q: (det, inverse) with inverse None if singular."""
    n = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        piv = rows[c][c]
        det *= piv
        rows[c] = [x / piv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det, [r[n:] for r in rows]


def _strip(n: int, primes) -> int:
    n = abs(n)
    for p in primes:
        while n and n % p == 0:
            n //= p
    return n


def _s_integral(m, primes) -> bool:
    return all(_strip(x.denominator, primes) == 1 for row in m for x in row)


def _s_unit(x: Fraction, primes) -> bool:
    return x != 0 and _strip(x.numerator, primes) == 1 and _strip(x.denominator, primes) == 1


def _order(m, cap: int = 24) -> int | None:
    ident = _identity(len(m))
    acc = m
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = _mul(acc, m)
    return None


def places_primes(places) -> tuple[int, ...]:
    if isinstance(places, dict):
        return tuple(int(p) for p in places.get("primes", []))
    return tuple(int(p) for p in str(places).split(",") if p.strip() not in ("", "inf"))


def check_construct(op: dict, text: str) -> list[str]:
    """Problems with one construct report (empty when it is correct)."""
    req = op["request"]
    report = json.loads(text)
    problems = []
    if report.get("verdict") != op["expect"]:
        return [f"verdict {report.get('verdict')!r}, expected {op['expect']!r}"]
    gens = report.get("generators")
    if op["expect"] != "S-ample":
        return ["generators emitted on a non-ample verdict"] if gens is not None else []
    if gens is None:
        return ["S-ample verdict without generators"]
    primes = places_primes(req["places"])
    block = req.get("unipotent_block")
    n = block["n"] if block else sum(len(f) - 1 for f in req["algebra"]["factors"])
    ambient = "SL" if block else req["ambient"]
    if gens.get("n") != n or gens.get("ambient") != ambient:
        problems.append(f"generator set is {gens.get('ambient')}_{gens.get('n')}, expected {ambient}_{n}")
    prov = gens.get("provenance", {})
    kinds = {k: [_matrix(m) for m in gens.get(k, [])] for k in ("torus", "torsion", "normalizer", "unipotent")}
    for kind, mats in kinds.items():
        for i, m in enumerate(mats):
            name = f"{kind}:{i}"
            if len(m) != n or any(len(r) != n for r in m):
                problems.append(f"{name} is not {n}x{n}")
                continue
            det, inv = _det_and_inverse(m)
            if ambient == "SL" and det != 1:
                problems.append(f"{name} has det {det} in SL")
            if ambient == "GL" and not _s_unit(det, primes):
                problems.append(f"{name} has det {det}, not a unit of Z[1/S]")
            if inv is None or not (_s_integral(m, primes) and _s_integral(inv, primes)):
                problems.append(f"{name} or its inverse is not S-integral")
    commuting = kinds["torus"] + kinds["torsion"]
    for (i, a), (j, b) in itertools.combinations(enumerate(commuting), 2):
        if _mul(a, b) != _mul(b, a):
            problems.append(f"torus generators {i} and {j} do not commute")
    for i, m in enumerate(kinds["torsion"]):
        claimed = prov.get(f"torsion:{i}", {}).get("order")
        if _order(m) != claimed:
            problems.append(f"torsion:{i} has order {_order(m)}, claimed {claimed}")
    for i, m in enumerate(kinds["unipotent"]):
        p = prov.get(f"unipotent:{i}", {})
        want = _identity(n)
        if "i" in p and "j" in p and p["i"] != p["j"]:
            want[p["i"] - 1][p["j"] - 1] = Fraction(1)
        if m != want or m == _identity(n):
            problems.append(f"unipotent:{i} is not the elementary matrix it claims")
    sanity = report.get("sanity") or {}
    if not sanity.get("all_pass", {}).get("pass"):
        problems.append("report's sanity table does not pass")
    return problems


def check_paper(text: str) -> list[str]:
    rows = json.loads(text)
    if len(rows) != 4:
        return [f"{len(rows)} reproduction rows, expected 4"]
    return [f"example {r.get('example')}: {r.get('detail')}" for r in rows if not r.get("pass")]


def check(op: dict, text: str) -> list[str]:
    if op["kind"] == "paper":
        return check_paper(text)
    return check_construct(op, text)
