"""JSON serialization for every external interface (schema "cma/1").

Rationals serialize as "p/q" strings (plain integers when q = 1),
polynomials as arrays of coefficient strings in ascending degree, matrices
row-major. Serialization is canonical: json.dumps with sorted keys and fixed
separators, so identical inputs produce byte-identical reports.

Apart from etale.coordinates, this is where a rational value exists:
`parse_frac` is the one reader of a JSON number, an int, or a Fraction only
when the value is not an integer, and the readers build the package's
integer forms from its values at once (an IntMat by linalg.matrix, an
element by etale.element).

The *_to_json functions make their trees JSON-ready (str keys, lists,
strings and ints), so dumps hands a tree to json's C encoder as it is; a
Fraction left in one reaches frac_str as the encoder's default. Sanity
details alone go through _jsonable first.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

from . import linalg
from .errors import InputError
from .etale import Coords, EtaleAlgebra, element
from .linalg import IntMat, _ratio_str
from .matgroups import GeneratorSet
from .polynomials import MEMO_SIZE
from .torus import (
    AmpleCertificate,
    SubmoduleWitness,
    finite_place,
    replay_certificate_json,
    require_supported_degrees,
)
from .units import UnitSystem

SCHEMA = "cma/1"
# (the factors' coefficients from poly_from_json, the order basis's IntMat or
# None) -> the EtaleAlgebra built from them, which nothing edits once made; a
# failed build raises and is not stored
_algebra = functools.lru_cache(maxsize=MEMO_SIZE)(EtaleAlgebra)
_INTEGER = re.compile(r"\s*[+-]?\d+\s*")  # a spelling int() and Fraction() read alike


def frac_str(x: Fraction) -> str:
    x = x if isinstance(x, Fraction) else Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s, path="") -> int | Fraction:
    """A JSON number's value: an int for "3" or 3 without a Fraction made,
    Fraction(str(s))'s for any other spelling, as an int when it is one ("6/2")."""
    if type(s) is int:
        return s
    if isinstance(s, str) and _INTEGER.fullmatch(s):
        return int(s)
    try:
        x = Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {s!r}: {exc}", path)
    return x.numerator if x.denominator == 1 else x


def poly_from_json(data, path="") -> tuple:
    """The coefficients without trailing zeros: ints, and a Fraction for
    each one that is not an integer, which QPoly refuses."""
    if not isinstance(data, list):
        raise InputError("polynomial must be an array of coefficient strings", path)
    coeffs = [parse_frac(c, f"{path}[{i}]") for i, c in enumerate(data)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def matrix_to_json(m: IntMat) -> list[list[str]]:
    """Each entry's "p/q" text from (entry, den), with one gcd."""
    rows, den = m
    if den == 1:
        return [[str(x) for x in row] for row in rows]
    return [[_ratio_str(x, den) for x in row] for row in rows]


def matrix_from_json(data, path="") -> IntMat:
    """The IntMat of a JSON matrix; linalg.matrix raises ValueError when it is ragged."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InputError("matrix must be an array of arrays", path)
    return linalg.matrix(
        [[parse_frac(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(data)]
    )


def vector_to_json(v: Coords) -> list[str]:
    return matrix_to_json(((v[0],), v[1]))[0]


def vector_from_json(data, n: int, path="") -> Coords:
    """The element whose coordinates are an array of exactly n numbers."""
    if not isinstance(data, list) or len(data) != n:
        raise InputError(f"expected an array of {n} coordinates, got {data!r}", path)
    return element([parse_frac(x, f"{path}[{i}]") for i, x in enumerate(data)])


def algebra_from_json(data, path="algebra") -> EtaleAlgebra:
    if not isinstance(data, dict) or "factors" not in data:
        raise InputError("algebra needs a 'factors' array", path)
    if not isinstance(data["factors"], list):
        raise InputError("factors must be an array", f"{path}.factors")
    factors = tuple(
        poly_from_json(f, f"{path}.factors[{i}]") for i, f in enumerate(data["factors"])
    )
    require_supported_degrees(len(f) - 1 for f in factors)
    basis = data.get("order_basis")
    if basis is not None:
        try:
            basis = matrix_from_json(basis, f"{path}.order_basis")
        except ValueError as exc:  # a ragged basis, reported at the algebra
            raise InputError(str(exc), path)
    try:  # QPoly refuses a non-integer coefficient
        return _algebra(factors, basis)
    except Exception as exc:
        raise InputError(str(exc), path)


def unit_system_to_json(sys: UnitSystem) -> dict:
    return {
        "torsion": {
            "element": vector_to_json(sys.torsion_generator),
            "order": sys.torsion_order,
        },
        "free": [vector_to_json(g) for g in sys.free_generators],
        "s_primes": list(sys.s_primes),
    }


def int_from_json(value) -> int:
    """A JSON integer or integer string; 2.5 or true is a ValueError, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def unit_system_from_json(e: EtaleAlgebra, data, path="units") -> UnitSystem:
    """A unit system; each of its s_primes is a prime (finite_place), and
    they are kept sorted and distinct, as in a PlaceSet."""
    if not isinstance(data, dict):
        raise InputError("unit system must be an object with 'torsion' and 'free'", path)
    primes = data.get("s_primes", [])
    if not isinstance(primes, list):
        raise InputError("s_primes must be an array", f"{path}.s_primes")
    s_primes = {finite_place(p, f"{path}.s_primes[{i}]") for i, p in enumerate(primes)}
    try:
        torsion = data["torsion"]
        return UnitSystem(
            e,
            vector_from_json(torsion["element"], e.n, f"{path}.torsion.element"),
            int_from_json(torsion["order"]),
            [vector_from_json(g, e.n, f"{path}.free[{i}]") for i, g in enumerate(data["free"])],
            tuple(sorted(s_primes)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad unit system: {exc}", path)


def submodule_to_json(w: SubmoduleWitness) -> dict:
    return {
        "components": list(w.components),
        "dim": w.dim,
        "witness_place": w.witness_place,
        "sub_rank_at_witness": w.sub_rank_at_witness,
        "torus_rank_at_witness": w.torus_rank_at_witness,
        "local_ranks": {k: list(v) for k, v in sorted(w.local_ranks.items())},
    }


def certificate_to_json(cert: AmpleCertificate) -> dict:
    return {
        "schema": SCHEMA,
        "verdict": cert.verdict,
        "ambient": cert.ambient,
        "n": cert.n,
        "places": cert.places,
        "condition_i": cert.condition_i,
        "condition_ii": cert.condition_ii,
        "condition_iii": cert.condition_iii,
        "local_ranks": dict(sorted(cert.local_ranks.items())),
        "global_rank": cert.global_rank,
        "submodules": [submodule_to_json(w) for w in cert.submodules],
        "notes": [],
    }


def replay_certificate(cert: AmpleCertificate) -> str:
    """Recompute the verdict from the certificate's own stored witnesses, as
    read back from its JSON form."""
    return replay_certificate_json(certificate_to_json(cert))


def generator_set_to_json(gens: GeneratorSet) -> dict:
    return {
        "ring": gens.ring_str(),
        "n": gens.n,
        "ambient": gens.ambient,
        "torus": [matrix_to_json(m) for m in gens.torus_gens],
        "torsion": [matrix_to_json(m) for m in gens.torsion_gens],
        "normalizer": [matrix_to_json(m) for m in gens.normalizer_gens],
        "unipotent": [matrix_to_json(m) for m in gens.unipotent_gens],
        "provenance": {k: v for k, v in sorted(gens.provenance.items())},
    }


def sanity_to_json(report: dict) -> dict:
    out = {}
    for k, v in report.items():
        detail = v.get("detail")
        out[k] = {"pass": v["pass"]}
        if detail:
            out[k]["detail"] = _jsonable(detail)
    return out


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=frac_str) + "\n"


def loads(text: str, path="<input>"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}", path)
