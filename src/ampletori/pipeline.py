"""End-to-end pipeline: étale algebra + place set → certificate + generators.

A request names the algebra, the ambient group, the place set, an optional
unipotent block (last-column radical, the only pattern supported) and the
unit source. The pipeline builds the torus, decides ampleness, and — only on
an ample verdict — assembles the generator set (norm-one S-units as matrices,
torsion, automorphism matrices, elementary unipotents for the block case)
and runs the batch sanity checks, which are enforced, not optional.

For a block request the certificate is computed for the full torus of E in
GL_n: that is the torus of the Levi of the parabolic fixing the last column,
which is the group the block construction extends by unipotents. Its block
generators are diag(π(u), N(u)^{-1}), so the emitted set needs no separate
handling for the central torsion; an automorphism matrix m enters the same
way, as diag(m, det(m)^{-1}).
"""

from __future__ import annotations

import functools
from math import lcm
from typing import TYPE_CHECKING, NamedTuple

from . import conjugacy, linalg, serialize
from .errors import AmpleToriError, InputError, InvalidUnitSystemError, UnsupportedError
from .etale import EtaleAlgebra
from .linalg import IntMat
from .matgroups import (
    GeneratorSet,
    block_diag,
    elementary_matrix,
    enumerate_automorphisms,
    group_sanity,
    verify_normalization,
)
from .places import galois_group_small, signature
from .polynomials import MEMO_SIZE
from .torus import (
    GL,
    SL,
    VERDICT_AMPLE,
    PlaceSet,
    build_torus,
    finite_place,
    is_s_ample,
)
from .units import (
    DependenceWitness,
    UnitCertificate,
    UnitSystem,
    assemble_unit_system,
    norm_one_subgroup,
    s_unit_rank,
    verify_unit_system,
)

if TYPE_CHECKING:
    from pathlib import Path

LAST_COLUMN = "last-column"
REQUEST_KEYS = ("schema", "algebra", "ambient", "places", "unipotent_block", "unit_source")


class PipelineRequest(NamedTuple):
    algebra: EtaleAlgebra
    ambient: str  # SL | GL
    places: PlaceSet
    unipotent_block: dict | None  # {"n": n', "pattern": "last-column"}
    unit_source: dict  # {"search": {"coord_bound": k}} or {"provided": ...}

    @staticmethod
    def from_json(data, path="request") -> "PipelineRequest":
        if not isinstance(data, dict):
            raise InputError("request must be a JSON object", path)
        unknown = sorted(data.keys() - set(REQUEST_KEYS))
        if unknown:  # refused, not ignored: a retired field fails by name
            raise InputError(
                f"unknown request field {unknown[0]!r}; the fields are {', '.join(REQUEST_KEYS)}",
                f"{path}.{unknown[0]}",
            )
        schema = data.get("schema", serialize.SCHEMA)
        if schema != serialize.SCHEMA:
            raise InputError(f"schema must be {serialize.SCHEMA!r}, got {schema!r}", f"{path}.schema")
        algebra = serialize.algebra_from_json(data.get("algebra"), f"{path}.algebra")
        ambient = data.get("ambient", SL)
        if ambient not in (SL, GL):
            raise InputError(f"ambient must be SL or GL, got {ambient!r}", f"{path}.ambient")
        places_data = data.get("places")
        if isinstance(places_data, str):
            places = PlaceSet.parse(places_data)
        elif isinstance(places_data, dict):
            primes = places_data.get("primes", [])
            if not isinstance(primes, list):
                raise InputError("primes must be an array", f"{path}.places.primes")
            infty = places_data.get("infty", True)
            if not isinstance(infty, bool):
                raise InputError(f"infty must be true or false, got {infty!r}", f"{path}.places.infty")
            places = PlaceSet(
                infty,
                tuple(finite_place(p, f"{path}.places.primes[{i}]") for i, p in enumerate(primes)),
            )
        else:
            raise InputError("places must be a string or object", f"{path}.places")
        block = data.get("unipotent_block")
        if block is not None:
            if not isinstance(block, dict) or "n" not in block:
                raise InputError("unipotent_block needs an 'n'", f"{path}.unipotent_block")
            block = {
                "n": _as_int(block["n"], f"{path}.unipotent_block.n"),
                "pattern": block.get("pattern", LAST_COLUMN),
            }
        unit_source = data.get("unit_source", {"search": {"coord_bound": 3}})
        _check_unit_source(unit_source, f"{path}.unit_source")
        return PipelineRequest(algebra, ambient, places, block, unit_source)


def _as_int(value, path: str) -> int:
    """An integer from JSON (or an environment string), else an InputError."""
    try:
        return serialize.int_from_json(value)
    except ValueError:
        raise InputError(f"expected an integer, got {value!r}", path) from None


def positive_int(value, path: str) -> int:
    """An integer ≥ 1 (a box bound), else an InputError."""
    n = _as_int(value, path)
    if n < 1:
        raise InputError(f"expected an integer >= 1, got {n}", path)
    return n


def _check_unit_source(src, path: str):
    """{"provided": ...} (checked when read) or {"search": {"coord_bound": k}}."""
    if not isinstance(src, dict):
        raise InputError("unit_source must be an object", path)
    if "provided" in src and "search" in src:
        raise InputError("the request has two unit sources, 'search' and 'provided'", path)
    if "provided" in src:
        return
    params = src.get("search", {})
    if not isinstance(params, dict):
        raise InputError("unit_source.search must be an object", f"{path}.search")
    if "coord_bound" in params:
        positive_int(params["coord_bound"], f"{path}.search.coord_bound")


class CmaReport(NamedTuple):
    certificate: object
    generators: GeneratorSet | None
    sanity: dict | None
    caveats: list[str]
    unit_system: UnitSystem | None
    unit_certificate: object | None

    @property
    def verdict(self) -> str:
        return self.certificate.verdict

    def to_json(self) -> dict:
        out = {
            "schema": serialize.SCHEMA,
            "verdict": self.verdict,
            "certificate": serialize.certificate_to_json(self.certificate),
            "caveats": sorted(self.caveats),
            "generators": None,
            "sanity": None,
            "units": None,
        }
        if self.generators is not None:
            out["generators"] = serialize.generator_set_to_json(self.generators)
        if self.sanity is not None:
            out["sanity"] = serialize.sanity_to_json(self.sanity)
        if self.unit_system is not None:
            out["units"] = serialize.unit_system_to_json(self.unit_system)
        return out


def _certify(system: UnitSystem) -> tuple[UnitSystem, UnitCertificate]:
    ucert = verify_unit_system(system)
    if isinstance(ucert, DependenceWitness):
        raise AmpleToriError(f"unit system is dependent: {ucert.describe()}")
    return system, ucert


@functools.lru_cache(maxsize=MEMO_SIZE)
def _searched_units(
    e: EtaleAlgebra, s_primes: tuple[int, ...], coord_bound: int
) -> tuple[UnitSystem, UnitCertificate]:
    """The searched unit system and its certificate, both functions of the
    arguments (an EtaleAlgebra hashes as its factors and basis)."""
    return _certify(assemble_unit_system(e, s_primes, coord_bound))


def _verified_units(req: PipelineRequest) -> tuple[UnitSystem, UnitCertificate]:
    """The request's certified unit system; a searched one is computed once.

    The memo hands out copies bound to req.algebra, so a caller that edits a
    report leaves it intact. A provided system is never memoized, nor is a
    dependent system or an error, which propagate.
    """
    e, src, s_primes = req.algebra, req.unit_source, req.places.finite_primes
    if "provided" in src:
        path = "request.unit_source.provided"
        system = serialize.unit_system_from_json(e, src["provided"], path)
        if system.s_primes != s_primes:
            raise InputError(
                f"s_primes {list(system.s_primes)} differ from the request's finite "
                f"places {list(s_primes)}",
                f"{path}.s_primes",
            )
        if system.rank < (rank := s_unit_rank(e, s_primes)):
            raise InvalidUnitSystemError(
                f"unit system has rank {system.rank}, but the S-unit group has rank {rank}"
            )
        return _certify(system)
    coord_bound = int(src.get("search", {}).get("coord_bound", 3))
    system, ucert = _searched_units(e, s_primes, coord_bound)
    return (
        system._replace(algebra=e, free_generators=list(system.free_generators)),
        ucert._replace(caveats=list(ucert.caveats)),
    )


def _normalizer_matrices(e: EtaleAlgebra, ambient: str, full_system: UnitSystem):
    """Automorphism matrices, det-corrected into SL by a norm−(−1) unit.

    Norms are taken only when an automorphism of determinant −1 needs that
    correction."""
    out, caveats = [], []
    if e.num_factors != 1:
        return out, caveats
    t = full_system.torsion_generator
    torsion = (e.power(t, k) for k in range(1, full_system.torsion_order + 1))
    units = (u for part in (full_system.free_generators, torsion) for u in part)
    autos = [m for m in enumerate_automorphisms(e) if m != linalg.identity(e.n)]
    flips = [ambient == SL and linalg.int_det(m[0]) == -1 for m in autos]
    fixer = next((u for u in units if e.norm(u) == (-1, 1)), None) if any(flips) else None
    for m, flip in zip(autos, flips):
        if flip:
            if fixer is None:
                caveats = [  # once, however many automorphisms it concerns
                    "an order automorphism has determinant -1 and no unit of "
                    "norm -1 exists to correct it: the normalizer meets SL "
                    "only in the torus, so no normalizer generator is emitted"
                ]
                continue
            m = linalg._int_mul(m, e._int_rep(fixer))
        out.append(m)
    den = lcm(*[d for _, d in out])  # sorted as the rational matrices are
    out.sort(key=lambda m: tuple(tuple(x * (den // m[1]) for x in row) for row in m[0]))
    return out, caveats


def run_pipeline(req: PipelineRequest) -> CmaReport:
    """Build the torus, certify ampleness, emit a verified generator set.

    A non-ample verdict is a normal result (no generators); every upstream
    error propagates with its module of origin.
    """
    e = req.algebra
    e.require_order()
    block = req.unipotent_block
    if block is not None:
        if block.get("pattern", LAST_COLUMN) != LAST_COLUMN:
            raise UnsupportedError("only the last-column radical pattern is supported")
        if block["n"] != e.n + 1:
            raise UnsupportedError(
                "last-column block needs embedding dimension n+1 "
                f"(algebra degree {e.n}, requested {block['n']})"
            )
        if req.ambient != SL:
            raise UnsupportedError(
                "the block construction lands in SL (det is fixed by the "
                "last entry); request ambient SL"
            )
        torus = build_torus(e, GL)  # the Levi torus normalizing the radical
    else:
        torus = build_torus(e, req.ambient)
    cert = is_s_ample(torus, req.places)

    caveats: list[str] = []
    if cert.verdict != VERDICT_AMPLE:
        return CmaReport(cert, None, None, caveats, None, None)

    system, ucert = _verified_units(req)
    caveats.extend(ucert.caveats)

    gens = GeneratorSet(
        n=block["n"] if block else e.n,
        ring_primes=req.places.finite_primes,
        ambient=SL if (block or req.ambient == SL) else GL,
        torus_gens=[], torsion_gens=[], normalizer_gens=[], unipotent_gens=[], provenance={},
    )

    if block is None:
        emitted = norm_one_subgroup(system) if req.ambient == SL else system
        tag = {}
    else:
        emitted = system  # the norm-one torus of E × Q is the full unit group
        tag = {"block": "diag(pi(u), 1/N(u))"}
    normals, ncaveats = _normalizer_matrices(e, GL if block else req.ambient, system)
    caveats.extend(ncaveats)

    def emit(m: IntMat) -> IntMat:
        # in the block, the last entry 1/det m puts m into SL: for a unit u
        # this is diag(π(u), 1/N(u)), and it corrects a det −1 automorphism
        if block is None:
            return m
        rows, den = m
        return block_diag(m, (den ** len(rows), linalg.int_det(rows)))

    for i, u in enumerate(emitted.free_generators):
        gens.torus_gens.append(emit(e._int_rep(u)))
        gens.provenance[f"torus:{i}"] = {
            "kind": "unit",
            "coords": serialize.vector_to_json(u),
            **tag,
        }
    if emitted.torsion_order > 1:
        t = emitted.torsion_generator
        gens.torsion_gens.append(emit(e._int_rep(t)))
        gens.provenance["torsion:0"] = {
            "kind": "unit-torsion",
            "coords": serialize.vector_to_json(t),
            "order": emitted.torsion_order,
            **tag,
        }
    for i, m in enumerate(normals):
        gens.normalizer_gens.append(emit(m))
        gens.provenance[f"normalizer:{i}"] = {"kind": "automorphism"}
    if block is not None:
        for i in range(1, e.n + 1):
            gens.unipotent_gens.append(elementary_matrix(block["n"], i, block["n"]))
            gens.provenance[f"unipotent:{i - 1}"] = {"kind": "elementary", "i": i, "j": block["n"]}

    sanity = group_sanity(gens, e if block is None else None)
    if not sanity["all_pass"]["pass"]:
        failing = [k for k, v in sanity.items() if not v["pass"]]
        raise AmpleToriError(f"emitted generator set fails sanity checks: {failing}")
    return CmaReport(cert, gens, sanity, caveats, emitted, ucert)


# ---------------------------------------------------------------------------
# the verify-paper reproduction suite
# ---------------------------------------------------------------------------


def corpus_dir() -> Path:
    """The golden corpus; importlib.resources and pathlib load here, not on import."""
    import importlib.resources
    from pathlib import Path

    return Path(str(importlib.resources.files("ampletori").joinpath("corpus")))


def _load_golden(directory: Path, name: str) -> dict:
    path = directory / name
    return serialize.loads(path.read_text(), str(path))


def _matrices_equal(actual: list[IntMat], expected_json: list) -> tuple[bool, str]:
    expected = [serialize.matrix_from_json(m) for m in expected_json]
    if actual == expected:
        return True, ""
    return False, (
        f"matrices differ: got {[serialize.matrix_to_json(m) for m in actual]}, "
        f"expected {expected_json}"
    )


def _verify_reproduction(golden: dict) -> dict:
    req = PipelineRequest.from_json(golden["request"])
    e = req.algebra
    exp = golden["expected"]
    problems = []
    if "galois" in exp:
        tag = galois_group_small(e.factors[0])
        if tag.group != exp["galois"]:
            problems.append(f"galois {tag.group} != {exp['galois']}")
    if "signature" in exp:
        sig = signature(e.factors[0])
        if [sig.r1, sig.r2] != exp["signature"]:
            problems.append(f"signature ({sig.r1},{sig.r2}) != {exp['signature']}")
    report = run_pipeline(req)
    caveats = list(report.caveats)
    detail = "bit-exact"
    if report.verdict != exp["verdict"]:
        problems.append(f"verdict {report.verdict} != {exp['verdict']}")
    if report.verdict == VERDICT_AMPLE:
        for kind in ("torus", "torsion", "normalizer", "unipotent"):
            if kind in exp:
                ok, msg = _matrices_equal(getattr(report.generators, f"{kind}_gens"), exp[kind])
                if not ok:
                    problems.append(f"{kind}: {msg}")
        if "unit_rank" in exp and report.unit_system.rank != exp["unit_rank"]:
            problems.append(f"unit rank {report.unit_system.rank} != {exp['unit_rank']}")
        if "imported" in golden:
            detail = _check_imported(req, report, golden["imported"], problems, caveats)
    for place, rank in exp.get("local_ranks", {}).items():
        got = report.certificate.local_ranks.get(place)
        if got != rank:
            problems.append(f"local rank at {place}: {got} != {rank}")
    for neg in golden.get("negative_places", []):
        neg_req = PipelineRequest.from_json({**golden["request"], "places": neg})
        neg_report = run_pipeline(neg_req)
        if neg_report.verdict == VERDICT_AMPLE:
            problems.append(f"S={neg} unexpectedly ample")
        if neg_report.generators is not None:
            problems.append(f"S={neg} emitted generators on a non-ample verdict")
    return {
        "pass": not problems,
        "detail": "; ".join(problems) if problems else detail,
        "caveats": sorted(set(caveats)),
    }


def _check_imported(req, report, imported: dict, problems: list, caveats: list) -> str:
    """Published matrices in an unstated order basis, up to GL_n(Z)-conjugacy.

    They must pass the sanity checks; a conjugator onto our regular
    representation reveals their order basis, against which the normalizer
    is verified. Without one, only characteristic polynomials are compared.
    """
    e = req.algebra
    units, torsion, autos = (
        [serialize.matrix_from_json(m) for m in imported[kind]]
        for kind in ("torus", "torsion", "normalizer")
    )
    provenance = {"torsion:0": {"order": report.unit_system.torsion_order}}
    imported_set = GeneratorSet(
        e.n, req.places.finite_primes, req.ambient, units, torsion, autos, [], provenance
    )
    sanity = group_sanity(imported_set)
    if not sanity["all_pass"]["pass"]:
        failing = [k for k, v in sanity.items() if not v["pass"]]
        problems.append(f"imported matrices fail sanity: {failing}")

    found = conjugacy.find_simultaneous_conjugator(e, units, autos)
    if found is None:
        caveats.append(
            f"conjugacy: no GL_{e.n}(Z) conjugator found; every order element with the "
            "first unit target's characteristic polynomial was tried, unimodular points "
            f"searched within coeff_box={conjugacy.COEFF_BOX}; imported matrices "
            "verified by sanity checks and characteristic polynomials only"
        )
        for t in units:
            if not conjugacy.order_elements_with_charpoly(e, t):
                problems.append("an imported matrix has a charpoly matching no order unit")
        return "weaker certificate"
    basis_algebra = EtaleAlgebra(e.factors, found.discovered_basis)
    if not basis_algebra.is_order()[0]:
        problems.append("discovered basis is not an order basis")
    for w in autos:
        w = linalg.transpose(w) if found.transposed else w
        ok, witness = verify_normalization(basis_algebra, w)
        if not ok:
            problems.append(f"imported normalizer fails verify_normalization at j={witness}")
    if found.transposed:
        caveats.append("imported matrices match the transposed (row-coordinate) convention")
    return "conjugator found"


def verify_paper_examples(directory: Path | None = None) -> list[dict]:
    """Run the four canned reproduction requests from the golden corpus.

    Returns one row per example; failures are rows with pass=False, never
    exceptions (a corrupted golden file fails its row with a diff).
    """
    from pathlib import Path

    directory = Path(directory) if directory is not None else corpus_dir()
    rows = []
    for name in ("ex51.json", "ex52.json", "ex53.json", "ex54.json"):
        row = {"example": f"5.{name[3]}"}
        try:
            row.update(_verify_reproduction(_load_golden(directory, name)))
        except Exception as exc:  # noqa: BLE001 - failures become report rows
            row.update({"pass": False, "detail": f"{type(exc).__name__}: {exc}", "caveats": []})
        rows.append(row)
    return rows
