import copy
import importlib.util
import json
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

from ampletori import linalg, matgroups, pipeline, serialize
from ampletori.errors import (
    IndependenceUndecidedError,
    InputError,
    InvalidUnitSystemError,
    UnsupportedError,
)
from ampletori.cli import main
from ampletori.conjugacy import find_simultaneous_conjugator, order_elements_with_charpoly
from ampletori.matgroups import group_sanity
from ampletori.pipeline import (
    PipelineRequest,
    corpus_dir,
    run_pipeline,
    verify_paper_examples,
)

from test_memos import fresh_memos

CUBIC_REQ = {
    "algebra": {"factors": [["-1", "1", "0", "1"]]},
    "ambient": "SL",
    "places": "inf",
    "unit_source": {"search": {"coord_bound": 3}},
}
GAUSS_REQ = {
    "algebra": {"factors": [["1", "0", "1"]]},
    "ambient": "SL",
    "places": "inf,5",
    "unit_source": {"search": {"coord_bound": 3}},
}


def test_run_pipeline_cubic():
    report = run_pipeline(PipelineRequest.from_json(CUBIC_REQ))
    assert report.verdict == "S-ample"
    assert serialize.matrix_to_json(report.generators.torus_gens[0]) == [
        ["0", "0", "1"],
        ["1", "0", "-1"],
        ["0", "1", "0"],
    ]
    assert report.generators.torsion_gens == []
    assert report.generators.normalizer_gens == []
    assert report.unit_system.rank == 1


def test_run_pipeline_gauss_provided_units():
    req = dict(GAUSS_REQ)
    req["unit_source"] = {
        "provided": {
            "torsion": {"element": ["0", "1"], "order": 4},
            "free": [["2", "1"], ["2", "-1"]],
            "s_primes": [5],
        }
    }
    report = run_pipeline(PipelineRequest.from_json(req))
    assert report.verdict == "S-ample"
    assert serialize.matrix_to_json(report.generators.torus_gens[0]) == [
        ["4/5", "-3/5"],
        ["3/5", "4/5"],
    ]
    assert serialize.matrix_to_json(report.generators.torsion_gens[0]) == [
        ["0", "-1"],
        ["1", "0"],
    ]


def test_non_ample_emits_no_generators():
    req = dict(GAUSS_REQ)
    req["places"] = "inf"
    report = run_pipeline(PipelineRequest.from_json(req))
    assert report.verdict == "not-S-ample"
    assert report.generators is None and report.sanity is None


def test_reports_are_deterministic():
    a = run_pipeline(PipelineRequest.from_json(GAUSS_REQ)).to_json()
    b = run_pipeline(PipelineRequest.from_json(GAUSS_REQ)).to_json()
    assert serialize.dumps(a) == serialize.dumps(b)


def test_report_sanity_round_trip():
    report = run_pipeline(PipelineRequest.from_json(GAUSS_REQ))
    fresh = group_sanity(report.generators, report.unit_system.algebra)
    assert serialize.sanity_to_json(fresh) == serialize.sanity_to_json(report.sanity)


def test_block_request_validation():
    req = dict(CUBIC_REQ)
    req["unipotent_block"] = {"n": 5, "pattern": "last-column"}
    with pytest.raises(UnsupportedError):
        run_pipeline(PipelineRequest.from_json(req))
    req["unipotent_block"] = {"n": 4, "pattern": "full"}
    with pytest.raises(UnsupportedError):
        run_pipeline(PipelineRequest.from_json(req))


def test_malformed_inputs_carry_json_paths():
    with pytest.raises(InputError) as err:
        PipelineRequest.from_json({"algebra": {"factors": [["x"]]}})
    assert "factors" in err.value.path
    with pytest.raises(InputError):
        PipelineRequest.from_json({"algebra": {"factors": [["-1", "1", "0", "1"]]}, "places": 7})


@pytest.mark.parametrize(
    "field, value, path",
    [
        ("places", {"primes": ["x"]}, "request.places.primes[0]"),
        (
            "unit_source",
            {"search": {"coord_bound": "abc"}},
            "request.unit_source.search.coord_bound",
        ),
        ("unipotent_block", {"n": "x"}, "request.unipotent_block.n"),
        ("unit_source", [1], "request.unit_source"),
        ("unit_source", {"search": {"coord_bound": 0}}, "request.unit_source.search.coord_bound"),
        ("unit_source", {"search": {"coord_bound": -2}}, "request.unit_source.search.coord_bound"),
        ("places", {"primes": [5, 4]}, "request.places.primes[1]"),
    ],
)
def test_malformed_request_fields_are_input_errors(field, value, path):
    with pytest.raises(InputError) as err:
        PipelineRequest.from_json({**CUBIC_REQ, field: value})
    assert err.value.path == path


GAUSS_SYSTEM = {"torsion": {"element": ["0", "1"], "order": 4}, "free": [["2", "1"]], "s_primes": [5]}


@pytest.mark.parametrize(
    "field, value, path, message",
    [
        ("places", {"infty": "no", "primes": [5]}, "request.places.infty",
         "infty must be true or false, got 'no'"),
        ("places", {"infty": 1}, "request.places.infty", "infty must be true or false, got 1"),
        ("schema", "cma/2", "request.schema", "schema must be 'cma/1', got 'cma/2'"),
        ("schema", None, "request.schema", "schema must be 'cma/1', got None"),
        ("unit_source", {"search": {"coord_bound": 3}, "provided": GAUSS_SYSTEM},
         "request.unit_source", "the request has two unit sources, 'search' and 'provided'"),
        ("coord_bound", 3, "request.coord_bound",
         "unknown request field 'coord_bound'; the fields are "
         "schema, algebra, ambient, places, unipotent_block, unit_source"),
    ],
)
def test_the_request_is_read_strictly(field, value, path, message):
    with pytest.raises(InputError) as err:
        PipelineRequest.from_json({**GAUSS_REQ, field: value})
    assert (err.value.path, str(err.value)) == (path, message)


def test_the_strict_reads_accept_a_well_formed_request():
    req = PipelineRequest.from_json({**GAUSS_REQ, "schema": "cma/1", "places": {"infty": True}})
    assert req.places.finite_primes == ()
    provided = {**GAUSS_REQ, "unit_source": {"provided": GAUSS_SYSTEM}}
    assert PipelineRequest.from_json(provided).unit_source == {"provided": GAUSS_SYSTEM}
    with pytest.raises(UnsupportedError):
        PipelineRequest.from_json({**GAUSS_REQ, "places": {"infty": False, "primes": [5]}})


@pytest.mark.parametrize(
    "provided",
    [
        {"torsion": {"element": ["-1", "0", "0"], "order": 2.5}, "free": []},
        {"torsion": {"element": ["-1", "0", "0"]}, "free": []},
    ],
)
def test_provided_unit_system_errors_carry_the_request_path(provided):
    req = PipelineRequest.from_json({**CUBIC_REQ, "unit_source": {"provided": provided}})
    with pytest.raises(InputError, match="bad unit system") as err:
        run_pipeline(req)
    assert err.value.path == "request.unit_source.provided"


def _provided(req, free, s_primes):
    torsion = {"element": ["0", "1"], "order": 4}
    unit_source = {"provided": {"torsion": torsion, "free": free, "s_primes": s_primes}}
    return PipelineRequest.from_json({**req, "unit_source": unit_source})


@pytest.mark.parametrize(
    "ambient, places, free, s_primes",
    [
        # one torus generator where the searched system has four
        ("GL", "inf,5,13", [["2", "1"]], [5]),
        # no torus generator, though (4+3i)/5 lies in the norm-one group
        ("SL", "inf,5", [], []),
        ("SL", "inf,5", [["2", "1"], ["2", "-1"]], [5, 13]),
    ],
)
def test_provided_s_primes_must_be_the_requests_finite_places(ambient, places, free, s_primes):
    req = _provided({**GAUSS_REQ, "ambient": ambient, "places": places}, free, s_primes)
    with pytest.raises(InputError, match=r"^s_primes \[.*\] differ from the request's") as err:
        run_pipeline(req)
    assert err.value.path == "request.unit_source.provided.s_primes"


def test_provided_unit_system_below_the_s_unit_rank_is_refused():
    # 2+i alone is independent, but the S-units of Z[i][1/5] have rank 2
    req = _provided(GAUSS_REQ, [["2", "1"]], [5])
    with pytest.raises(InvalidUnitSystemError, match="has rank 1, but the S-unit group has rank 2"):
        run_pipeline(req)
    report = run_pipeline(_provided(GAUSS_REQ, [["2", "1"], ["2", "-1"]], [5]))
    assert report.unit_certificate.rank == 2


def test_provided_s_prime_of_one_is_an_input_error_not_a_hang():
    # [5, 1] looped forever in strip_primes; [5, 0] divided by zero
    for s_primes in ([5, 1], [5, 0]):
        with pytest.raises(InputError, match="is not a prime") as err:
            run_pipeline(_provided(GAUSS_REQ, [["2", "1"], ["2", "-1"]], s_primes))
        assert err.value.path == "request.unit_source.provided.s_primes[1]"


@pytest.mark.parametrize("d", [2, 3])
def test_real_quadratic_block_keeps_normalizer_in_sl(d):
    # x ↦ -x has det -1; its block generator is diag(m, -1), not diag(m, 1)
    req = {
        **CUBIC_REQ,
        "algebra": {"factors": [[str(-d), "0", "1"]]},
        "unipotent_block": {"n": 3, "pattern": "last-column"},
    }
    report = run_pipeline(PipelineRequest.from_json(req))
    assert report.sanity["all_pass"]["pass"]
    normals = report.generators.normalizer_gens
    assert normals == [linalg.matrix([[1, 0, 0], [0, -1, 0], [0, 0, -1]])]


Z2I = {"factors": [["1", "0", "1"]], "order_basis": [["1", "0"], ["0", "2"]]}


def test_z2i_conjugation_needs_a_norm_minus_one_unit_in_sl():
    # x ↦ −x is an automorphism of Z[2i] with determinant −1, and no S-unit
    # of Z[2i][1/5] has norm −1 (a² + 4b² > 0), so SL gets no normalizer
    report = run_pipeline(PipelineRequest.from_json({**GAUSS_REQ, "algebra": Z2I}))
    assert report.verdict == "S-ample"
    assert report.generators.normalizer_gens == []
    assert (
        "an order automorphism has determinant -1 and no unit of norm -1 exists to "
        "correct it: the normalizer meets SL only in the torus, so no normalizer "
        "generator is emitted"
    ) in report.caveats
    assert not any("root search" in c for c in report.caveats)


def test_z2i_conjugation_is_a_normalizer_generator_in_gl():
    req = {**GAUSS_REQ, "algebra": Z2I, "ambient": "GL"}
    report = run_pipeline(PipelineRequest.from_json(req))
    assert report.sanity["all_pass"]["pass"]
    assert report.generators.normalizer_gens == [linalg.matrix([[1, 0], [0, -1]])]


def test_each_automorphism_is_checked_once_when_it_is_found(monkeypatch):
    # x⁴ − 5x² + 5 has Galois group C4: four roots, four automorphisms, each
    # checked when enumerated and never again, by the pipeline or on a repeat
    fresh_memos(monkeypatch, matgroups._automorphisms)
    checked = []
    check = matgroups._check_automorphism

    def counting_check(e, mat):
        checked.append(mat)
        return check(e, mat)

    monkeypatch.setattr(matgroups, "_check_automorphism", counting_check)
    req = {**CUBIC_REQ, "algebra": {"factors": [["5", "0", "-5", "0", "1"]]}, "ambient": "GL"}
    first = run_pipeline(PipelineRequest.from_json(req))
    assert len(checked) == 4 and len(first.generators.normalizer_gens) == 3
    run_pipeline(PipelineRequest.from_json(req))
    assert len(checked) == 4


def test_verify_paper_examples_all_pass():
    rows = verify_paper_examples()
    assert [r["example"] for r in rows] == ["5.1", "5.2", "5.3", "5.4"]
    assert all(r["pass"] for r in rows), rows


def test_corrupted_golden_fails_with_diff(tmp_path):
    src = corpus_dir()
    for name in ("ex51.json", "ex52.json", "ex53.json", "ex54.json"):
        shutil.copy(src / name, tmp_path / name)
    data = json.loads((tmp_path / "ex51.json").read_text())
    data["request"]["algebra"]["factors"][0] = ["-1", "2", "0", "1"]  # corrupt the polynomial
    (tmp_path / "ex51.json").write_text(json.dumps(data))
    rows = verify_paper_examples(tmp_path)
    row51 = next(r for r in rows if r["example"] == "5.1")
    assert not row51["pass"]
    assert "differ" in row51["detail"] or "!=" in row51["detail"]
    assert all(r["pass"] for r in rows if r["example"] != "5.1")


def _corpus_with_ex52(tmp_path, edit):
    for name in ("ex51.json", "ex52.json", "ex53.json", "ex54.json"):
        shutil.copy(corpus_dir() / name, tmp_path / name)
    data = json.loads((tmp_path / "ex52.json").read_text())
    edit(data["imported"])
    (tmp_path / "ex52.json").write_text(json.dumps(data))
    return {r["example"]: r for r in verify_paper_examples(tmp_path)}


def test_ex52_in_the_column_convention_needs_no_transpose(tmp_path):
    def transpose_all(imported):
        for kind in ("torus", "torsion", "normalizer"):
            imported[kind] = [[list(col) for col in zip(*m)] for m in imported[kind]]

    rows = _corpus_with_ex52(tmp_path, transpose_all)
    assert rows["5.2"]["pass"] and rows["5.2"]["detail"] == "conjugator found"
    assert not any("transposed" in c for c in rows["5.2"]["caveats"])


def test_an_altered_imported_normalizer_fails_only_its_row(tmp_path):
    def alter(imported):
        imported["normalizer"][0][1][0] = "-15"

    rows = _corpus_with_ex52(tmp_path, alter)
    assert [e for e, r in rows.items() if not r["pass"]] == ["5.2"]
    assert rows["5.2"]["detail"] == "imported matrices fail sanity: ['normalizer', 'all_pass']"


def test_a_singular_imported_normalizer_fails_its_row_by_sanity(tmp_path):
    def zero_row(imported):
        imported["normalizer"][0][0] = ["0", "0", "0", "0"]

    rows = _corpus_with_ex52(tmp_path, zero_row)
    assert [e for e, r in rows.items() if not r["pass"]] == ["5.2"]
    assert rows["5.2"]["detail"] == (
        "imported matrices fail sanity: ['determinants', 's_integrality', 'normalizer', 'all_pass']"
    )


def test_a_ragged_imported_matrix_fails_its_row_without_a_traceback(tmp_path, capsys):
    def ragged(imported):
        imported["torus"][0][1] = imported["torus"][0][1][:3]

    rows = _corpus_with_ex52(tmp_path, ragged)
    assert [e for e, r in rows.items() if not r["pass"]] == ["5.2"]
    assert rows["5.2"]["detail"] == "ValueError: ragged matrix"
    assert main(["--json", "verify-paper", "--corpus", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    row = next(r for r in json.loads(out)["rows"] if r["example"] == "5.2")
    assert row["detail"] == "ValueError: ragged matrix"


def test_without_a_conjugator_the_caveat_names_its_stage_and_bound(monkeypatch):
    monkeypatch.setattr("ampletori.conjugacy.find_simultaneous_conjugator", lambda *a: None)
    row = next(r for r in verify_paper_examples() if r["example"] == "5.2")
    assert row["pass"] and row["detail"] == "weaker certificate"
    assert (
        "conjugacy: no GL_4(Z) conjugator found; every order element with the first unit "
        "target's characteristic polynomial was tried, unimodular points searched within "
        "coeff_box=20; imported matrices verified by sanity checks and characteristic "
        "polynomials only"
    ) in row["caveats"]


def test_ex52_conjugator_is_pinned():
    golden = json.loads((corpus_dir() / "ex52.json").read_text())
    units = [serialize.matrix_from_json(m) for m in golden["imported"]["torus"]]
    autos = [serialize.matrix_from_json(m) for m in golden["imported"]["normalizer"]]
    e = PipelineRequest.from_json(golden["request"]).algebra
    found = find_simultaneous_conjugator(e, units, autos)
    assert found.transposed
    assert serialize.matrix_to_json(found.conjugator) == [
        ["-1", "-2", "-4", "-6"], ["0", "1", "4", "16"], ["0", "2", "7", "26"], ["0", "4", "12", "41"]
    ]
    assert [serialize.vector_to_json(u) for u in found.unit_elements] == [
        ["-2", "1", "0", "0"], ["-1", "9", "-6", "1"], ["0", "5", "-5", "1"]
    ]


def test_conjugator_candidates_are_the_order_elements_with_the_charpoly():
    z2i = PipelineRequest.from_json({**GAUSS_REQ, "algebra": Z2I}).algebra
    rotation = linalg.matrix([[0, -1], [1, 0]])  # charpoly x² + 1: ±i, not in Z[2i]
    assert order_elements_with_charpoly(z2i, rotation) == []
    two_i = z2i.regular_rep(((0, 1), 1))  # charpoly x² + 4
    assert order_elements_with_charpoly(z2i, two_i) == [
        ((0, -1), 1), ((0, 1), 1)
    ]
    half_two = linalg.matrix([[Fraction(1, 2), 0], [0, 2]])  # charpoly x² − 5x/2 + 1
    assert order_elements_with_charpoly(z2i, half_two) == []
    assert find_simultaneous_conjugator(z2i, [half_two], []) is None


def test_conjugator_is_none_when_the_first_charpoly_is_not_squarefree():
    # 2·I has charpoly (x − 2)²: its one candidate, 2, is not primitive
    gauss = PipelineRequest.from_json(GAUSS_REQ).algebra
    two = linalg.matrix([[2, 0], [0, 2]])
    assert order_elements_with_charpoly(gauss, two) == [((2, 0), 1)]
    assert find_simultaneous_conjugator(gauss, [two], []) is None
    assert find_simultaneous_conjugator(gauss, [two, gauss.regular_rep(((0, 1), 1))], []) is None


GAUSS_GL_REQ = {**GAUSS_REQ, "ambient": "GL"}


@pytest.fixture
def fresh_unit_memo(monkeypatch):
    fresh_memos(monkeypatch, pipeline._searched_units)
    return lambda: pipeline._searched_units.cache_info().currsize


def test_editing_a_report_leaves_the_unit_memo_intact(fresh_unit_memo):
    # under GL the report's unit system is the memoized group itself, copied
    first = run_pipeline(PipelineRequest.from_json(GAUSS_GL_REQ))
    expected = serialize.dumps(first.to_json())
    caveats = list(first.unit_certificate.caveats)
    first.unit_system.free_generators.clear()
    first.unit_certificate.caveats.append("edited")
    for req in (GAUSS_GL_REQ, GAUSS_REQ, GAUSS_GL_REQ):
        request = PipelineRequest.from_json(req)
        again = run_pipeline(request)
        assert again.unit_certificate.caveats == caveats
        # bound to the request's algebra, which the algebra cache shares
        assert again.unit_system.algebra is request.algebra
    assert serialize.dumps(again.to_json()) == expected
    assert fresh_unit_memo() == 1


def test_provided_units_and_errors_are_not_memoized(fresh_unit_memo):
    searched = run_pipeline(PipelineRequest.from_json(GAUSS_GL_REQ))
    provided = {
        **GAUSS_GL_REQ,
        "unit_source": {
            "provided": {
                "torsion": {"element": ["0", "1"], "order": 4},
                "free": [["3", "4"], ["2", "-1"]],  # (2+i)^2 and 2-i
                "s_primes": [5],
            }
        },
    }
    report = run_pipeline(PipelineRequest.from_json(provided))
    assert report.unit_system.free_generators == [((3, 4), 1), ((2, -1), 1)]
    assert report.unit_system.free_generators != searched.unit_system.free_generators
    # no unit of infinite order lies in the box of sup-norm 3: an error
    no_units = {
        "algebra": {"factors": [["-2", "0", "1"]], "order_basis": [["1", "5"], ["0", "1"]]},
        "ambient": "SL",
        "places": "inf",
        "unit_source": {"search": {"coord_bound": 3}},
    }
    for _ in range(2):
        with pytest.raises(IndependenceUndecidedError, match="sup-norm <= 3"):
            run_pipeline(PipelineRequest.from_json(no_units))
    assert fresh_unit_memo() == 1


def _session_warm_ops():
    """The benchmark's 24 session-warm ops at seed 1 (ampbench/workloads.py)."""
    path = Path(__file__).resolve().parent.parent / "ampbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("ampbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build("session-warm", 1)


def test_no_op_edits_a_cached_algebra(monkeypatch):
    # requests on the same (factors, order basis) share one EtaleAlgebra, so
    # no op may change one: its fields are the same after all 24 ops
    fresh_memos(monkeypatch, serialize._algebra)
    ops = _session_warm_ops()
    requests = [op["request"] for op in ops]
    algebras = [PipelineRequest.from_json(req).algebra for req in requests]
    assert len(ops) == 24
    assert serialize._algebra.cache_info().currsize == len({id(e) for e in algebras}) < 24
    before = {id(e): copy.deepcopy(vars(e)) for e in algebras}
    for req in requests:
        run_pipeline(PipelineRequest.from_json(req))
    for e in algebras:
        assert vars(e) == before[id(e)]
    again = [PipelineRequest.from_json(req).algebra for req in requests]
    assert all(a is e for a, e in zip(again, algebras))


def test_a_failed_algebra_build_is_not_cached(monkeypatch):
    fresh_memos(monkeypatch, serialize._algebra)
    reducible = {"factors": [["-1", "0", "1"]], "order_basis": None}
    for _ in range(2):
        with pytest.raises(InputError, match="reducible"):
            serialize.algebra_from_json(reducible)
    assert serialize._algebra.cache_info().currsize == 0
