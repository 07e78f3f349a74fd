"""The records are NamedTuples: immutable where they were frozen, and no two
built the program's way share a list or dict.

The frozen records refuse assignment to a field or to a new attribute, and
keep their value. The records that hold lists and dicts take them at
construction, so two requests, reports or certificates never alias one.
"""

import pytest

from ampletori import pipeline, units
from ampletori.errors import InputError, UnsupportedError
from ampletori.etale import EtaleAlgebra
from ampletori.places import decomposition_profile, signature, standard_tag
from ampletori.pipeline import PipelineRequest, run_pipeline
from ampletori.polynomials import QPoly
from ampletori.realsplit import root_disks
from ampletori.torus import GL, SL, PlaceSet, TorusDatum, build_torus, decompose_module, is_s_ample

from test_memos import fresh_memos

GAUSS = EtaleAlgebra([QPoly([1, 0, 1])])
QUARTIC = EtaleAlgebra([QPoly([1, 0, 0, 0, 1])])  # x^4 + 1, Galois group V4
GAUSS_REQ = {"algebra": {"factors": [["1", "0", "1"]]}, "ambient": "SL", "places": "inf,5"}


def _frozen_records():
    tag = standard_tag("S3")
    column = units.build_log_embedding(GAUSS, [((2, 1), 1)], (5,)).columns[-1]
    return [
        signature(QPoly([-2, 0, 1])),
        tag.characters[-1],
        tag,
        decomposition_profile(QPoly([1, 0, 1]), standard_tag("C2"), 5),
        root_disks(QPoly([-2, 0, 1]), 64)[0],
        PlaceSet(True, (5, 13)),
        build_torus(GAUSS, GL),
        decompose_module(build_torus(QUARTIC, SL))[0],
        column,
    ]


@pytest.mark.parametrize("record", _frozen_records(), ids=lambda r: type(r).__name__)
def test_a_frozen_record_refuses_assignment_and_keeps_its_value(record):
    before = tuple(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(record) == before
    assert all(getattr(record, f) is v for f, v in zip(record._fields, before))


def test_frozen_records_cover_every_former_frozen_class():
    names = {type(r).__name__ for r in _frozen_records()}
    assert names == {
        "Signature", "RationalCharacter", "GaloisTag", "PlaceProfile", "RootDisk",
        "PlaceSet", "TorusDatum", "Component", "LogColumn",
    }


def test_records_are_tuples_of_their_fields():
    s = signature(QPoly([-2, 0, 1]))
    assert s == (2, 0) and hash(s) == hash((2, 0)) and repr(s) == "Signature(r1=2, r2=0)"
    assert s._replace(r2=1).degree == 4


def _containers(record):
    return [v for v in record if isinstance(v, (list, dict))]


def _assert_disjoint(a, b):
    ids_a = {id(v) for v in _containers(a)}
    assert ids_a and not ids_a & {id(v) for v in _containers(b)}


@pytest.fixture
def fresh_unit_memo(monkeypatch):
    fresh_memos(monkeypatch, pipeline._searched_units)


def test_two_reports_share_no_list_or_dict(fresh_unit_memo):
    # the second run hits the unit memo, which hands out copies
    first, second = (run_pipeline(PipelineRequest.from_json(GAUSS_REQ)) for _ in range(2))
    assert first.to_json() == second.to_json()
    _assert_disjoint(first.generators, second.generators)
    _assert_disjoint(first.unit_certificate, second.unit_certificate)
    _assert_disjoint(first.unit_system, second.unit_system)
    first.generators.torus_gens.append(None)
    first.unit_certificate.caveats.append("edited")
    assert None not in second.generators.torus_gens
    assert "edited" not in second.unit_certificate.caveats


def test_two_requests_without_a_unit_source_share_no_dict():
    a, b = PipelineRequest.from_json(GAUSS_REQ), PipelineRequest.from_json(GAUSS_REQ)
    assert a.unit_source == b.unit_source == {"search": {"coord_bound": 3}}
    _assert_disjoint(a, b)
    a.unit_source["search"]["coord_bound"] = 5
    assert b.unit_source == {"search": {"coord_bound": 3}}


def test_submodule_witnesses_share_no_dict():
    t = build_torus(QUARTIC, SL)
    first, second = (is_s_ample(t, PlaceSet(True, (17,))) for _ in range(2))
    witnesses = first.submodules + second.submodules
    assert len(witnesses) == 2 * 7  # the proper subsets of three sign components
    assert len({id(w.local_ranks) for w in witnesses}) == len(witnesses)
    _assert_disjoint(first, second)


def test_place_set_validates_sorts_and_dedupes():
    with pytest.raises(UnsupportedError, match="real place"):
        PlaceSet(False, (5,))
    with pytest.raises(InputError, match="not a prime"):
        PlaceSet(True, (5, 6))
    s = PlaceSet(True, (13, 5, 13))
    assert s.finite_primes == (5, 13) and s == PlaceSet(include_infty=True, finite_primes=(5, 13))
    assert str(s) == "inf,5,13" and s.places() == ["inf", 5, 13]


def test_torus_datum_rejects_an_unknown_ambient():
    with pytest.raises(UnsupportedError, match="'PGL' not supported"):
        TorusDatum("PGL", (standard_tag("C2"),))
    assert TorusDatum(GL, (standard_tag("C2"),)).algebra is None
