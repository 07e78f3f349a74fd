import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ampletori
from ampletori import pipeline, serialize
from ampletori.cli import main
from oracles import oracle_dumps
from test_memos import fresh_memos

GAUSS_ALGEBRA = {"factors": [["1", "0", "1"]], "order_basis": None}
CUBIC_ALGEBRA = {"factors": [["-1", "1", "0", "1"]], "order_basis": None}


@pytest.fixture
def gauss_file(tmp_path):
    p = tmp_path / "gaussian.json"
    p.write_text(json.dumps(GAUSS_ALGEBRA))
    return str(p)


@pytest.fixture
def cubic_file(tmp_path):
    p = tmp_path / "cubic.json"
    p.write_text(json.dumps(CUBIC_ALGEBRA))
    return str(p)


def test_check_ample_exit_codes(gauss_file, capsys):
    assert main(["check-ample", "--algebra", gauss_file, "--ambient", "SL", "--places", "inf,5"]) == 0
    assert main(["check-ample", "--algebra", gauss_file, "--ambient", "SL", "--places", "inf"]) == 2


def test_check_ample_json_certificate(gauss_file, capsys):
    code = main(["--json", "check-ample", "--algebra", gauss_file, "--places", "inf,5"])
    out = capsys.readouterr().out
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "S-ample"
    assert cert["local_ranks"] == {"inf": 0, "p:5": 1}


def test_local_rank_cli(cubic_file, capsys):
    assert main(["local-rank", "--algebra", cubic_file, "--place", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_units_search_cli(gauss_file, capsys):
    code = main([
        "--json", "units", "search", "--algebra", gauss_file, "--bound", "2",
        "--norms", "1,-1",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 4


def test_units_verify_cli(gauss_file, tmp_path, capsys):
    sysfile = tmp_path / "system.json"
    sysfile.write_text(json.dumps({
        "torsion": {"element": ["0", "1"], "order": 4},
        "free": [["4/5", "3/5"]],
        "s_primes": [5],
    }))
    code = main([
        "--json", "units", "verify", "--algebra", gauss_file,
        "--system", str(sysfile), "--s-primes", "5",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verified"] and data["rank"] == 1


@pytest.mark.parametrize("place", ["4", "0", "1", "-5", "xyz", "5.0"])
def test_local_rank_place_reads_like_a_request_place(place, cubic_file, capsys):
    # the flag goes through the reader of a request's places: 4 was an
    # UnsupportedError with no path
    assert main(["--json", "local-rank", "--algebra", cubic_file, "--place", place]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["message"] == f"finite place {place} is not a prime"
    assert (err["module"], err["path"]) == ("cli", "place")


@pytest.mark.parametrize("place", ["inf", "infty", "oo"])
def test_local_rank_reads_every_spelling_of_the_real_place(place, cubic_file, capsys):
    assert main(["local-rank", "--algebra", cubic_file, "--place", place]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize(
    "flags, code",
    [([], 0), (["--s-primes", "5"], 0), (["--s-primes", "5,5"], 0), (["--s-primes", "13"], 1),
     (["--s-primes", "5,13"], 1), (["--s-primes", ""], 1)],
)
def test_units_verify_s_primes_must_match_the_system(flags, code, gauss_file, tmp_path, capsys):
    sysfile = tmp_path / "system.json"
    sysfile.write_text(json.dumps({
        "torsion": {"element": ["0", "1"], "order": 4},
        "free": [["4/5", "3/5"]],
        "s_primes": [5],
    }))
    argv = ["--json", "units", "verify", "--algebra", gauss_file, "--system", str(sysfile)]
    assert main(argv + flags) == code
    out = json.loads(capsys.readouterr().out)
    if code:
        assert out["error"]["path"] == "--s-primes"
        assert out["error"]["message"].endswith("differ from the system's s_primes [5]")
    else:
        assert out["verified"] and out["rank"] == 1


def test_units_verify_s_prime_of_one_is_an_input_error(gauss_file, tmp_path, capsys):
    # [5, 1] looped forever in strip_primes
    sysfile = tmp_path / "system.json"
    sysfile.write_text(json.dumps({
        "torsion": {"element": ["0", "1"], "order": 4}, "free": [], "s_primes": [5, 1],
    }))
    argv = ["--json", "units", "verify", "--algebra", gauss_file, "--system", str(sysfile)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["message"] == "finite place 1 is not a prime"
    assert err["path"] == f"{sysfile}.s_primes[1]"


@pytest.mark.parametrize(
    "system, path",
    [
        ({"free": [["2", "1", "7"]]}, "free[0]"),  # was verified, the 7 dropped
        ({"free": ["21"]}, "free[0]"),  # was read digit by digit as 2+i
        ({"free": [["2", "1"], ["2"]]}, "free[1]"),
        ({"free": [5]}, "free[0]"),
        ({"free": [{"0": "2", "1": "1"}]}, "free[0]"),
        ({"torsion": {"element": ["0", "1", "0"], "order": 4}}, "torsion.element"),
        ({"torsion": {"element": "01", "order": 4}}, "torsion.element"),
        ({"torsion": {"element": [], "order": 4}}, "torsion.element"),
    ],
)
def test_units_verify_refuses_a_generator_that_is_not_n_coordinates(
    system, path, gauss_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr("ampletori.cli.verify_unit_system", _refuse)
    data = {"torsion": {"element": ["0", "1"], "order": 4}, "free": [["2", "1"]], "s_primes": [5]}
    sysfile = tmp_path / "system.json"
    sysfile.write_text(json.dumps({**data, **system}))
    argv = ["--json", "units", "verify", "--algebra", gauss_file, "--system", str(sysfile)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    bad = system["free"][int(path[-2])] if "free" in system else system["torsion"]["element"]
    assert err == {
        "message": f"expected an array of 2 coordinates, got {bad!r}",
        "module": "cli",
        "path": f"{sysfile}.{path}",
    }


@pytest.mark.parametrize(
    "free, path",
    [([["2", "1", "9"], ["2", "-1"]], "free[0]"), ([["2", "1"], "2-1"], "free[1]")],
)
def test_construct_refuses_a_provided_generator_that_is_not_n_coordinates(
    free, path, tmp_path, monkeypatch, capsys
):
    # the first one exited 0 with a report, its 9 dropped
    monkeypatch.setattr("ampletori.pipeline._certify", _refuse)
    torsion = {"element": ["0", "1"], "order": 4}
    reqfile = tmp_path / "request.json"
    reqfile.write_text(json.dumps({
        "algebra": GAUSS_ALGEBRA, "ambient": "GL", "places": "inf,5",
        "unit_source": {"provided": {"torsion": torsion, "free": free, "s_primes": [5]}},
    }))
    assert main(["--json", "construct", str(reqfile)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["path"] == f"request.unit_source.provided.{path}"
    assert err["message"].startswith("expected an array of 2 coordinates, got ")


USAGE_ERRORS = [
    (["units", "search", "--algebra", "{g}", "--bound", "x"], "--bound",
     "expected an integer, got 'x'"),
    (["units", "search", "--algebra", "{g}", "--bound", "2.5"], "--bound",
     "expected an integer, got '2.5'"),
    (["construct"], "argv", "the following arguments are required: request"),
    ([], "argv", "the following arguments are required: command"),
    (["check-ample", "--algebra", "{g}", "--places", "inf", "--ambient", "SO"], "argv",
     "argument --ambient: invalid choice: 'SO' (choose from 'SL', 'GL')"),
    (["verify-paper", "--frobnicate"], "argv", "unrecognized arguments: --frobnicate"),
]


@pytest.mark.parametrize("argv, path, message", USAGE_ERRORS)
def test_usage_errors_exit_one_with_their_path(
    argv, path, message, gauss_file, tmp_path, monkeypatch, capsys
):
    # argparse ended these with exit 2, the not-S-ample code, and no JSON
    for name in ("run_pipeline", "search_units", "verify_unit_system", "verify_paper_examples"):
        monkeypatch.setattr(f"ampletori.cli.{name}", _refuse)
    system, request = tmp_path / "system.json", tmp_path / "request.json"
    system.write_text(json.dumps({"torsion": {"element": ["0", "1"], "order": 4}, "free": []}))
    request.write_text(json.dumps({"algebra": CUBIC_ALGEBRA, "places": "inf"}))
    files = {"{g}": gauss_file, "{s}": str(system), "{r}": str(request)}
    argv = [files.get(a, a) for a in argv]
    assert main(["--json", *argv]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["error"] == {"message": message, "module": "cli", "path": path}
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error at {path}: {message}\n"


@pytest.mark.parametrize("argv", [["--help"], ["construct", "--help"], ["--json", "units", "-h"]])
def test_help_still_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ampletori")


def test_construct_cli(tmp_path, cubic_file, capsys):
    reqfile = tmp_path / "request.json"
    reqfile.write_text(json.dumps({
        "algebra": CUBIC_ALGEBRA,
        "ambient": "SL",
        "places": "inf",
        "unit_source": {"search": {"coord_bound": 3}},
    }))
    code = main(["--json", "construct", str(reqfile)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "S-ample"
    assert report["generators"]["torus"] == [[["0", "0", "1"], ["1", "0", "-1"], ["0", "1", "0"]]]


def test_construct_byte_identical(tmp_path, capsys):
    reqfile = tmp_path / "request.json"
    reqfile.write_text(json.dumps({
        "algebra": GAUSS_ALGEBRA,
        "ambient": "SL",
        "places": "inf,5",
        "unit_source": {"search": {"coord_bound": 3}},
    }))
    main(["--json", "construct", str(reqfile)])
    out1 = capsys.readouterr().out
    main(["--json", "construct", str(reqfile)])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_error_exit_code_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["--json", "check-ample", "--algebra", str(bad), "--places", "inf"])
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert "error" in err and err["error"]["module"] == "cli"


def test_ramified_place_is_error_exit(cubic_file, capsys):
    code = main(["--json", "check-ample", "--algebra", cubic_file, "--places", "inf,31"])
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["module"] == "places"


def test_multi_factor_check_ample_exits_not_ample(tmp_path, capsys):
    # multi-factor algebras fail condition (i): exit 2, not an error, and
    # condition (iii) is recorded as not evaluated
    algebra = {"factors": [["-1", "1"], ["-2", "1"]], "order_basis": None}
    p = tmp_path / "qq.json"
    p.write_text(json.dumps(algebra))
    assert main(["check-ample", "--algebra", str(p), "--places", "inf"]) == 2
    capsys.readouterr()
    assert main(["--json", "check-ample", "--algebra", str(p), "--places", "inf"]) == 2
    assert json.loads(capsys.readouterr().out)["condition_iii"] == {
        "status": "not-evaluated",
        "reason": "submodule decomposition is implemented for single-factor algebras",
    }


def test_units_verify_dependent_system_exits_one(gauss_file, tmp_path, capsys):
    sysfile = tmp_path / "dependent.json"
    sysfile.write_text(json.dumps({
        "torsion": {"element": ["0", "1"], "order": 4},
        "free": [["2", "1"], ["3", "4"]],  # (2+i) and (2+i)^2: dependent
        "s_primes": [5],
    }))
    code = main([
        "--json", "units", "verify", "--algebra", gauss_file,
        "--system", str(sysfile), "--s-primes", "5",
    ])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert not data["verified"] and "dependent" in data["witness"]


def test_verify_paper_cli(capsys):
    code = main(["--json", "verify-paper"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["all_pass"]
    assert [r["example"] for r in data["rows"]] == ["5.1", "5.2", "5.3", "5.4"]


def _construct_request(poly, ambient="SL", places="inf", bound=3, block=None, basis=None) -> dict:
    request = {
        "schema": "cma/1",
        "algebra": {"factors": [poly], "order_basis": basis},
        "ambient": ambient,
        "places": places,
        "unit_source": {"search": {"coord_bound": bound}},
    }
    if block is not None:
        request["unipotent_block"] = {"n": block, "pattern": "last-column"}
    return request


Z2I_BASIS = [["1", "0"], ["0", "2"]]
Z3I_BASIS = [["1", "0"], ["0", "3"]]

# construct requests of the benchmark families that no golden covers
PINNED_REQUESTS = {
    "x^2-2 block n=3": _construct_request(["-2", "0", "1"], block=3),  # det -1 automorphism
    "x^2-3 GL": _construct_request(["-3", "0", "1"], "GL"),
    "x^2+1 SL at 13,17": _construct_request(["1", "0", "1"], places="inf,13,17", bound=6),
    "x^2+1 GL at 13,17": _construct_request(["1", "0", "1"], "GL", "inf,13,17", 6),
    "x^4+x^2-x+1": _construct_request(["1", "-1", "1", "0", "1"]),  # complex S4 quartic
    "x^2+2 not ample": _construct_request(["2", "0", "1"]),
    # emitted automorphisms and the det −1 caveat: x ↦ −x of Z[2i] has det −1
    # and no unit of norm −1 corrects it in SL; the C4 quartic emits three in
    # GL, and in SL only the one of det 1, with the caveat for the other two
    "Z[2i] GL at inf,5": _construct_request(["1", "0", "1"], "GL", "inf,5", basis=Z2I_BASIS),
    "Z[2i] SL at inf,5": _construct_request(["1", "0", "1"], "SL", "inf,5", basis=Z2I_BASIS),
    "x^4-5x^2+5 SL": _construct_request(["5", "0", "-5", "0", "1"]),
    "x^4-5x^2+5 GL": _construct_request(["5", "0", "-5", "0", "1"], "GL"),
    # i = 3i/3 lies in Z[3i][1/3]: the torsion of O[1/S] has order 4
    "Z[3i] GL at inf,3,5": _construct_request(["1", "0", "1"], "GL", "inf,3,5", basis=Z3I_BASIS),
    # SL norm-one subgroups at two or more finite primes whose generators
    # depend on the kernel routine: an HNF kernel in place of the SNF one
    # changes each (for x²−x−7, 16−5θ in place of (2144−637θ)/625)
    "x^2-x-7 SL at inf,3,5": _construct_request(["-7", "-1", "1"], places="inf,3,5", bound=6),
    "x^2-x-13 SL at inf,2,5,7": _construct_request(["-13", "-1", "1"], places="inf,2,5,7", bound=6),
    "x^2-x-3 SL at inf,2,3,5": _construct_request(["-3", "-1", "1"], places="inf,2,3,5", bound=6),
    "x^2-3 SL at inf,5,11,13": _construct_request(["-3", "0", "1"], places="inf,5,11,13", bound=6),
}

# sha256 of the --json output: verify-paper, construct on each golden's
# request, and construct on each of PINNED_REQUESTS
PINNED_DIGESTS = {
    "verify-paper": "46a9b92f90cde23f652b91e1607ec6658a9ab98314d59a04238b239cd717fa9a",
    "ex51.json": "11d263fe3991b1df31df7789e9be71b7d0bf6cd2e76256c7000e0a9a82756b9f",
    "ex52.json": "ff6dcbd62b6e108d42a8d280a92fdea92db6ef324d1186431dfb5a932119914b",
    "ex53.json": "93d08f46a214d764ce4d8a2514e5c96b9e620621ed56ac195a28fcf75c67ea06",
    "ex54.json": "dd0024ba7e6ab3cddf86c7b686f9f30ffd5b8eb1187a541d4a15f48c2e04165f",
    "x^2-2 block n=3": "de0ec480b02ce6c67460e7ced40247436c37f96ae6aea8d82c07890b02ebbf3c",
    "x^2-3 GL": "79d11172ff99bf34c4374fe3b4db7427aaafac06956a7fbbe5e7162961d71cc7",
    "x^2+1 SL at 13,17": "eb3f91d3ac5c7031d1b99e4bdfe11c4344472bf2130c44fe512f70ecf8061cb0",
    "x^2+1 GL at 13,17": "85859094f476744cc329346fcded0ecf2b9f05643c289603655fce7af756f0b6",
    "x^4+x^2-x+1": "c146af4fb1cd652c249c3bd56003d010e6716a1cb8450e5e3eb53b20763fcc64",
    "x^2+2 not ample": "f5968159d9efc3c9a842ba70c05e5ddc24914a6e709b3aef14f86ca03a1f6f3a",
    "Z[2i] GL at inf,5": "056ea778b7fbbb1d8bd8dd890c4f48396158cf1b73f8e56589088d2459642052",
    "Z[2i] SL at inf,5": "67c4273b3da0647fbfae801aa7a47f06d0177e06c110cca349281c0258885f5c",
    "x^4-5x^2+5 SL": "9a17267a44a88d83071dbad1312e325f32e9655f1cd6453ce946b65e75cabdbe",
    "x^4-5x^2+5 GL": "a8a86fb5b68d6441b8ec88983e915a8276cac0bcdd259c01d523c33169fa4875",
    "Z[3i] GL at inf,3,5": "ca8abc275b85605386de90d717648b87787e2d9e1435ecf62f133e8728896dcf",
    "x^2-x-7 SL at inf,3,5": "8cd57cf16784c65fcc7d001d722e8a8f735d23204d3a005bf80a3970e4763a42",
    "x^2-x-13 SL at inf,2,5,7": "244012ead743cd00b376a4d6cc20d965b17aee0989d55266ee2a63035f41b47b",
    "x^2-x-3 SL at inf,2,3,5": "a9f963c3b3f1879073f62a5ce531a6f4e21ed042f6aa836ec0f9ad22cb545f41",
    "x^2-3 SL at inf,5,11,13": "e959a22be528b6395b7eb1b24f23d25bdffed35f596a400919b11c685aca9c83",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_json_output_digest_is_pinned(name, tmp_path, capsys):
    if name == "verify-paper":
        argv = ["--json", "verify-paper"]
    else:
        request = tmp_path / "request.json"
        if name in PINNED_REQUESTS:
            request.write_text(json.dumps(PINNED_REQUESTS[name]))
        else:
            golden = json.loads((pipeline.corpus_dir() / name).read_text())
            request.write_text(json.dumps(golden["request"]))
        argv = ["--json", "construct", str(request)]
    main(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[name]


CHECK_AMPLE_ALGEBRAS = {
    "Q x Q": {"factors": [["-1", "1"], ["-2", "1"]], "order_basis": None},
    "x^4-8x^3+20x^2-16x+1": {"factors": [["1", "-16", "20", "-8", "1"]], "order_basis": None},  # V4
}

# sha256 of --json check-ample at inf,7: the two-factor algebra reaches the
# not-evaluated condition (iii), the V4 quartic the submodule enumeration
CHECK_AMPLE_DIGESTS = {
    ("Q x Q", "SL"): "7d9cdb05a503e9b901b6412a4f15044d1b7b19f19de79b3031958ba638012069",
    ("Q x Q", "GL"): "73ebefb9604755454c30293ac49a3cc56f9da0f4d208c5caded9b11bbeecc811",
    ("x^4-8x^3+20x^2-16x+1", "SL"): "c9944c8e1162749585decf560a76760db4e9c68fd3e2b9ab2f0424fd5c43058d",
    ("x^4-8x^3+20x^2-16x+1", "GL"): "c5917ec5c668cb7c4723cc104ddf0bd82f6a4bb11f7ed9c4f9107885690c86bd",
}


@pytest.mark.parametrize("name, ambient", sorted(CHECK_AMPLE_DIGESTS))
def test_check_ample_digest_is_pinned(name, ambient, tmp_path, capsys):
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps(CHECK_AMPLE_ALGEBRAS[name]))
    main(["--json", "check-ample", "--algebra", str(algebra), "--ambient", ambient, "--places", "inf,7"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_AMPLE_DIGESTS[name, ambient]


@pytest.mark.parametrize("ambient", ["GL", "SL"])
def test_z3i_torsion_over_o_s_holds_i_and_units_verify_accepts_it(ambient, tmp_path, capsys):
    request = tmp_path / "request.json"
    request.write_text(json.dumps({**PINNED_REQUESTS["Z[3i] GL at inf,3,5"], "ambient": ambient}))
    assert main(["--json", "construct", str(request)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sanity"]["all_pass"]["pass"]
    assert report["units"]["torsion"] == {"element": ["0", "1/3"], "order": 4}
    algebra, system = tmp_path / "algebra.json", tmp_path / "system.json"
    algebra.write_text(json.dumps({"factors": [["1", "0", "1"]], "order_basis": Z3I_BASIS}))
    system.write_text(json.dumps(report["units"]))
    argv = ["--json", "units", "verify", "--algebra", str(algebra), "--system", str(system)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verified"]


def _str_keys_only(x) -> bool:
    if isinstance(x, dict):
        return all(type(k) is str and _str_keys_only(v) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return all(map(_str_keys_only, x))
    return True


def test_dumps_matches_the_rebuild_oracle_on_every_payload_kind(
    gauss_file, cubic_file, tmp_path, monkeypatch, capsys
):
    payloads = []
    dumps = serialize.dumps
    monkeypatch.setattr(serialize, "dumps", lambda obj: payloads.append(obj) or dumps(obj))
    request = tmp_path / "request.json"
    for name in ("x^2-2 block n=3", "Z[2i] SL at inf,5", "Z[3i] GL at inf,3,5", "x^2+2 not ample"):
        request.write_text(json.dumps(PINNED_REQUESTS[name]))
        main(["--json", "construct", str(request)])
    system = tmp_path / "system.json"
    system.write_text(json.dumps({
        "torsion": {"element": ["0", "1"], "order": 4}, "free": [["4/5", "3/5"]], "s_primes": [5],
    }))
    for argv in (
        ["check-ample", "--algebra", gauss_file, "--places", "inf,5,13"],
        ["local-rank", "--algebra", cubic_file, "--place", "inf"],
        ["units", "search", "--algebra", gauss_file, "--bound", "2", "--s-primes", "5"],
        ["units", "verify", "--algebra", gauss_file, "--system", str(system)],
        ["verify-paper"],
    ):
        main(["--json", *argv])
    capsys.readouterr()
    assert len(payloads) == 9
    for payload in payloads:
        assert dumps(payload) == oracle_dumps(payload)
        assert _str_keys_only(payload)
    # a Fraction or a tuple left in a tree reaches the encoder as it is
    mixed = {"b": (1, Fraction(-3, 5)), "a": [Fraction(2)]}
    assert dumps(mixed) == oracle_dumps(mixed) == '{"a":["2"],"b":[1,"-3/5"]}\n'


def test_det_minus_one_caveat_is_listed_once(tmp_path, capsys):
    # x⁴−5x²+5 in SL: more than one automorphism of det −1 and no unit of
    # norm −1; the one caveat they share is listed once
    request = tmp_path / "request.json"
    request.write_text(json.dumps(PINNED_REQUESTS["x^4-5x^2+5 SL"]))
    main(["--json", "construct", str(request)])
    caveats = json.loads(capsys.readouterr().out)["caveats"]
    assert len(caveats) == len(set(caveats))
    assert sum("determinant -1" in c for c in caveats) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check-ample", "--algebra", "{g}", "--places", "inf,notaprime"],
        ["check-ample", "--algebra", "{g}", "--places", "5"],  # misses inf
        ["check-ample", "--algebra", "/nonexistent.json", "--places", "inf"],
        ["local-rank", "--algebra", "{g}", "--place", "xyz"],
        ["units", "verify", "--algebra", "{g}"],  # missing --system
        ["units", "search", "--algebra", "{g}", "--norms", "abc"],
        ["check-ample", "--algebra", "{g}", "--places", "inf,4"],  # not a prime
    ],
)
def test_error_taxonomy_is_total(argv, gauss_file, capsys):
    # every malformed input maps to exit 1 and a JSON error object
    argv = [a.replace("{g}", gauss_file) for a in argv]
    code = main(["--json"] + argv)
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert "error" in err and "message" in err["error"] and "module" in err["error"]


@pytest.mark.parametrize("factors", [2, None, True, 1.5])
def test_non_array_factors_are_an_input_error(factors, tmp_path, capsys):
    reqfile = tmp_path / "request.json"
    request = {"schema": "cma/1", "algebra": {"factors": factors}, "ambient": "SL", "places": "inf"}
    reqfile.write_text(json.dumps(request))
    assert main(["--json", "construct", str(reqfile)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert (err["message"], err["path"]) == ("factors must be an array", "request.algebra.factors")


@pytest.mark.parametrize(
    "factor",
    [
        ["-1", "-1", "0", "0", "0", "1"],  # x⁵ − x − 1, irreducible
        ["-1", "-1", "-1", "0", "0", "1"],  # (x²+1)(x³−x−1)
        ["-1", "-1"] + ["0"] * 8 + ["1"],  # x¹⁰ − x − 1: a split prime is out of reach
    ],
    ids=["irreducible-quintic", "reducible-quintic", "degree-ten"],
)
def test_factors_past_degree_four_are_refused_before_the_algebra_is_built(factor, tmp_path):
    reqfile = tmp_path / "request.json"
    request = {"schema": "cma/1", "algebra": {"factors": [factor]}, "ambient": "SL", "places": "inf"}
    reqfile.write_text(json.dumps(request))
    proc = _run_cli_in_fresh_process("--json", "construct", str(reqfile), timeout=60)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert (err["module"], err["message"]) == ("ampletori", "factors of degree > 4 are not supported")


@pytest.mark.parametrize(
    "spellings",
    [
        [["-3", "0", "1"], ["-6/2", "0", "1"], [-3, 0, 1], [" -3 ", "0/7", "1.0", "0"]],
        [["-2", "0", "1"], ["-4/2", "0", "1"], [-2, "0", 1], ["-2.0", "-0", "+2/2"]],
    ],
    ids=["x^2-3", "x^2-2"],
)
def test_integer_spellings_of_a_coefficient_share_one_algebra_and_report(
    spellings, tmp_path, monkeypatch, capsys
):
    fresh_memos(monkeypatch, serialize._algebra)
    reqfile, reports = tmp_path / "request.json", []
    for factor in spellings:
        reqfile.write_text(json.dumps(_construct_request(factor, "GL")))
        assert main(["--json", "construct", str(reqfile)]) == 0
        reports.append(capsys.readouterr().out)
    assert len(set(reports)) == 1
    # one build: every later spelling hits the entry keyed by the int coefficients
    ints = tuple(int(c) for c in spellings[0])
    assert serialize._algebra.cache_info()[1:] == (1, 256, 1)
    assert serialize._algebra((ints,), None).factors[0].coeffs == ints
    assert serialize._algebra.cache_info()[1:] == (1, 256, 1)


def test_a_non_integer_coefficient_is_an_input_error_at_the_algebra(tmp_path, capsys):
    reqfile = tmp_path / "request.json"
    reqfile.write_text(json.dumps(_construct_request(["1/2", "0", "1"])))
    assert main(["--json", "construct", str(reqfile)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"message": "coefficient 1/2 is not an integer", "module": "cli", "path": "request.algebra"}
    # the degree is checked first, as before any coefficient is read as an int
    reqfile.write_text(json.dumps(_construct_request(["1/2", "0", "0", "0", "0", "1"])))
    assert main(["--json", "construct", str(reqfile)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == "factors of degree > 4 are not supported"


# a malformed order basis: (message, path, module) of the error, path None
# for an error raised past the request reader
MALFORMED_BASES = [
    ([[1, 0], [0]], "ragged matrix", "request.algebra", "cli"),
    ([[1, 0]], "order basis must be n x n", "request.algebra", "cli"),
    ([[1, 0], [2, 0]], "order basis matrix is singular", "request.algebra", "cli"),
    (
        [["x", "0"], ["0", "1"]],
        "bad rational 'x': Invalid literal for Fraction: 'x'",
        "request.algebra.order_basis[0][0]",
        "cli",
    ),
    ([["1/0", "0"], ["0", "1"]], "bad rational '1/0': Fraction(1, 0)", "request.algebra.order_basis[0][0]", "cli"),
    ([["1", "0"], ["0", "1/2"]], "basis is not an order: b_1*b_1 has non-integral coordinate", None, "etale"),
    ([], "order basis must be n x n", "request.algebra", "cli"),
    ([[]], "order basis must be n x n", "request.algebra", "cli"),
    ("id", "matrix must be an array of arrays", "request.algebra.order_basis", "cli"),
]


@pytest.mark.parametrize("basis, message, path, module", MALFORMED_BASES, ids=range(len(MALFORMED_BASES)))
def test_a_malformed_order_basis_is_an_error_with_its_path(basis, message, path, module, tmp_path, capsys):
    reqfile = tmp_path / "request.json"
    reqfile.write_text(json.dumps(_construct_request(["1", "0", "1"], basis=basis)))
    assert main(["--json", "construct", str(reqfile)]) == 1
    want = {"message": message, "module": module}
    if path is not None:
        want["path"] = path
    assert json.loads(capsys.readouterr().out)["error"] == want


def _refuse(*args, **kwargs):
    raise AssertionError("a rejected input must not reach the computation")


def test_a_precision_cap_is_refused_by_name(gauss_file, tmp_path, monkeypatch, capsys):
    # the ladder is fixed at 64 → 128 → 256 bits: a request or command line
    # that sets a cap fails by name instead of running at another precision
    monkeypatch.setattr("ampletori.cli.run_pipeline", _refuse)
    monkeypatch.setattr("ampletori.cli.verify_unit_system", _refuse)
    request = {"algebra": CUBIC_ALGEBRA, "places": "inf"}
    reqfile, capped, sysfile = (tmp_path / f"{n}.json" for n in ("request", "capped", "system"))
    reqfile.write_text(json.dumps(request))
    capped.write_text(json.dumps({**request, "precision_cap": 256}))
    sysfile.write_text(json.dumps({"torsion": {"element": ["0", "1"], "order": 4}, "free": []}))
    fields = "schema, algebra, ambient, places, unipotent_block, unit_source"
    for argv, path, message in [
        (["construct", str(capped)], "request.precision_cap",
         f"unknown request field 'precision_cap'; the fields are {fields}"),
        (["construct", str(reqfile), "--precision-cap", "256"], "argv",
         "unrecognized arguments: --precision-cap 256"),
        (["units", "verify", "--algebra", gauss_file, "--system", str(sysfile),
          "--precision-cap", "256"], "argv", "unrecognized arguments: --precision-cap 256"),
    ]:
        assert main(["--json", *argv]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "message": message, "module": "cli", "path": path,
        }


@pytest.mark.parametrize(
    "flags, path",
    [
        (["--s-primes", "x"], "--s-primes"),
        (["--s-primes", "4"], "--s-primes"),
        (["--s-primes", "5,0"], "--s-primes"),
        (["--bound", "0"], "--bound"),
        (["--bound", "-1"], "--bound"),
        (["--norms", "x"], "--norms"),
        (["--norms", "1,1/0"], "--norms"),
    ],
)
def test_units_search_flags_are_validated(flags, path, gauss_file, monkeypatch, capsys):
    monkeypatch.setattr("ampletori.cli.search_units", _refuse)
    assert main(["--json", "units", "search", "--algebra", gauss_file, *flags]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["path"] == path


def test_units_search_on_a_non_order_is_an_error(tmp_path, capsys):
    p = tmp_path / "half.json"
    p.write_text(json.dumps({"factors": [["1", "0", "1"]], "order_basis": [["1", "0"], ["0", "1/2"]]}))
    assert main(["--json", "units", "search", "--algebra", str(p)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["module"] == "etale" and err["message"].startswith("basis is not an order")


@pytest.mark.parametrize("as_json", [True, False])
def test_unexpected_exception_is_an_internal_error(as_json, tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("ampletori.cli.run_pipeline", boom)
    reqfile = tmp_path / "request.json"
    reqfile.write_text(json.dumps({"algebra": CUBIC_ALGEBRA, "places": "inf"}))
    assert main(["--json"] * as_json + ["construct", str(reqfile)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if as_json:
        err = json.loads(captured.out)["error"]
        assert err == {"message": "RuntimeError: boom", "module": "internal"}
    else:
        assert captured.err == "error [internal]: RuntimeError: boom\n"


def test_keyboard_interrupt_is_not_swallowed(tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("ampletori.cli.run_pipeline", interrupt)
    reqfile = tmp_path / "request.json"
    reqfile.write_text(json.dumps({"algebra": CUBIC_ALGEBRA, "places": "inf"}))
    with pytest.raises(KeyboardInterrupt):
        main(["construct", str(reqfile)])


def _run_cli_in_fresh_process(*argv, timeout=None):
    src = str(Path(ampletori.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "ampletori", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


def test_python_dash_m_runs_the_cli():
    proc = _run_cli_in_fresh_process("--help")
    assert proc.returncode == 0, proc.stderr
    assert "verify-paper" in proc.stdout


def test_construct_is_byte_identical_after_unrelated_runs(tmp_path, monkeypatch, capsys):
    def request(name, factors, places):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "algebra": {"factors": [factors], "order_basis": None},
            "ambient": "SL",
            "places": places,
            "unit_source": {"search": {"coord_bound": 3}},
        }))
        return str(path)

    target = request("totally-real-cubic", ["1", "-3", "0", "1"], "inf")
    unrelated = [
        request("gauss", ["1", "0", "1"], "inf,5"),
        request("sqrt2", ["-2", "0", "1"], "inf,7"),
        request("cubic", ["-1", "1", "0", "1"], "inf"),
    ]
    fresh = _run_cli_in_fresh_process("--json", "construct", target)
    assert fresh.returncode == 0, fresh.stderr
    # with every module memo bounded at one entry, each unrelated run evicts
    # what the target run stored, and the rerun misses; at their own bounds
    # the rerun takes its unit group and its algebra from the memos
    def hits():
        return [memo.cache_info().hits for memo in (pipeline._searched_units, serialize._algebra)]

    for bound in (None, 1):
        fresh_memos(monkeypatch, maxsize=bound)
        main(["--json", "construct", target])
        for path in unrelated:
            main(["--json", "construct", path])
        before = hits()
        capsys.readouterr()
        main(["--json", "construct", target])
        assert capsys.readouterr().out == fresh.stdout
        assert [h - b for h, b in zip(hits(), before)] == ([1, 1] if bound is None else [0, 0])


def test_construct_from_the_unit_group_memo_matches_fresh_processes(
    tmp_path, monkeypatch, capsys
):
    # SL emits the norm-one subgroup, GL the whole group: one memo entry serves both
    paths = {}
    for ambient in ("SL", "GL"):
        paths[ambient] = tmp_path / f"gauss-{ambient}.json"
        paths[ambient].write_text(json.dumps({
            "algebra": GAUSS_ALGEBRA, "ambient": ambient, "places": "inf,13",
        }))
    fresh = {}
    for ambient, path in paths.items():
        proc = _run_cli_in_fresh_process("--json", "construct", str(path))
        assert proc.returncode == 0, proc.stderr
        fresh[ambient] = proc.stdout
    assemblies = []
    assemble = pipeline.assemble_unit_system
    fresh_memos(monkeypatch, pipeline._searched_units)
    monkeypatch.setattr(
        pipeline, "assemble_unit_system", lambda *a, **k: assemblies.append(a) or assemble(*a, **k)
    )
    for ambient in ("SL", "GL", "SL"):
        main(["--json", "construct", str(paths[ambient])])
        assert capsys.readouterr().out == fresh[ambient]
    assert len(assemblies) == 1 == pipeline._searched_units.cache_info().currsize
