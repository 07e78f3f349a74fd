"""Command-line interface.

Subcommands: construct (full pipeline from a request file), check-ample,
units (search/verify), local-rank, verify-paper. Exit codes: 0 success or
S-ample, 2 not-S-ample, 1 error (a usage error included). --json emits the
machine-readable report; identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import serialize
from .errors import AmpleToriError, InputError
from .pipeline import PipelineRequest, positive_int, run_pipeline, verify_paper_examples
from .torus import (
    VERDICT_AMPLE,
    VERDICT_NOT_AMPLE,
    PlaceSet,
    build_torus,
    finite_place,
    is_s_ample,
    local_rank,
    parse_place,
)
from .units import DependenceWitness, search_units, verify_unit_system

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_AMPLE = 2

_VERDICT_EXIT = {
    VERDICT_AMPLE: EXIT_OK,
    VERDICT_NOT_AMPLE: EXIT_NOT_AMPLE,
}


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}", path)
    return serialize.loads(text, path)


def _load_algebra(path: str):
    return serialize.algebra_from_json(_load_json(path), path)


def _emit(payload, as_json: bool, text_lines) -> None:
    if as_json:
        sys.stdout.write(serialize.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_construct(args) -> int:
    report = run_pipeline(PipelineRequest.from_json(_load_json(args.request)))
    lines = [f"verdict: {report.verdict}"]
    if report.generators is not None:
        gens = report.generators
        lines.append(f"ring: {gens.ring_str()}, n = {gens.n}")
        for name, m in gens.all_generators():
            lines.append(f"{name}: {serialize.matrix_to_json(m)}")
        for c in sorted(report.caveats):
            lines.append(f"caveat: {c}")
    _emit(report.to_json(), args.json, lines)
    return _VERDICT_EXIT[report.verdict]


def _cmd_check_ample(args) -> int:
    e = _load_algebra(args.algebra)
    places = PlaceSet.parse(args.places)
    torus = build_torus(e, args.ambient)
    cert = is_s_ample(torus, places)
    payload = serialize.certificate_to_json(cert)
    _emit(payload, args.json, [f"verdict: {cert.verdict}"])
    return _VERDICT_EXIT[cert.verdict]


def _cmd_local_rank(args) -> int:
    e = _load_algebra(args.algebra)
    torus = build_torus(e, args.ambient)
    rank = local_rank(torus, parse_place(args.place, "place"))
    _emit({"place": args.place, "rank": rank}, args.json, [str(rank)])
    return EXIT_OK


def _cmd_units(args) -> int:
    e = _load_algebra(args.algebra)
    tokens = (args.s_primes or "").split(",")
    s_primes = tuple(sorted({finite_place(p, "--s-primes") for p in tokens if p.strip()}))
    if args.action == "search":
        bound = positive_int(args.bound, "--bound")
        targets = None
        if args.norms:
            targets = {serialize.parse_frac(t, "--norms") for t in args.norms.split(",")}
        found = search_units(e, bound, s_primes, targets)
        payload = {"count": len(found), "elements": [serialize.vector_to_json(u) for u in found]}
        _emit(payload, args.json, [str(payload["elements"])])
        return EXIT_OK
    if not args.system:
        raise InputError("units verify needs --system <file>", "system")
    data = _load_json(args.system)
    sys_ = serialize.unit_system_from_json(e, data, args.system)
    if args.s_primes is not None and s_primes != sys_.s_primes:
        raise InputError(
            f"--s-primes {list(s_primes)} differ from the system's s_primes {list(sys_.s_primes)}",
            "--s-primes",
        )
    result = verify_unit_system(sys_)
    if isinstance(result, DependenceWitness):
        payload = {"verified": False, "witness": result.describe()}
        _emit(payload, args.json, [payload["witness"]])
        return EXIT_ERROR
    payload = {
        "verified": True,
        "rank": result.rank,
        "minor_columns": list(result.minor_columns),
        "precision_bits": result.precision_bits,
        "caveats": result.caveats,
    }
    _emit(payload, args.json, [f"verified: rank {result.rank}"])
    return EXIT_OK


def _cmd_verify_paper(args) -> int:
    directory = Path(args.corpus) if args.corpus else None
    rows = verify_paper_examples(directory)
    ok = all(r["pass"] for r in rows)
    lines = []
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(f"example {r['example']}: {status} ({r['detail']})")
        for c in r.get("caveats", []):
            lines.append(f"  caveat: {c}")
    _emit({"rows": rows, "all_pass": ok}, args.json, lines)
    return EXIT_OK if ok else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """A usage error is an InputError at "argv", so it exits 1 like any
    other malformed input (argparse would exit 2, the not-S-ample code)."""

    def error(self, message):
        raise InputError(message, "argv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ampletori",
        description="S-ample tori and integer-matrix generators of "
        "commensurably maximal amenable subgroups",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run the full pipeline from a request file")
    p.add_argument("request")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check-ample", help="decide S-ampleness for an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--ambient", default="SL", choices=["SL", "GL"])
    p.add_argument("--places", required=True, help='e.g. "inf,5"')
    p.set_defaults(func=_cmd_check_ample)

    p = sub.add_parser("local-rank", help="local rank of the torus at one place")
    p.add_argument("--algebra", required=True)
    p.add_argument("--ambient", default="SL", choices=["SL", "GL"])
    p.add_argument("--place", required=True, help='"inf" or a prime')
    p.set_defaults(func=_cmd_local_rank)

    p = sub.add_parser("units", help="search or verify unit systems")
    p.add_argument("action", choices=["search", "verify"])
    p.add_argument("--algebra", required=True)
    p.add_argument("--bound", default=3)
    p.add_argument("--s-primes", help="comma-separated primes; verify: must match the system's")
    p.add_argument("--norms", default="", help="comma-separated norm targets")
    p.add_argument("--system", help="unit system JSON (verify)")
    p.set_defaults(func=_cmd_units)

    p = sub.add_parser("verify-paper", help="reproduce the canned examples")
    p.add_argument("--corpus", default="")
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    as_json = "--json" in argv  # until the parser has read it
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        return args.func(args)
    except InputError as exc:
        payload = {"error": {"message": str(exc), "path": exc.path, "module": exc.module}}
        if as_json:
            sys.stdout.write(serialize.dumps(payload))
        else:
            print(f"error at {exc.path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # anything outside the taxonomy is an internal error
        if isinstance(exc, AmpleToriError):
            module, message = exc.module, str(exc)
        else:
            module, message = "internal", f"{type(exc).__name__}: {exc}"
        payload = {"error": {"message": message, "module": module}}
        if as_json:
            sys.stdout.write(serialize.dumps(payload))
        else:
            print(f"error [{module}]: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
