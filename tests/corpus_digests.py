"""The byte-identity corpus: seeded degree 2–4 requests and the bytes they give.

Each entry of corpus_digests.json is one CLI run: its argv (file arguments
named "@request" or "@algebra") with the JSON written to that file, the exit
code, and the sha256 of its --json output, which covers an error's class and
text too. The draws are kept whatever they give: reports, not-S-ample
verdicts, ramified places, reducible polynomials and failed searches.

    python tests/corpus_digests.py          # regenerate the file, print the diff

A change that moves outputs on purpose regenerates the file and lists each
moved entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus_digests.json"
SEED = 12
CONSTRUCT_DRAWS = 72
BIQUADRATIC_DRAWS = 48
SMALL_ODD_PRIMES = (3, 5, 7, 11, 13)


def _poly(coeffs) -> list[str]:
    return [str(c) for c in coeffs]


def _construct(rng: random.Random) -> dict:
    degree = rng.randint(2, 4)
    coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [1]
    primes = sorted(rng.sample(SMALL_ODD_PRIMES, rng.randint(0, 3)))
    ambient = rng.choice(["SL", "GL"])
    request = {
        "schema": "cma/1",
        "algebra": {"factors": [_poly(coeffs)], "order_basis": None},
        "ambient": ambient,
        "places": ",".join(["inf", *map(str, primes)]),
        "unit_source": {"search": {"coord_bound": rng.randint(1, 5)}},
    }
    return {"argv": ["construct", "@request"], "file": request}


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _v4_or_d4(b: int, d: int) -> bool:
    """Whether x⁴+bx²+d is irreducible of Galois group V4 or D4.

    It is reducible when b²−4d is a square (a quadratic in x²) or when
    d = c² with ±2c − b a square (x⁴+bx²+c² = (x²+c)² − (2c−b)x²); else its
    group is V4 when d is a square, C4 when d(b²−4d) is, and D4 otherwise.
    """
    if d == 0 or _is_square(b * b - 4 * d):
        return False
    if _is_square(d):
        c = math.isqrt(d)
        return not (_is_square(2 * c - b) or _is_square(-2 * c - b))
    return not _is_square(d * (b * b - 4 * d))


def _check_ample(coeffs, ambient: str, primes) -> dict:
    algebra = {"factors": [_poly(coeffs)], "order_basis": None}
    places = ",".join(["inf", *map(str, primes)])
    argv = ["check-ample", "--algebra", "@algebra", "--ambient", ambient, "--places", places]
    return {"argv": argv, "file": algebra}


def draw_entries(seed: int = SEED) -> list[dict]:
    """The corpus's runs, drawn from one seed; each gets a stable name."""
    rng = random.Random(seed)
    runs = [_construct(rng) for _ in range(CONSTRUCT_DRAWS)]
    # V4 and D4 quartics x⁴+bx²+d at one and two small odd primes, plus the
    # two fixed cases x⁴+1 at {∞,3,5} and x⁴+2 at {∞,17}, in SL and GL
    fixed = [((1, 0, 0, 0, 1), (3, 5)), ((2, 0, 0, 0, 1), (17,))]
    runs += [_check_ample(c, a, p) for c, p in fixed for a in ("SL", "GL")]
    drawn = 0
    while drawn < BIQUADRATIC_DRAWS:
        b, d = rng.randint(-12, 12), rng.randint(-30, 30)
        if not _v4_or_d4(b, d):
            continue
        primes = sorted(rng.sample(SMALL_ODD_PRIMES + (17, 19), 1 + drawn % 2))
        runs.append(_check_ample((d, 0, b, 0, 1), rng.choice(["SL", "GL"]), primes))
        drawn += 1
    return [{"name": f"{i:03d}", **run} for i, run in enumerate(runs)]


def run_entry(entry: dict) -> tuple[int, str]:
    """Run one entry in this process: its exit code and its output's sha256."""
    from ampletori.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(entry["file"]))
        argv = ["--json", *(str(path) if a.startswith("@") else a for a in entry["argv"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def load() -> list[dict]:
    return json.loads(CORPUS.read_text())


def regenerate() -> list[str]:
    """Draw, run and write the corpus; the names of the entries that moved."""
    old = {e["name"]: e for e in load()} if CORPUS.exists() else {}
    entries = []
    for entry in draw_entries():
        code, digest = run_entry(entry)
        entries.append({**entry, "exit": code, "sha256": digest})
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    moved = []
    for e in entries:
        was = old.get(e["name"])
        if was is None or (was["exit"], was["sha256"], was["file"]) != (e["exit"], e["sha256"], e["file"]):
            moved.append(f"{e['name']} {' '.join(e['argv'])} {json.dumps(e['file'])}")
    moved += [f"{name} removed" for name in sorted(old.keys() - {e["name"] for e in entries})]
    return moved


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    changes = regenerate()
    print("\n".join(changes) if changes else "no entry moved")
