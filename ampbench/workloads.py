"""Seeded, fixed op lists for the three workloads.

Every list is a fixed multiset of (family, degree, box size, number of
S-primes); the seed only picks members within each family and the order.
Members of a family were chosen to cost about the same (their cold costs in
reference seconds are noted beside them), so that a seed moves no
end-to-end metric by more than a few per cent. A family's member pool may be
used whole, with the seed choosing only the order.

Each family fixes its expected verdict; `check.py` holds every op to it.
"""

from __future__ import annotations

import random


def _poly(*coeffs) -> list[str]:
    """Ascending integer coefficients as the cma/1 polynomial format."""
    return [str(c) for c in coeffs]


# Real quadratics whose fundamental unit lies in the box B = 3 (~0.025 s cold).
REAL_QUADRATICS = {
    "x^2-3": _poly(-3, 0, 1),
    "x^2-5": _poly(-5, 0, 1),
    "x^2-10": _poly(-10, 0, 1),
    "x^2-x-3": _poly(-3, -1, 1),
    "x^2-x-4": _poly(-4, -1, 1),
    "x^2-x-7": _poly(-7, -1, 1),
    "x^2-x-13": _poly(-13, -1, 1),
}
# The det -1 automorphism of x^2-2 breaks the n = 3 block construction
# (pipeline embeds it into SL without correction); kept in both streams.
DEFECT_QUADRATIC = ("x^2-2", _poly(-2, 0, 1))
# Unit cubics, B = 3 (~0.19 s cold).
CUBICS = {
    "x^3-x-1": _poly(-1, -1, 0, 1),
    "x^3+x^2-1": _poly(-1, 0, 1, 1),
    "x^3-x^2+1": _poly(1, 0, -1, 1),
    "x^3-x^2-3x+1": _poly(1, -3, -1, 1),
}
# Cheaper unit cubics used for the cold block family (~0.13 s as a block).
BLOCK_CUBICS = {
    "x^3-x^2-x-1": _poly(-1, -1, -1, 1),
    "x^3+x^2+x-1": _poly(-1, 1, 1, 1),
    "x^3-4x+1": _poly(1, -4, 0, 1),
}
# Totally real quartics, B = 3 (~3.06 s cold, mostly the automorphism walk).
REAL_QUARTICS = {
    "x^4-x^3-4x^2+x+2": _poly(2, 1, -4, -1, 1),
    "x^4-5x^2+5": _poly(5, 0, -5, 0, 1),
}
# Totally complex S4 quartics, two complex pairs, logs through realsplit
# (~3.2 s cold).
COMPLEX_QUARTICS = {
    "x^4+x^2-x+1": _poly(1, -1, 1, 0, 1),
    "x^4+2x^2+x+1": _poly(1, 1, 2, 0, 1),
    "x^4-x^3+x^2+1": _poly(1, 0, 1, -1, 1),
}
GAUSSIAN = _poly(1, 0, 1)
# Split primes p = 1 mod 4 with a prime element in the box B = 6.
ONE_PRIMES = (13, 17, 29, 37, 41, 61)  # ~0.083 s cold
TWO_PRIMES = ((13, 17), (13, 29), (13, 37))  # ~0.78 s cold
# Orders that are never S-ample at the real place alone.
NOT_AMPLE = {
    "x^2+1": _poly(1, 0, 1),
    "x^2+2": _poly(2, 0, 1),
    "x^2+3": _poly(3, 0, 1),
    "x^2+x+1": _poly(1, 1, 1),
    "x^2+x+2": _poly(2, 1, 1),
    "x^2+5": _poly(5, 0, 1),
    "x^2+7": _poly(7, 0, 1),
    "x^2+11": _poly(11, 0, 1),
}

AMPLE, NOT_S_AMPLE = "S-ample", "not-S-ample"


def _request(poly, ambient="SL", primes=(), bound=3, block=None) -> dict:
    req = {
        "schema": "cma/1",
        "algebra": {"factors": [poly], "order_basis": None},
        "ambient": ambient,
        "places": ",".join(["inf"] + [str(p) for p in primes]),
        "unit_source": {"search": {"coord_bound": bound}},
    }
    if block is not None:
        req["unipotent_block"] = {"n": block, "pattern": "last-column"}
    return req


def _op(family, label, request, expect=AMPLE) -> dict:
    return {"kind": "construct", "family": family, "algebra": label,
            "request": request, "expect": expect}


def _family_ops(rng: random.Random, family: str, count: int) -> list[dict]:
    """`count` seeded ops of one cold family."""
    def pick(pool):
        return [rng.choice(sorted(pool.items())) for _ in range(count)]

    if family == "real-quadratic-SL":
        return [_op(family, k, _request(p)) for k, p in pick(REAL_QUADRATICS)]
    if family == "real-quadratic-GL":
        return [_op(family, k, _request(p, "GL")) for k, p in pick(REAL_QUADRATICS)]
    if family == "block-quadratic":
        return [_op(family, DEFECT_QUADRATIC[0], _request(DEFECT_QUADRATIC[1], block=3))
                for _ in range(count)]
    if family == "unit-cubic":
        return [_op(family, k, _request(p)) for k, p in pick(CUBICS)]
    if family == "block-cubic":
        return [_op(family, k, _request(p, block=4)) for k, p in pick(BLOCK_CUBICS)]
    if family == "gaussian-1p":
        return [_op(family, f"x^2+1@{p}", _request(GAUSSIAN, primes=(p,), bound=6))
                for p in (rng.choice(ONE_PRIMES) for _ in range(count))]
    if family == "gaussian-2p":
        return [_op(family, f"x^2+1@{p},{q}", _request(GAUSSIAN, primes=(p, q), bound=6))
                for p, q in (rng.choice(TWO_PRIMES) for _ in range(count))]
    if family == "quartic-real":
        return [_op(family, k, _request(p)) for k, p in pick(REAL_QUARTICS)]
    if family == "quartic-complex":
        return [_op(family, k, _request(p)) for k, p in pick(COMPLEX_QUARTICS)]
    if family == "not-ample":
        return [_op(family, k, _request(p), NOT_S_AMPLE) for k, p in pick(NOT_AMPLE)]
    raise ValueError(family)


# cli-cold: family -> ops per round. Sorted by cost the ranks fall as
# quartics 1-2, two-prime 3-5, unit cubics 6-13, block cubics 14-16,
# one-prime 17-20, then the cheap families: with 36 ops the tail rank
# (10 ops beyond it) is inside the unit cubics and the median inside the
# one-prime family. session-warm (24 ops) falls as two-prime 1-3, the
# cubics' variants 4-9, one-prime 10-15, then the cheap ones: both the tail
# rank (11) and the median (12-13) fall inside the one-prime cluster, which
# a ~25 % gap separates from the cubics above and the quadratics below.
CLI_COLD = {
    "quartic-real": 1,
    "quartic-complex": 1,
    "gaussian-2p": 3,
    "unit-cubic": 8,
    "block-cubic": 3,
    "gaussian-1p": 4,
    "block-quadratic": 1,
    "real-quadratic-SL": 4,
    "real-quadratic-GL": 4,
    "not-ample": 7,
}


def _session_algebras(rng: random.Random) -> list[list[dict]]:
    """Per algebra, the variants it recurs under, in a fixed variant order.

    The first variant of each algebra fills the caches; the seed picks the
    algebras and interleaves the algebras' streams, never which variant is
    the first sighting.
    """
    streams = []
    label, poly = DEFECT_QUADRATIC
    streams.append([_op("real-quadratic-SL", label, _request(poly)),
                    _op("real-quadratic-GL", label, _request(poly, "GL")),
                    _op("block-quadratic", label, _request(poly, block=3))])
    for label, poly in rng.sample(sorted(REAL_QUADRATICS.items()), 2):
        streams.append([_op("real-quadratic-SL", label, _request(poly)),
                        _op("real-quadratic-GL", label, _request(poly, "GL"))])
    for label, poly in rng.sample(sorted(CUBICS.items()), 2):
        streams.append([_op("unit-cubic", label, _request(poly)),
                        _op("unit-cubic-GL", label, _request(poly, "GL")),
                        _op("block-cubic", label, _request(poly, block=4))])
    (p, q), (r, s) = rng.sample(TWO_PRIMES, 2)
    g = "x^2+1"
    gaussian = [_op("not-ample", g, _request(GAUSSIAN), NOT_S_AMPLE)]
    for prime in rng.sample([x for x in ONE_PRIMES if x not in (p, q, r, s)], 3):
        gaussian.append(_op("gaussian-1p", g, _request(GAUSSIAN, primes=(prime,), bound=6)))
        gaussian.append(_op("gaussian-1p", g, _request(GAUSSIAN, "GL", primes=(prime,), bound=6)))
    gaussian += [_op("gaussian-2p", g, _request(GAUSSIAN, primes=(p, q), bound=6)),
                 _op("gaussian-2p", g, _request(GAUSSIAN, "GL", primes=(p, q), bound=6)),
                 _op("gaussian-2p", g, _request(GAUSSIAN, primes=(r, s), bound=6))]
    streams.append(gaussian)
    label, poly = rng.choice(sorted(NOT_AMPLE.items()))
    streams.append([_op("not-ample", label, _request(poly), NOT_S_AMPLE)])
    return streams


def _interleave(rng: random.Random, streams: list[list[dict]]) -> list[dict]:
    slots = [i for i, s in enumerate(streams) for _ in s]
    rng.shuffle(slots)
    pos = [0] * len(streams)
    out = []
    for i in slots:
        out.append(streams[i][pos[i]])
        pos[i] += 1
    return out


WORKLOADS = ("paper", "cli-cold", "session-warm")
# The --seconds one round stands for. A run measures floor(seconds / ROUND_S)
# rounds, at least one: a count fixed by the argument, never by the clock.
# One round costs about 8.3 (paper), 11 (cli-cold) and 4 (session-warm)
# reference seconds.
ROUND_S = {"paper": 8.0, "cli-cold": 11.0, "session-warm": 6.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_S[workload]))


def build(workload: str, seed: int, rounds: int = 1) -> list[dict]:
    """The op list of one run: `rounds` copies of the workload's seeded round."""
    ops = []
    for _ in range(rounds):
        rng = random.Random(f"{workload}/{seed}")
        if workload == "paper":
            ops.append({"kind": "paper", "family": "paper", "algebra": "ex5.1-5.4"})
        elif workload == "cli-cold":
            batch = [op for fam, n in CLI_COLD.items() for op in _family_ops(rng, fam, n)]
            rng.shuffle(batch)
            ops.extend(batch)
        elif workload == "session-warm":
            ops.extend(_interleave(rng, _session_algebras(rng)))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return ops


def family_multiset(ops: list[dict]) -> list[tuple]:
    """(family, degree, box size, number of S-primes) of every op, sorted."""
    out = []
    for op in ops:
        if op["kind"] == "paper":
            out.append(("paper", 0, 0, 0))
            continue
        req = op["request"]
        degree = len(req["algebra"]["factors"][0]) - 1
        primes = len(req["places"].split(",")) - 1
        out.append((op["family"], degree, req["unit_source"]["search"]["coord_bound"], primes))
    return sorted(out)
