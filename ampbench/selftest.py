"""Self-tests of the benchmark itself (stdlib only; about four minutes).

    python3 ampbench/selftest.py        # from the root of a checkout

1. calibration: a fixed stdlib workload, measured in two batches of fresh
   pinned processes, gives the same median reference time within BOUND;
2. traced work counts: two traced passes of session-warm give identical
   work counts, and untraced, traced and profiled outputs are identical;
3. seeds: two seeds give the same family multiset on every workload, and
   the run totals of cli-cold and session-warm agree within BOUND;
4. tail: on those runs the tail rank and its two neighbours belong to one
   family, so the tail sits inside a family's latency cluster.

Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BOUND = 0.15  # the ops_per_s / op_p50_ms bound in BENCHMARK.json
PROBE = r"""
import sys
sys.path.insert(0, sys.argv[1])
import refclock
from fractions import Fraction

def work(n):
    m = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return m[-1][-1]

refclock.pin_to_core()
print(refclock.Sampler().measure(work, 45)[1].ref_s)
"""


def _probe() -> float:
    out = subprocess.run([sys.executable, "-c", PROBE, HERE], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def _agree(a: float, b: float) -> bool:
    return abs(a - b) <= BOUND * min(a, b)


def test_calibration() -> tuple[bool, str]:
    batches = [[_probe() for _ in range(5)] for _ in range(2)]
    m = [statistics.median(b) for b in batches]
    return _agree(*m), f"batch medians {m[0]:.4f} / {m[1]:.4f} ref s"


def test_traced_counts(src: str) -> tuple[bool, str]:
    ops = workloads.build("session-warm", 1)
    passes = [run.run_pass("session-warm", src, ops, mode) for mode in ("plain", "traced", "traced", "profiled")]
    counts = [run.work_counts(run.sum_trace(p["parts"])) for p in passes[1:3]]
    digests = {run.digest(p["results"]) for p in passes}
    ok = counts[0] == counts[1] and len(digests) == 1
    return ok, f"{len(counts[0])} work counts {'equal' if counts[0] == counts[1] else 'DIFFER'}; " \
               f"{len(digests)} distinct output digest(s) over 4 passes"


def test_seeds(src: str) -> tuple[bool, str, list]:
    ok, notes, runs = True, [], []
    for wl in workloads.WORKLOADS:
        same = workloads.family_multiset(workloads.build(wl, 1)) == \
            workloads.family_multiset(workloads.build(wl, 2))
        ok &= same
        notes.append(f"{wl} multiset {'same' if same else 'DIFFERS'}")
    for wl in ("cli-cold", "session-warm"):
        totals = []
        for seed in (1, 2):
            ops = workloads.build(wl, seed)
            res = run.run_pass(wl, src, ops)
            totals.append(sum(r["timing"]["ref_s"] for r in res["results"]))
            runs.append((wl, seed, ops, res))
        ok &= _agree(*totals)
        notes.append(f"{wl} totals {totals[0]:.3f} / {totals[1]:.3f} ref s")
    return ok, "; ".join(notes), runs


def test_tail(runs: list) -> tuple[bool, str]:
    ok, notes = True, []
    for wl, seed, ops, res in runs:
        order = sorted(range(len(ops)), key=lambda i: res["results"][i]["timing"]["ref_s"])
        k = run.tail_rank(len(ops))
        fams = [ops[order[j]]["family"] for j in (k - 1, k, k + 1)]
        inside = len(set(fams)) == 1
        ok &= inside
        notes.append(f"{wl}/{seed} tail in {fams[1]} ({'inside' if inside else 'BOUNDARY: ' + ', '.join(fams)})")
    return ok, "; ".join(notes)


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ampletori", "__init__.py")):
        print("error: run from a checkout root holding src/ampletori", file=sys.stderr)
        return 2
    refclock.pin_to_core()
    results = [("calibration", *test_calibration()),
               ("traced work counts", *test_traced_counts(src))]
    ok, note, runs = test_seeds(src)
    results.append(("seeds", ok, note))
    results.append(("tail inside a cluster", *test_tail(runs)))
    for name, passed, note in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {note}")
    print(json.dumps({"selftest_pass": all(r[1] for r in results)}))
    return 0 if all(r[1] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
