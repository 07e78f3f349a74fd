"""Benchmark entry point for ampletori (stdlib only).

    python3 ampbench/run.py --workload {paper,cli-cold,session-warm}
                            --seed N --seconds S --trace {0,1}

Run from the root of a checkout holding `src/ampletori`. One process runs
one pinned worker at a time (see worker.py) and checks every output with
check.py, which never imports the program. Timings are reference seconds
(see refclock.py). The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are
diagnostics: raw CPU seconds, the calibration factor, sample counts and the
failed ops.

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 one round of the same ops runs three times (untraced,
traced, profiled) and the metrics are the per-layer ones; output digests
must match across the three passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import refclock  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_SPAWNS = 15
OUT_DIR = ".ampbench_out"
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _worker(src: str, ops: list[dict], mode: str = "plain", spans_path: str | None = None) -> dict:
    job = {"src": src, "mode": mode, "ops": [_job_op(op) for op in ops], "spans_path": spans_path}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _job_op(op: dict) -> dict:
    return {"kind": op["kind"], "request": op.get("request")}


def run_pass(workload: str, src: str, ops: list[dict], mode: str = "plain", out_dir=None) -> dict:
    """Run the ops: a fresh worker per op, or one worker for session-warm."""
    if workload == "session-warm":
        spans = os.path.join(out_dir, f"{workload}.spans.jsonl.gz") if out_dir else None
        parts = [_worker(src, ops, mode, spans)]
    else:
        parts = []
        for i, op in enumerate(ops):
            spans = os.path.join(out_dir, f"{workload}-{i}.spans.jsonl.gz") if out_dir else None
            parts.append(_worker(src, [op], mode, spans))
    results = [r for p in parts for r in p["results"]]
    return {"results": results, "parts": parts,
            "maxrss_kb": max(p["maxrss_kb"] for p in parts)}


def measure_setup(src: str) -> list[dict]:
    """Spawn fresh interpreters that import ampletori; the first only compiles.

    Bytecode writing is allowed for these spawns even where the environment
    disables it, so that the measured imports load compiled bytecode, as an
    installed package's imports do.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    probes = []
    for i in range(SETUP_SPAWNS + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), src],
            capture_output=True, text=True, timeout=60, env=env,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        if i:
            probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def check_outputs(ops: list[dict], results: list[dict]) -> tuple[int, int, list[str]]:
    """(failed, wrong, notes): failed counts errors and wrong outputs."""
    failed = wrong = 0
    notes = []
    for i, (op, res) in enumerate(zip(ops, results)):
        where = f"op {i} {op['family']} {op['algebra']}"
        if res["error"] is not None:
            failed += 1
            notes.append(f"{where}: error {res['error']}")
            continue
        problems = check.check(op, res["output"])
        if problems:
            failed += 1
            wrong += 1
            notes.append(f"{where}: wrong output: {'; '.join(problems)}")
    return failed, wrong, notes


def digest(results: list[dict]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update((r["output"] if r["error"] is None else "error: " + r["error"]).encode())
        h.update(b"\0")
    return h.hexdigest()


def tail_rank(n: int) -> int | None:
    """Index (ascending order) of the highest percentile with >= 10 samples beyond."""
    return n - 11 if n >= 11 else None


def end_to_end(run: dict, setup: list[dict]) -> tuple[dict, list[str]]:
    """Metrics as name -> (value, unit, raw CPU counterpart), and diagnostics."""
    timings = [r["timing"] for r in run["results"]]
    n = len(timings)
    by_ref = sorted(timings, key=lambda t: t["ref_s"])
    k = tail_rank(n)
    tail = by_ref[k if k is not None else -1]
    mid = (by_ref[(n - 1) // 2], by_ref[n // 2])
    setup_ref = statistics.median(p["ref_s"] for p in setup)
    setup_raw = statistics.median(p["cpu_s"] for p in setup)
    metrics = {
        "setup_s": (setup_ref, "s", setup_raw),
        "ops_per_s": (n / sum(t["ref_s"] for t in timings), "1/s",
                      n / sum(t["cpu_s"] for t in timings)),
        "op_p50_ms": ((mid[0]["ref_s"] + mid[1]["ref_s"]) * 500, "ms",
                      (mid[0]["cpu_s"] + mid[1]["cpu_s"]) * 500),
        "op_tail_ms": (tail["ref_s"] * 1e3, "ms", tail["cpu_s"] * 1e3),
        "peak_rss_mb": (run["maxrss_kb"] / 1024, "MB", None),
    }
    factors = [t["factor"] for t in timings]
    cpu = sum(t["cpu_s"] for t in timings)
    overhead = sum(t["overhead_share"] * t["cpu_s"] for t in timings) / cpu
    tail_note = (f"p{100 * (k + 1) / n:.0f} ({n - k - 1} samples beyond)" if k is not None
                 else "the slowest op: too few ops for a tail with 10 samples beyond")
    diag = [
        f"ops={n} (op_p50_ms and op_tail_ms over {n} samples; tail = {tail_note})",
        f"calibration factor (ref s per cpu s): median {statistics.median(factors):.4f}, "
        f"min {min(factors):.4f}, max {max(factors):.4f}; reference samples per op: "
        f"median {statistics.median(t['samples'] for t in timings)}; "
        f"sampling overhead {overhead:.4f} of op cpu",
        f"setup: {len(setup)} spawns, factor median "
        f"{statistics.median(p['factor'] for p in setup):.4f}",
    ]
    return metrics, diag


def sum_trace(parts: list[dict]) -> dict:
    fn: dict[str, list] = {}
    layer = {name: 0.0 for name in LAYERS}
    counts: dict[str, dict] = {}
    nested: dict[str, int] = {}
    for p in parts:
        t = p["trace"]
        for name, rec in t["functions"].items():
            acc = fn.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for name, v in t["layer_self_s"].items():
            layer[name] = layer.get(name, 0.0) + v
        for name, c in t["counts"].items():
            acc = counts.setdefault(name, {})
            for key, v in c.items():
                acc[key] = max(acc.get(key, 0), v) if key.endswith("_max") else acc.get(key, 0) + v
        for name, v in t["nested"].items():
            nested[name] = nested.get(name, 0) + v
    return {"functions": fn, "layer": layer, "counts": counts, "nested": nested}


def work_counts(trace: dict) -> dict:
    """Every deterministic count of a traced pass (calls and hook counts)."""
    out = {f"{name}.calls": rec[0] for name, rec in trace["functions"].items()}
    for name, c in trace["counts"].items():
        for key, v in c.items():
            out[f"{name}.{key}"] = v
    out.update(trace["nested"])
    return out


def per_layer(ops, plain, traced, profiled, src) -> dict:
    t = sum_trace(traced["parts"])
    fn, counts = t["functions"], t["counts"]

    def calls(name):
        return fn.get(name, [0])[0]

    def incl(name):
        return fn.get(name, [0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    auto = counts.get("matgroups.enumerate_automorphisms", {})
    search = counts.get("units.search_units", {})
    logf = counts.get("intervals.log_fraction", {})
    m = {f"{layer}.self_s": (t["layer"].get(layer, 0.0), "s") for layer in LAYERS}
    m.update({
        "matgroups.enumerate_automorphisms.s": (incl("matgroups.enumerate_automorphisms"), "s"),
        "matgroups.enumerate_automorphisms.box_points": (auto.get("box_points", 0), "count"),
        "matgroups.enumerate_automorphisms.cache_hit_ratio": (
            ratio(auto.get("hits", 0), calls("matgroups.enumerate_automorphisms")), "ratio"),
        "conjugacy.find_simultaneous_conjugator.s": (
            incl("conjugacy.find_simultaneous_conjugator"), "s"),
        "conjugacy.find_simultaneous_conjugator.kernel_solves": (
            t["nested"].get("conjugacy.kernel_solves", 0), "count"),
        "conjugacy.find_simultaneous_conjugator.transposed": (
            counts.get("conjugacy.find_simultaneous_conjugator", {}).get("transposed", 0), "count"),
        "units.search_units.s": (incl("units.search_units"), "s"),
        "units.search_units.box_points": (search.get("box_points", 0), "count"),
        "units.search_units.hit_ratio": (ratio(search.get("hits", 0), search.get("box_points", 0)), "ratio"),
        "linalg.int_det.calls": (calls("linalg.int_det"), "count"),
        "linalg.rref.calls": (calls("linalg.rref"), "count"),
        "linalg.kernel_basis.calls": (calls("linalg.kernel_basis"), "count"),
        "linalg.row_space_basis.calls": (calls("linalg.row_space_basis"), "count"),
        "linalg.mat_det.calls": (calls("linalg.mat_det"), "count"),
        "linalg.charpoly.calls": (calls("linalg.charpoly"), "count"),
        "linalg.rref.cells": (counts.get("linalg.rref", {}).get("cells", 0), "count"),
        "matgroups.group_sanity.s": (incl("matgroups.group_sanity"), "s"),
        "units.build_log_embedding.calls": (calls("units.build_log_embedding"), "count"),
        "units.find_certified_minor.calls": (calls("units.find_certified_minor"), "count"),
        "units.precision_bits_max": (
            counts.get("units.build_log_embedding", {}).get("precision_bits_max", 0), "bits"),
        "intervals.log_fraction.hit_ratio": (
            ratio(logf.get("hits", 0), calls("intervals.log_fraction")), "ratio"),
        "realsplit.real_quadratic_split.calls": (calls("realsplit.real_quadratic_split"), "count"),
        "polynomials.isolate_real_roots.calls": (calls("polynomials.isolate_real_roots"), "count"),
        "units.assemble_unit_system.self_s": (fn.get("units.assemble_unit_system", [0, 0, 0.0])[2], "s"),
        "torus.is_s_ample.calls": (calls("torus.is_s_ample"), "count"),
        "torus.submodules_checked": (
            counts.get("torus.is_s_ample", {}).get("submodules_checked", 0), "count"),
        "places.decomposition_profile.calls": (calls("places.decomposition_profile"), "count"),
        "polynomials.factor_mod_p.calls": (calls("polynomials.factor_mod_p"), "count"),
        "etale.is_order.calls": (calls("etale.EtaleAlgebra.is_order"), "count"),
        "serialize.dumps.bytes": (counts.get("serialize.dumps", {}).get("bytes", 0), "bytes"),
    })
    prof = [p["profile"] for p in profiled["parts"]]
    m["fractions.self_share"] = (
        ratio(sum(p["fractions_self_s"] for p in prof), sum(p["total_self_s"] for p in prof)), "ratio")
    plain_s = sum(r["timing"]["ref_s"] for r in plain["results"])
    traced_s = sum(r["timing"]["ref_s"] for r in traced["results"])
    m["trace.overhead_share"] = (traced_s / plain_s - 1.0, "ratio")
    m["src.lines"] = (src_lines(src), "lines")
    m.update(workload_properties(ops))
    return m


def workload_properties(ops: list[dict]) -> dict:
    construct = [op for op in ops if op["kind"] == "construct"]
    if not construct:
        return {"workload.repeat_algebra_share": (0.0, "ratio"),
                "workload.quartic_share": (0.0, "ratio"),
                "workload.mean_s_primes": (0.0, "count")}
    seen, repeats = set(), 0
    for op in construct:
        key = json.dumps(op["request"]["algebra"], sort_keys=True)
        repeats += key in seen
        seen.add(key)
    n = len(construct)
    quartics = sum(len(op["request"]["algebra"]["factors"][0]) == 5 for op in construct)
    primes = sum(len(check.places_primes(op["request"]["places"])) for op in construct)
    return {"workload.repeat_algebra_share": (repeats / n, "ratio"),
            "workload.quartic_share": (quartics / n, "ratio"),
            "workload.mean_s_primes": (primes / n, "count")}


def src_lines(src: str) -> int:
    pkg = os.path.join(src, "ampletori")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=11)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ampletori", "__init__.py")):
        print(f"error: no ampletori package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    refclock.pin_to_core()

    rounds = 1 if args.trace else workloads.rounds_for(args.workload, args.seconds)
    ops = workloads.build(args.workload, args.seed, rounds)
    print(f"workload {args.workload} seed {args.seed} rounds {rounds} ops {len(ops)}")
    try:
        if args.trace:
            out_dir = os.path.join(root, OUT_DIR)
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            plain = run_pass(args.workload, src, ops)
            traced = run_pass(args.workload, src, ops, "traced", out_dir)
            profiled = run_pass(args.workload, src, ops, "profiled")
            digests = {d: digest(p["results"]) for d, p in
                       (("untraced", plain), ("traced", traced), ("profiled", profiled))}
            metrics = per_layer(ops, plain, traced, profiled, src)
            failed, wrong, notes = check_outputs(ops, plain["results"])
            same = len(set(digests.values())) == 1
            print(f"output digests: {digests} ({'identical' if same else 'DIFFER'})")
            print(f"spans written under {OUT_DIR}/")
            correct = wrong == 0 and same
        else:
            setup = measure_setup(src)
            result = run_pass(args.workload, src, ops)
            metrics, diag = end_to_end(result, setup)
            failed, wrong, notes = check_outputs(ops, result["results"])
            for line in diag:
                print(line)
            correct = wrong == 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(f"failed {failed} of {len(ops)} ops ({failed / len(ops):.4f})")
    for name, (value, unit, *raw) in metrics.items():
        raw_note = f" (raw cpu {raw[0]:.6g})" if raw and raw[0] is not None else ""
        print(f"  {name} = {value:.6g} {unit}{raw_note}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
