"""Benchmark worker: runs a list of ops in this process and reports timings.

Reads a job from stdin as JSON:

    {"src": "<dir holding the ampletori package>",
     "mode": "plain" | "traced" | "profiled",
     "ops": [{"kind": "construct", "request": {...}} | {"kind": "paper"}],
     "spans_path": "<file for the traced pass>" (traced mode only)}

and prints one JSON line: per op the canonical output text (or the error)
and its timing in reference seconds, plus the worker's peak RSS, and in
traced or profiled mode the trace summary or the cProfile figures.

An op is what a user's call does: `construct` is PipelineRequest.from_json
-> run_pipeline -> serialize.dumps (the `--json construct` path), `paper`
is verify_paper_examples() with its rows dumped canonically. Any exception
ends the op as failed, taxonomy errors included.

The plain and traced passes sample the reference loop during each op (the
tracer takes the handler's time out of its spans); the profiled pass only
brackets each op, so the handler stays out of the profile.
"""

from __future__ import annotations

import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refclock  # noqa: E402


def _construct(request):
    from ampletori import pipeline, serialize

    req = pipeline.PipelineRequest.from_json(request)
    report = pipeline.run_pipeline(req)
    return serialize.dumps(report.to_json())


def _paper():
    from ampletori import pipeline, serialize

    return serialize.dumps(pipeline.verify_paper_examples())


def _run_op(op):
    if op["kind"] == "paper":
        return _paper()
    return _construct(op["request"])


def run_job(job: dict) -> dict:
    refclock.pin_to_core()
    sys.path.insert(0, job["src"])
    import ampletori  # noqa: F401  (import cost is measured separately)

    mode = job.get("mode", "plain")
    # the profiled pass only brackets, so the handler stays out of the profile
    sampler = refclock.Sampler(in_op=(mode != "profiled"))
    tracer = profiler = None
    if mode == "traced":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(lambda: sampler.handler_ns)
        tracer.install()
    elif mode == "profiled":
        import cProfile

        profiler = cProfile.Profile()

    results = []
    for i, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = i
        call = (profiler.runcall, _run_op) if profiler is not None else (_run_op,)
        try:
            output, timing = sampler.measure(*call, op)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            output, timing = None, sampler.last
            error = f"{type(exc).__name__}: {exc}"
        results.append({"output": output, "error": error, "timing": timing.to_json()})

    out = {
        "results": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.summary([r["timing"]["factor"] for r in results])
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    if profiler is not None:
        out["profile"] = _profile_summary(profiler)
    return out


def _profile_summary(profiler) -> dict:
    import pstats

    stats = pstats.Stats(profiler).stats
    total = sum(v[2] for v in stats.values())
    frac = sum(v[2] for k, v in stats.items() if k[0].endswith(os.sep + "fractions.py"))
    return {"total_self_s": total, "fractions_self_s": frac}


def main() -> int:
    job = json.loads(sys.stdin.read())
    out = run_job(job)
    sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
