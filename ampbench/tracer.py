"""Per-layer tracing from outside the program.

`install()` wraps every public function of each layer module, the public
methods of the classes a layer defines, and installs each wrapper at every
name callers look the function up by: the module attribute (which is also
the global that calls inside the module resolve) and every `from .m import f`
rebinding in any `ampletori` module. Nothing in `src/` changes.

A call records a span `[name, start_ns, end_ns, parent, op]` in memory, on
the thread CPU clock. The reference sampler's handler may run inside a span;
its time is taken out, so `end_ns - start_ns` is the span's own CPU time.
Work counts are computed from arguments and results by small hooks. A
generator function's span covers only the call that creates the generator;
the iteration is charged to the consumer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types

LAYERS = (
    "pipeline", "etale", "polynomials", "places", "torus", "units",
    "intervals", "realsplit", "linalg", "matgroups", "conjugacy", "serialize",
)

# Counted work: name -> (pre(args, kwargs) -> token, post(token, args, kwargs, result)).
# post returns a dict of count increments (maxima for keys ending "_max").


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _auto_pre(args, kwargs):
    from ampletori import matgroups

    return len(matgroups._AUTOMORPHISM_CACHE)


def _auto_post(before, args, kwargs, result):
    from ampletori import matgroups

    if len(matgroups._AUTOMORPHISM_CACHE) == before:
        return {"hits": 1}
    e = args[0]
    bound = _arg(args, kwargs, 1, "coord_bound", 50)
    return {"box_points": (2 * bound + 1) ** (e.n - 1)}


def _search_post(_, args, kwargs, result):
    e = args[0]
    bound = _arg(args, kwargs, 1, "coord_bound", 0)
    return {"box_points": (2 * bound + 1) ** e.n, "hits": len(result)}


def _conj_post(_, args, kwargs, result):
    return {"transposed": int(result is not None and result.transposed)}


def _rref_post(_, args, kwargs, result):
    a = args[0]
    return {"cells": len(a) * len(a[0]) if a else 0}


def _log_embedding_post(_, args, kwargs, result):
    return {"precision_bits_max": _arg(args, kwargs, 3, "bits", 64)}


def _ample_post(_, args, kwargs, result):
    return {"submodules_checked": len(result.submodules)}


def _dumps_post(_, args, kwargs, result):
    return {"bytes": len(result)}


def _log_fraction_pre(fn):
    return lambda args, kwargs: fn.cache_info().hits


def _log_fraction_post(fn):
    return lambda before, args, kwargs, result: {"hits": fn.cache_info().hits - before}


HOOKS = {
    "matgroups.enumerate_automorphisms": (_auto_pre, _auto_post),
    "units.search_units": (None, _search_post),
    "conjugacy.find_simultaneous_conjugator": (None, _conj_post),
    "linalg.rref": (None, _rref_post),
    "units.build_log_embedding": (None, _log_embedding_post),
    "torus.is_s_ample": (None, _ample_post),
    "serialize.dumps": (None, _dumps_post),
}


class Tracer:
    def __init__(self, sampler_ns=lambda: 0):
        """`sampler_ns()` reads the sampler's cumulative handler time."""
        self.sampler_ns = sampler_ns
        self.spans: list = []
        self._stack: list[int] = []
        self.op = 0
        self.counts: dict[str, dict[str, int]] = {}

    # -- installation ----------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        pre, post = HOOKS.get(name, (None, None))
        if name == "intervals.log_fraction":
            pre, post = _log_fraction_pre(fn), _log_fraction_post(fn)
        counts = self.counts.setdefault(name, {})
        clock = time.thread_time_ns
        sampler_ns = self.sampler_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            h0 = sampler_ns()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock() - (sampler_ns() - h0)
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1, tracer.op)
            if post:
                for key, v in post(token, args, kwargs, result).items():
                    if key.endswith("_max"):
                        counts[key] = max(counts.get(key, 0), v)
                    else:
                        counts[key] = counts.get(key, 0) + v
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer, at every name."""
        import importlib

        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ampletori.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__ and (
                    isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
                ):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ampletori" or mod_name.startswith("ampletori.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, obj.__func__)))

    # -- results ---------------------------------------------------------
    def summary(self, factors: list[float]) -> dict:
        """Aggregate spans; times are scaled by each op's reference factor."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        fn: dict[str, list] = {}
        layer_self: dict[str, float] = {}
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            k = factors[op] / 1e9
            dur = (t1 - t0) * k
            self_s = (t1 - t0 - child[i]) * k
            rec = fn.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[2] += self_s
            # inclusive time only for outermost calls of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                rec[1] += dur
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        nested = {}
        for s in spans:
            if s[0] == "linalg.kernel_basis":
                p = s[3]
                while p >= 0:
                    if spans[p][0] == "conjugacy.find_simultaneous_conjugator":
                        nested["conjugacy.kernel_solves"] = nested.get("conjugacy.kernel_solves", 0) + 1
                        break
                    p = spans[p][3]
        return {
            "functions": fn,
            "layer_self_s": layer_self,
            "counts": {k: v for k, v in self.counts.items() if v},
            "nested": nested,
        }

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")
