"""In-memory span tracer around the public functions of each wishmom layer.

`install` wraps every public module-level function of the layers below and
the two lazy accessors of `WishartParams`, and rebinds each wrapper in the
namespace of every wishmom module that holds the original, so calls between
layers are seen too.  A span is (id, parent id, job id, name, start, end,
items); `items` is the length of a returned list, or the number of Wishart
draws for the Monte Carlo estimators.  Nothing under the library changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("combinatorics", "model", "matrix_core", "univariate", "multivariate",
          "applications", "mc", "cli")

# Wishart draws made by one call, from its bound arguments
_DRAWS = {
    "mc.estimate_joint_moment": lambda a: a["n_samples"],
    "mc.estimate_generalized_moment": lambda a: a["n_samples"],
    "mc.estimate_trace_cumulants": lambda a: a["n_samples"],
    "mc.distribution_identity_check": lambda a: 3 * a["n_samples"],
}


class Tracer:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job_id = 0
        self._stack = [0]
        self._next_id = 1

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def wrap(self, name, fn, count=None, before=None):
        """`fn` recording one span per call; `count(args, kwargs, out, pre)`
        gives the span's items, with `pre = before(args, kwargs)`."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._new_id()
            parent = stack[-1]
            pre = before(args, kwargs) if before else None
            stack.append(sid)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                items = count(args, kwargs, out, pre) if count else (
                    len(out) if isinstance(out, list) else 0)
                spans.append((sid, parent, self.job_id, name, start, end, items))

        return traced

    def job(self, job_id: int, fn):
        """Run fn() as the root span of job `job_id` and return its result."""
        self.job_id = job_id
        sid = self._new_id()
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, 0, job_id, "bench.job", start, end, 0))

    def record(self, name, start, end, items=0):
        """A span measured by the caller, under the current parent."""
        self.spans.append((self._new_id(), self._stack[-1], self.job_id,
                           name, start, end, items))

    def adopt(self, path):
        """Append the spans another process wrote to `path` with `dump`,
        re-parenting its roots under the current span."""
        parent_id = self._stack[-1]
        base = self._next_id
        top = 0
        with open(path) as f:
            for line in f:
                sid, parent, _job, name, start, end, items = json.loads(line)
                self.spans.append((base + sid, base + parent if parent else parent_id,
                                   self.job_id, name, start, end, items))
                top = max(top, sid)
        self._next_id = base + top + 1

    def dump(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _draws_counter(name, fn):
    sig = inspect.signature(fn)
    draws = _DRAWS[name]

    def count(args, kwargs, out, pre):
        return int(draws(sig.bind(*args, **kwargs).arguments))

    return count


def _cache_depth(orig):
    def before(args, kwargs):
        return orig(args[0], 0).depth

    def count(args, kwargs, out, pre):
        return int(out.depth > pre)  # 1 when this call extended the cache

    return before, count


def install(tracer: Tracer):
    """Wrap every layer's public functions; returns a callable that undoes it."""
    modules = [importlib.import_module(f"wishmom.{layer}") for layer in LAYERS]
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                count = _draws_counter(name, obj) if name in _DRAWS else None
                wrapped[id(obj)] = (obj, tracer.wrap(name, obj, count))

    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "wishmom" or mod_name.startswith("wishmom.")):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                undo.append((mod, attr, obj))

    params_cls = modules[LAYERS.index("model")].WishartParams
    trace_cache = params_cls.trace_cache
    before, count = _cache_depth(trace_cache)
    for attr, wrapper in (
            ("trace_cache", tracer.wrap("model.trace_cache", trace_cache, count, before)),
            ("noncentrality", tracer.wrap("model.noncentrality", params_cls.noncentrality))):
        undo.append((params_cls, attr, getattr(params_cls, attr)))
        setattr(params_cls, attr, wrapper)

    def uninstall():
        for target, attr, obj in reversed(undo):
            setattr(target, attr, obj)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

class SpanStats:
    """Calls, items, self and total time per span name, over one traced pass."""

    def __init__(self, spans):
        covered = defaultdict(float)
        for _sid, parent, _job, _name, start, end, _items in spans:
            covered[parent] += end - start
        self.calls = defaultdict(int)
        self.items = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.solves_under_noncentrality = 0
        names = {}
        for sid, _parent, _job, name, start, end, items in spans:
            names[sid] = name
        for sid, parent, _job, name, start, end, items in spans:
            self.calls[name] += 1
            self.items[name] += items
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered[sid]
            if name == "matrix_core.solve" and names.get(parent) == "model.noncentrality":
                self.solves_under_noncentrality += 1

    def layer(self, layer, field):
        table = self.calls if field == "calls" else self.self_s
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    def self_total(self) -> float:
        return sum(self.self_s.values())
