"""Tracing from outside the library: wrap its public functions and record
one span per call.

A span is (name, start, end, parent).  Spans live in compact arrays while
the run goes and are written out once it ends.  A generator function is
timed only inside each ``next()``, so time the consumer spends between
items is not charged to it; only its first ``next()`` counts as a call,
later ones are resumptions.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import statistics
import sys
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

# The modules whose cost the benchmark attributes; ``corpus`` (inputs) and
# ``errors`` (plumbing) are deliberately not layers.
LAYERS = ("cli", "serialize", "simplicial", "cat", "twocat", "subdivision",
          "presentations", "lifting", "homology", "localizer")

# Public methods that carry job-level work; every other method is left alone
# because per-cell accessors would dominate the trace.
METHODS = (("homology", "SmithNormalForm", "verify"),)

# Per-cell helpers of the simplex category, called 10^5-10^6 times per pass
# by the simplicial search kernel itself.  They are traced only where another
# module calls them; inside simplicial their time is simplicial's self time
# either way, and tracing each call there would triple the pass time.
LOCAL_UNTRACED = {"simplicial.simplicial_operator", "simplicial.is_monotone",
                  "simplicial.codegeneracy", "simplicial.compose_monotone",
                  "simplicial.coface", "simplicial.monotone_maps"}

# Inclusive-time groups: the time spent in the outermost call of any member,
# so nested members (smap_from_doc calling sset_from_doc) count once.
GROUPS = {
    "twocat.n2_s": lambda n: n == "twocat.geometric_nerve_cells",
    "simplicial.enum_s": lambda n: n == "simplicial.enumerate_simplicial_maps",
    "simplicial.pushout_s": lambda n: n == "simplicial.pushout",
    "homology.snf_s": lambda n: n == "homology.smith_normal_form",
    "homology.verify_s": lambda n: n == "homology.SmithNormalForm.verify",
    "serialize.from_doc_s": lambda n: n.startswith("serialize.") and n.endswith("_from_doc"),
    "serialize.to_doc_s": lambda n: n.startswith("serialize.") and n.endswith("_to_doc"),
    "serialize.json_s": lambda n: n == "serialize.canonical_json",
}

# Every per-layer figure a traced run reports, with its unit; all are per pass.
PER_LAYER = {f"{layer}.{what}": unit for layer in LAYERS + ("harness",)
             for what, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))}
PER_LAYER.update({
    "twocat.n2_s": "s", "twocat.n2_cells": "count", "twocat.two_functors_yielded": "count",
    "simplicial.enum_s": "s", "simplicial.maps_yielded": "count",
    "simplicial.pushout_s": "s", "simplicial.pushout_cells": "count",
    "lifting.squares": "count", "lifting.lift_found_ratio": "ratio",
    "homology.snf_s": "s", "homology.verify_s": "s", "homology.snf_calls": "count",
    "homology.snf_entries": "count",
    "subdivision.sd_cells": "count", "subdivision.ex_cells": "count",
    "cat.nerve_cells": "count", "cat.functors_yielded": "count",
    "presentations.realize_finite_ratio": "ratio",
    "serialize.from_doc_s": "s", "serialize.to_doc_s": "s", "serialize.json_s": "s",
    "serialize.out_bytes": "bytes",
    "trace.overhead_s": "s", "trace.spans": "count",
})


def _cells(X) -> int:
    return sum(X.counts())


def _rows_cols(M) -> int:
    return len(M) * (len(M[0]) if M else 0)


# Counters read off a call's arguments and result: name -> [(counter, fn)].
OBSERVERS = {
    "twocat.geometric_nerve_cells": [("twocat.n2_cells", lambda a, r: _cells(r[0]))],
    "simplicial.pushout": [("simplicial.pushout_cells", lambda a, r: _cells(r[0]))],
    "homology.smith_normal_form": [("homology.snf_calls", lambda a, r: 1),
                                   ("homology.snf_entries", lambda a, r: _rows_cols(a[0]))],
    "subdivision.sd": [("subdivision.sd_cells", lambda a, r: _cells(r[0]))],
    "subdivision.ex_cells": [("subdivision.ex_cells", lambda a, r: _cells(r[0]))],
    "cat.nerve": [("cat.nerve_cells", lambda a, r: _cells(r))],
    "lifting.find_lift": [("lifting.lift_attempts", lambda a, r: 1),
                          ("lifting.lift_found", lambda a, r: r is not None)],
    "presentations.realize_cat": [("presentations.realize_calls", lambda a, r: 1),
                                  ("presentations.realize_finite", lambda a, r: r.status == "finite")],
    "presentations.realize_twocat": [("presentations.realize_calls", lambda a, r: 1),
                                     ("presentations.realize_finite", lambda a, r: r.status == "finite")],
    "serialize.canonical_json": [("serialize.out_bytes", lambda a, r: len(r.encode("utf-8")))],
}

# Items yielded by generator functions: name -> counter.
YIELDS = {
    "twocat.enumerate_two_functors": "twocat.two_functors_yielded",
    "simplicial.enumerate_simplicial_maps": "simplicial.maps_yielded",
    "lifting.generator_squares": "lifting.squares",
    "cat.enumerate_functors": "cat.functors_yielded",
}


class Tracer:
    """Span recorder.  One per traced run; not thread-safe (the benchmark is
    single-threaded by design)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = bytearray()
        self.resumed = bytearray()    # 1 for a generator's second and later next()
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._group_of: dict[int, tuple[str, ...]] = {}
        self._depth: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._group_of[self._ids[name]] = tuple(g for g, m in GROUPS.items() if m(name))
        return self._ids[name]

    def open(self, nid: int, resumed: bool = False) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.failed.append(0)
        self.resumed.append(resumed)
        self._stack.append(idx)
        for g in self._group_of[nid]:
            self._depth[g] += 1
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        if failed:
            self.failed[idx] = 1
        for g in self._group_of[self.name[idx]]:
            self._depth[g] -= 1
            if self._depth[g] == 0:
                self.inclusive[g] += t - self.start[idx]

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        observers = OBSERVERS.get(name, ())
        if inspect.isgeneratorfunction(fn):
            counter = YIELDS.get(name, name + ".yielded")

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._iterate(nid, counter, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            for counter, get in observers:
                self.counters[counter] += int(get(args, result))
            return result

        return wrapper

    def _iterate(self, nid: int, counter: str, it):
        resumed = False
        while True:
            idx = self.open(nid, resumed)
            resumed = True
            try:
                item = next(it)
            except StopIteration:
                self.close(idx)
                return
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            self.counters[counter] += 1
            yield item

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness-level span (one job)."""
        idx = self.open(self.name_id(name))
        try:
            yield
        except BaseException:
            self.close(idx, failed=True)
            raise
        self.close(idx)

    # -- output -------------------------------------------------------------------

    def snapshot(self) -> tuple[int, dict[str, int], dict[str, float]]:
        """Marks a pass boundary: span count, counters and inclusive times so far."""
        return len(self.name), dict(self.counters), dict(self.inclusive)

    def layer_totals(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer calls, self time and failed calls over spans [lo, hi).
        A generator's resumptions add self time but no calls."""
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            layer = self.names[self.name[i]].split(".", 1)[0]
            out[f"{layer}.calls"] += 1 - self.resumed[i]
            out[f"{layer}.self_s"] += (self.end[i] - self.start[i]) - child[i]
            out[f"{layer}.errors"] += self.failed[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: one header naming the span names, then
        one [name, start_s, end_s, parent] row per span, times from the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names, "fields": ["name", "start_s", "end_s", "parent"]}) + "\n")
            for i in range(len(self.name)):
                out.write(f"[{self.name[i]},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.parent[i]}]\n")


def install(tracer: Tracer) -> None:
    """Replace every binding of a layer's public function, in every module of
    nervelab, by one traced wrapper per function."""
    modules = {name: mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "nervelab" or name.startswith("nervelab."))}
    layer_modules = {f"nervelab.{layer}" for layer in LAYERS}
    wrappers: dict[int, object] = {}

    def traced_name(obj) -> str | None:
        if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
            return None
        module = getattr(obj, "__module__", None)
        if module not in layer_modules or obj.__name__.startswith("_"):
            return None
        return f"{module.rsplit('.', 1)[1]}.{obj.__name__}"

    for mod_name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            name = traced_name(obj)
            if name is None or (name in LOCAL_UNTRACED and obj.__module__ == mod_name):
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = tracer.wrap(name, obj)
            setattr(mod, attr, wrappers[id(obj)])
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[f"nervelab.{layer}"], cls_name)
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))


def layer_metrics(tracer: Tracer, marks: list[tuple[int, dict, dict]]) -> dict[str, float]:
    """Median over passes of each per-pass layer figure.  ``marks`` holds one
    snapshot before each pass and one after the last."""
    per_pass: list[dict[str, float]] = []
    for (lo, c0, i0), (hi, c1, i1) in zip(marks, marks[1:]):
        row = defaultdict(float, tracer.layer_totals(lo, hi))
        for key in set(c0) | set(c1):
            row[key] = c1.get(key, 0) - c0.get(key, 0)
        for key in set(i0) | set(i1):
            row[key] = i1.get(key, 0.0) - i0.get(key, 0.0)
        row["lifting.lift_found_ratio"] = (
            row["lifting.lift_found"] / row["lifting.lift_attempts"]
            if row["lifting.lift_attempts"] else 0.0)
        row["presentations.realize_finite_ratio"] = (
            row["presentations.realize_finite"] / row["presentations.realize_calls"]
            if row["presentations.realize_calls"] else 0.0)
        row["trace.spans"] = hi - lo
        per_pass.append(row)
    keys = set(PER_LAYER).union(*per_pass)
    return {k: statistics.median(row.get(k, 0.0) for row in per_pass) for k in keys}
