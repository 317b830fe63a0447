"""
Span tracing of the shardorder modules, installed from outside the package.

``Tracer.install`` replaces every public module-level function of the traced
modules with a wrapper, in every ``shardorder`` namespace that binds it
(``shelling`` does ``from .lattice import covers_up, leq``, so patching the
defining module alone would miss its calls).  Nothing under ``src/`` changes.

A span is recorded where a call crosses a layer boundary, i.e. enters a
module from another module or from the benchmark.  Calls within one module
are only counted, and their time stays with the enclosing span, except for
the functions in ``ALWAYS_SPAN``, which get a span wherever they are called
so their own self time can be reported.  A span's self time is its
duration minus the durations of its child spans; a layer's self time is the
sum over the spans of its functions.

Two kinds of function are counted and never spanned, per calling namespace
(so ``lattice.leq`` called through ``shelling`` counts as ``shelling.leq``):
``COUNT_ONLY`` functions, called too often for a span to cost less than the
work it measures, and generator functions, whose call returns before any of
their work is done (the iteration is charged to the consumer).

Spans live in memory until ``write_spans`` writes them out.
"""
from __future__ import annotations

import gzip
import inspect
import itertools
import sys
import time
from array import array
from collections import Counter

MODULES = ("perms", "preorders", "shards", "lattice", "shelling", "sortable", "cli")

# Tens of millions of calls per `chains --n 7`; a counter alone adds seconds.
COUNT_ONLY = frozenset({"lattice.leq"})

# Per-layer metrics of a traced run, by name, with their units.  A name
# ending in .self_s, .calls, .hit_ratio or .distinct is read from the spans,
# counters and caches of the function or module it names.
LAYER_METRICS = {
    **{f"{m}.self_s": "s" for m in MODULES},
    "perms.contains_barred_pattern.calls": "count",
    "preorders.mu.calls": "count",
    "preorders.mu.hit_ratio": "ratio",
    "preorders.lam.calls": "count",
    "preorders.blocks.hit_ratio": "ratio",
    "preorders.block_order.hit_ratio": "ratio",
    "preorders.ordered_blocks.hit_ratio": "ratio",
    "preorders.cache_entries": "count",
    "shards.intersect.calls": "count",
    "lattice.build_lattice.self_s": "s",
    "lattice.cover_edges": "count",
    "lattice.covers_up.self_s": "s",
    "lattice.covers_up.calls": "count",
    "lattice.covers_up.hit_ratio": "ratio",
    "lattice.covers_up.distinct": "count",
    "lattice.join.self_s": "s",
    "shelling.mobius.self_s": "s",
    "shelling.count_decreasing_chains.self_s": "s",
    "shelling.count_decreasing_chains.calls": "count",
    "shelling.edge_label.calls": "count",
    "shelling.leq.calls": "count",
    "sortable.sortable_permutations.self_s": "s",
    "sortable.noncrossing_preorders.self_s": "s",
    "sortable.is_noncrossing_preorder.calls": "count",
    "sortable.keep_ratio": "ratio",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Functions whose own self time is a metric get a span on every call.
ALWAYS_SPAN = frozenset(
    name.removesuffix(".self_s") for name in LAYER_METRICS
    if name.endswith(".self_s") and name.count(".") == 2
)

# The cache behind a function, where it is not the function itself.
CACHE_OF = {"lattice.covers_up": "lattice._covers_up_cached"}


class Tracer:
    def __init__(self):
        self.calls: dict[str, list[int]] = {}
        self.self_ns: dict[str, list[int]] = {}
        self.caches: dict[str, object] = {}
        self.names: list[str] = []
        self.trace_id = 0  # set by the caller: the operation a span belongs to
        # Root frame [span id, module, child ns] standing for the benchmark.
        self._stack = [[0, "bench", 0]]
        self._ids = itertools.count(1)
        self._cols = tuple(array("q") for _ in range(6))

    def install(self) -> None:
        """Wrap the traced modules' functions in every shardorder namespace."""
        import shardorder.cli  # noqa: F401  (loads every traced module)

        originals = {}
        for short in MODULES:
            mod = sys.modules[f"shardorder.{short}"]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches[f"{short}.{attr}"] = obj
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                originals[id(obj)] = (obj, short, f"{short}.{attr}")

        span_wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "shardorder" and not modname.startswith("shardorder."):
                continue
            namespace = modname.removeprefix("shardorder.")
            for attr, obj in list(vars(mod).items()):
                if id(obj) not in originals:
                    continue
                fn, short, name = originals[id(obj)]
                if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
                    wrapper = self._counter(fn, f"{namespace}.{attr}")
                else:
                    if id(fn) not in span_wrappers:
                        span_wrappers[id(fn)] = self._spanner(fn, short, name)
                    wrapper = span_wrappers[id(fn)]
                setattr(mod, attr, wrapper)

    def _counter(self, fn, name):
        cell = self.calls.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanner(self, fn, module, name):
        cell = self.calls.setdefault(name, [0])
        self_cell = self.self_ns.setdefault(name, [0])
        always = name in ALWAYS_SPAN
        name_idx = len(self.names)
        self.names.append(name)
        stack, ids, clock = self._stack, self._ids, time.perf_counter_ns
        c_id, c_parent, c_name, c_trace, c_start, c_end = self._cols

        def spanned(*args, **kwargs):
            cell[0] += 1
            parent = stack[-1]
            if parent[1] == module and not always:
                return fn(*args, **kwargs)
            frame = [next(ids), module, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[2] += duration
                self_cell[0] += duration - frame[2]
                c_id.append(frame[0])
                c_parent.append(parent[0])
                c_name.append(name_idx)
                c_trace.append(self.trace_id)
                c_start.append(start)
                c_end.append(end)

        return spanned

    def summary(self) -> dict:
        """Call counts, self times and cache statistics, JSON-ready."""
        return {
            "calls": {k: v[0] for k, v in self.calls.items()},
            "self_s": {k: v[0] / 1e9 for k, v in self.self_ns.items()},
            "caches": {
                k: [info.hits, info.misses, info.currsize]
                for k, info in ((k, fn.cache_info()) for k, fn in self.caches.items())
            },
            "spans": len(self._cols[0]),
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\ttrace\tstart_ns\tend_ns\n")
            for sid, parent, idx, trace, start, end in zip(*self._cols):
                fh.write(f"{sid}\t{parent}\t{self.names[idx]}\t{trace}\t{start}\t{end}\n")


def layer_metrics(summaries, kept: int, measured: dict) -> dict:
    """Per-layer metrics from the summaries of the traced processes of a pass.

    Times and counts add up over processes; cache sizes are the largest any
    one process reached.  ``kept`` is the number of elements the sortable
    filters returned; ``measured`` holds the metrics read outside the trace.
    """
    calls, self_s, hits, misses, size = Counter(), Counter(), Counter(), Counter(), Counter()
    preorder_entries = 0
    for s in summaries:
        calls.update(s["calls"])
        self_s.update(s["self_s"])
        for name, (h, m, entries) in s["caches"].items():
            hits[name] += h
            misses[name] += m
            size[name] = max(size[name], entries)
        preorder_entries = max(preorder_entries, sum(
            entries for name, (_, _, entries) in s["caches"].items()
            if name.startswith("preorders.")
        ))
    examined = calls["sortable.is_c_sortable"] + calls["sortable.is_noncrossing_preorder"]
    out = {
        **measured,
        "preorders.cache_entries": preorder_entries,
        "sortable.keep_ratio": kept / examined if examined else 0.0,
    }
    for name in LAYER_METRICS:
        if name in out:
            continue
        base, _, kind = name.rpartition(".")
        cache = CACHE_OF.get(base, base)
        if kind == "self_s" and "." in base:
            out[name] = self_s[base]
        elif kind == "self_s":
            out[name] = sum(v for k, v in self_s.items() if k.startswith(base + "."))
        elif kind == "calls":
            out[name] = calls[base]
        elif kind == "hit_ratio":
            total = hits[cache] + misses[cache]
            out[name] = hits[cache] / total if total else 0.0
        elif kind == "distinct":
            out[name] = size[cache]
    return {name: out[name] for name in LAYER_METRICS}
