"""Span recorder for the horolab benchmark.

Spans are recorded from outside the package: `Tracer.patch_function`
replaces a function in every loaded module namespace (and module-level
dict or list) that holds it, so names bound at import through
`from ... import` are wrapped where the caller looks them up, and
`Tracer.patch_method` wraps a method on its class.  A name that no longer
exists is recorded as missing instead of raising.

Spans live in memory as columns of flat arrays (name id, start, end,
parent index, seconds in direct children), which the garbage collector
does not scan however many spans a run records.  A span's self time is its duration minus the time in its direct
child spans: spans of one thread nest, so direct children never overlap
and their total is the part of the interval they cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []  # span name per name id
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_child_s = array("d")  # seconds in direct child spans
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []

    def note_missing(self, what: str):
        if what not in self.missing:
            self.missing.append(what)

    def count(self, name: str, n=1):
        self.counts[name] += n

    def wrap(self, name: str, fn, on_call=None):
        """Wrap `fn` in a span; `on_call(args, kwargs, result)` adds counts."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, child_s = self.span_parent, self.span_child_s
        stack, clock = self._stack, self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            child_s.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = end = clock()
                stack.pop()
                parent = parents[idx]
                if parent >= 0:
                    child_s[parent] += end - starts[idx]
            if on_call is not None:
                try:
                    on_call(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError) as exc:
                    tracer.note_missing(f"{name} counts ({type(exc).__name__}: {exc})")
            return result

        return traced

    def patch_function(self, module: str, attr: str, name: str, on_call=None) -> bool:
        """Wrap module.attr wherever a loaded module of its package holds it."""
        mod = sys.modules.get(module)
        fn = getattr(mod, attr, None) if mod is not None else None
        if fn is None:
            self.note_missing(name)
            return False
        replace_everywhere(fn, self.wrap(name, fn, on_call), module.split(".")[0])
        return True

    def patch_method(self, module: str, cls: str, attr: str, name: str, on_call=None) -> bool:
        """Wrap cls.attr on the class itself."""
        owner = getattr(sys.modules.get(module), cls, None)
        fn = owner.__dict__.get(attr) if owner is not None else None
        if fn is None:
            self.note_missing(name)
            return False
        setattr(owner, attr, self.wrap(name, fn, on_call))
        return True

    def summary(self) -> dict:
        """name -> {calls, s, self_s, durations} over all recorded spans."""
        aggs = [{"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []} for _ in self.names]
        for nid, start, end, child_s in zip(
            self.span_name, self.span_start, self.span_end, self.span_child_s
        ):
            agg = aggs[nid]
            duration = end - start
            agg["calls"] += 1
            agg["s"] += duration
            agg["self_s"] += duration - child_s
            agg["durations"].append(duration)
        return {name: agg for name, agg in zip(self.names, aggs) if agg["calls"]}


def replace_everywhere(old, new, package: str) -> int:
    """Rebind every reference to `old` held by a module of `package`.

    Looks in module globals and in module-level dicts and lists (such as a
    command table), which is where callers look the object up at run time.
    """
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
                hits += 1
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new
                        hits += 1
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    if v is old:
                        value[i] = new
                        hits += 1
    return hits
