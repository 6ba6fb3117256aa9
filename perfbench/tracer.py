"""Spans and counters recorded from outside the program.

The benchmark wraps public functions and methods of weatherlpr at run time
(module attributes, class attributes, or attributes of one instance) and
undoes every wrap afterwards, so untraced rounds run the program unchanged.
Spans live in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import inspect
import json
import time
from types import ModuleType

_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr, make_wrapper):
        """Replace ``owner.attr`` by ``make_wrapper(original)``.

        A classmethod keeps its kind; on an instance the bound method is
        wrapped and stored on the instance, so other instances are untouched.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        elif isinstance(owner, (type, ModuleType)):
            new = make_wrapper(raw)
        else:
            new = make_wrapper(getattr(owner, attr))
        own = vars(owner).get(attr, _MISSING)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, new)

    def undo(self):
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


class Tracer:
    """Nested spans (name, parent, start, end) and named counters."""

    def __init__(self):
        self.spans = []       # [name, parent index or -1, start, end]
        self.counts = {}
        self._stack = []

    def span(self, name):
        """Wrapper factory timing each call as a span named ``name``, or
        ``name(args, kwargs)`` when the name depends on the arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                idx = len(spans)
                spans.append([label, stack[-1] if stack else -1, clock(), 0.0])
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][3] = clock()
            return traced
        return make

    def counter(self, name):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted
        return make

    def durations(self, name):
        return [end - start for label, _, start, end in self.spans if label == name]

    def self_times(self):
        """Total self time per span name: a span's duration minus the part
        covered by its direct children."""
        child = [0.0] * len(self.spans)
        for label, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for k, (label, _, start, end) in enumerate(self.spans):
            totals[label] = totals.get(label, 0.0) + (end - start) - child[k]
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for label, parent, start, end in self.spans:
                fh.write(json.dumps({"name": label, "parent": parent,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counters": self.counts}) + "\n")
