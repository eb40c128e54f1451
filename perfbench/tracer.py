"""Spans and counters recorded around the package's public functions.

The tracer wraps a function at the name where its callers look it up (a
module global, a module attribute or a class attribute), so nothing under
``src/`` changes.  Each wrapped call appends one span (name, start, end,
parent span) to flat in-memory arrays; counters are bumped at the same
boundaries.  ``uninstall`` puts every original back, so the output checks
that follow a traced round run on the untouched program.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrapped(self, name, fn, after=None, before=None):
        """``fn`` recorded as span ``name``; ``after(args, result, token)``
        updates counters, ``token`` being what ``before(args)`` returned."""
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result, token)
            return result
        return wrapper

    def patch(self, owner, attr, name, after=None, before=None):
        """Replace ``owner.attr`` by its recorded twin until ``uninstall``."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(owner, attr)
        new = self.wrapped(name, fn, after=after, before=before)
        if isinstance(raw, (classmethod, staticmethod)):
            new = staticmethod(new)  # ``fn`` is already bound to the class
        self.replace(owner, attr, new, raw)

    def replace(self, owner, attr, new, raw=None):
        """Set ``owner.attr = new`` until ``uninstall`` restores ``raw``."""
        self._patches.append((owner, attr, getattr(owner, attr) if raw is None else raw))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, since the workload is one thread.
        """
        ids, start, end, parent = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.names)}

    def _arrays(self):
        # copies, so the arrays stay free to grow
        return (np.array(self.name_id, dtype=np.int64), np.array(self.start, dtype=float),
                np.array(self.end, dtype=float), np.array(self.parent, dtype=np.int64))

    def save(self, path):
        ids, start, end, parent = self._arrays()
        np.savez(path, names=np.asarray(self.names, dtype=str), name_id=ids,
                 start=start, end=end, parent=parent)
