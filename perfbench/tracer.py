"""In-memory span tracer that wraps calls into totsim from the outside.

Each span is (name, start, end, parent). Spans live in flat arrays so a
traced run of a few hundred thousand calls stays a few megabytes. A layer's
self time is its span duration minus the time its direct child spans cover.
That counts no time twice only if spans nest: every child lies inside its
parent and siblings do not overlap, which `nesting_errors` checks.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, counters=None):
        """`fn` with a span around every call; each counter maps the return
        value to an amount added to the count `<name>.<key>`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            for key, count in (counters or {}).items():
                full = f"{name}.{key}"
                self.counts[full] = self.counts.get(full, 0) + count(result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Replace each `(owner, attribute, span name[, counters])` with a
        traced wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, *counters in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, *counters))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds `s` and exclusive `self_s`."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        self_total = np.bincount(names, weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_total[i])}
            for i, name in enumerate(self.names)
        }

    def nesting_errors(self) -> list[str]:
        """Spans left open, more than one root, children outside their parent,
        or overlapping siblings."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        errors = []
        if len(self._stack) != 1:
            errors.append(f"{len(self._stack) - 1} spans still open")
        if np.count_nonzero(parent < 0) != 1:
            errors.append(f"{np.count_nonzero(parent < 0)} root spans, expected 1")
        if np.any(end < start):
            errors.append("a span ends before it starts")
        child = parent >= 0
        p = parent[child]
        if np.any(start[child] < start[p]) or np.any(end[child] > end[p]):
            errors.append("a child span lies outside its parent")
        kids = np.flatnonzero(child)
        kids = kids[np.lexsort((start[kids], parent[kids]))]
        same_parent = parent[kids[1:]] == parent[kids[:-1]]
        if np.any(same_parent & (start[kids[1:]] < end[kids[:-1]])):
            errors.append("sibling spans overlap")
        return errors
