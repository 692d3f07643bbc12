"""In-memory spans around calls into tailopt's layer functions.

A span is (name, start, end, parent).  Spans live in flat arrays while a run
executes, are written out once at the end, and are reduced to per-layer self
times: a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Records nested spans; wrap a function to record one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time (s)."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child_time
        k = len(self.names)
        count = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        total_self = np.bincount(name, weights=self_time, minlength=k)
        return {
            n: {"count": int(count[j]), "total_s": float(total[j]), "self_s": float(total_self[j])}
            for j, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span as columns of an ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


@contextlib.contextmanager
def replaced(replacements):
    """Temporarily rebind ``module.attr`` to a wrapper of its current value.

    ``replacements`` is a sequence of (module, attribute, make_wrapper).  A
    missing attribute is an error: the benchmark must be updated along with
    the module it instruments.
    """
    saved = []
    try:
        for module, attr, make_wrapper in replacements:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
