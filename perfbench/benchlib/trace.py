"""In-memory spans around calls into the program's public functions.

A span is (name, start, end, parent).  ``Tracer.rebind`` replaces chosen
functions by timing wrappers in every module of the package that holds a
reference to them, so a name a module imported directly (``from .learning
import summarize``) is traced like an attribute lookup (``qp.solve``).  The
originals are put back when the context ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(span, result, args, kwargs)``
        may attach attributes after a successful call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(span, result, args, kwargs)
            return result
        return traced

    @contextmanager
    def rebind(self, targets, package: str = "dflsched", observers=None):
        """``targets`` maps span names to (module, attribute).  Every module
        of ``package`` holding the original function gets the wrapper."""
        observers = observers or {}
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        saved = []
        try:
            for name, (module, attr) in targets.items():
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, observers.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield
        finally:
            for mod, key, original in reversed(saved):
                setattr(mod, key, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fp:
            for i, s in enumerate(self.spans):
                doc = {"id": i, "name": s.name, "start": s.start - origin,
                       "end": s.end - origin, "parent": s.parent}
                if s.attrs:
                    doc["attrs"] = s.attrs
                fp.write(json.dumps(doc) + "\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [s.duration - union_length(((spans[c].start, spans[c].end)
                                       for c in children[i]), s.start, s.end)
            for i, s in enumerate(spans)]


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def unit_times(spans: list[Span], outer: str, marker: str, per_unit: int) -> list[float]:
    """Split every ``outer`` span into units that each start at every
    ``per_unit``-th ``marker`` span inside it; the last unit ends with the
    outer span.  Gives per-epoch times of a training call (an epoch starts
    at its first solve) and per-scenario times of an evaluation call."""
    marks = [s.start for s in spans if s.name == marker]
    out = []
    for s in spans:
        if s.name != outer:
            continue
        bounds = [t for t in marks if s.start <= t <= s.end][::per_unit] + [s.end]
        out += [b - a for a, b in zip(bounds, bounds[1:])]
    return out
