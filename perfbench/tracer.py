"""In-memory spans and counts at wrapped call boundaries.

A `Tracer` replaces attributes (functions, methods, classmethods) with
wrappers that record one span per call: its name, start, end and the span
that was open when it began.  Spans are kept in flat arrays while the run
goes and are turned into self times at the end: a span's self time is its
duration minus the durations of its direct children.  Wrappers record only
inside an open root span (`Tracer.span`), so calls the benchmark makes
outside its timed operations leave no trace.

Nothing here knows about qdouble; `layers.py` says what to wrap.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

_perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- spans ----

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str):
        """A root (or nested) span opened by the benchmark itself."""
        i = self._open(self._intern(name))
        self.start[i] = _perf_counter()
        try:
            yield
        finally:
            self.end[i] = _perf_counter()
            self._stack.pop()

    def wrapper(self, fn, name: str | None, count=None):
        """A function that calls `fn` and returns exactly its result.

        Inside an open span it records a span called `name` (none when
        `name` is None) and then calls `count(counts, args, kwargs, result)`.
        """
        nid = None if name is None else self._intern(name)
        stack, start, end, counts = self._stack, self.start, self.end, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if nid is None:
                result = fn(*args, **kwargs)
            else:
                i = self._open(nid)
                start[i] = _perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = _perf_counter()
                    stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    # ---- patching ----

    def wrap(self, owner, attr: str, name: str | None, count=None):
        """Replace `owner.attr` (a module or class attribute) by a wrapper."""
        raw = vars(owner)[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrapper(raw.__func__, name, count))
        else:
            new = self.wrapper(raw, name, count)
        self.patch(owner, attr, new)
        return new

    def patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def unwrap(self):
        """Put back every attribute replaced by `wrap` or `patch`."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ---- results ----

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.zeros(n)
        np.add.at(covered, parent[nested], dur[nested])
        per_name = np.bincount(
            np.frombuffer(self.name_id, dtype=np.int32), weights=dur - covered,
            minlength=len(self.names),
        )
        return {name: float(t) for name, t in zip(self.names, per_name)}

    def root_time(self) -> float:
        """Summed duration of the spans opened outside any other span."""
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return float(dur[np.frombuffer(self.parent, dtype=np.int64) < 0].sum())

    def write(self, path):
        """Write every span and count as gzipped JSON."""
        payload = {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
