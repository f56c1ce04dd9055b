"""In-memory spans and counters for the traced benchmark run.

The tracer wraps public functions of the program from outside: the original
function object is replaced by a wrapper in every module namespace (and on
every class) that holds it, so calls made through ``from .x import f`` are
seen as well.  A span records (name, start, end, parent span, query id); the
spans stay in memory and are written out when the run ends.  A layer's self
time is its span's duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.counters: Counter = Counter()
        self.query_id = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.query_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def span(self, name: str, func, outcome=None, extra=None):
        """Wrap ``func`` in a span; count calls, and hits when ``outcome``
        says the result was useful; ``extra(args, result)`` adds to
        ``<name>.<key>`` counters."""
        counters = self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(idx)
            counters[name + ".calls"] += 1
            if outcome is not None and outcome(result):
                counters[name + ".hits"] += 1
            if extra is not None:
                for key, value in extra(args, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        return wrapper

    def count(self, name: str, func):
        """Wrap ``func`` so that only its calls are counted."""
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return func(*args, **kwargs)

        return wrapper

    def count_yields(self, name: str, func):
        """Wrap a generator function so that every value it yields is counted."""
        counters = self.counters
        key = name + ".steps"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            for item in func(*args, **kwargs):
                counters[key] += 1
                yield item

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        spans = zip(self.span_name, self.start, self.end, self.parent)
        per_span = self_times([(self.names[n], s, e, p) for n, s, e, p in spans])
        totals: dict[str, float] = defaultdict(float)
        for name, value in per_span:
            totals[name] += value
        return dict(totals)

    def write(self, path) -> None:
        """Write names, counters and every span as gzip-compressed JSON."""
        payload = {
            "names": self.names,
            "counters": dict(sorted(self.counters.items())),
            "columns": ["name", "start", "end", "parent", "query"],
            "spans": [
                list(row)
                for row in zip(self.span_name, self.start, self.end, self.parent, self.query)
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(spans) -> list[tuple[str, float]]:
    """Self time of each span.

    ``spans`` is a sequence of (name, start, end, parent index or -1).  The
    self time of a span is its duration minus the length of the union of its
    children's intervals, each clipped to the parent's interval.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_name, _s, _e, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((name, (end - start) - covered))
    return out
