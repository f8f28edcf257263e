"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the expcompare modules from the
outside.  Each call records one span: its name, start and end on the
``perf_counter`` clock, the index of the span that was open when it
started (its parent, -1 at top level) and an optional count attached by
the wrapper (``lp.solve`` records the program's rows x variables).

Modules bind imported functions by name (``compare`` holds its own
reference to ``risk.min_bayes_risk``), so :meth:`Tracer.patch` replaces
every binding of a traced function in every given module, and
:meth:`Tracer.restore` puts the originals back.

Spans stay in memory until :meth:`Tracer.dump` writes them out; the
aggregates are computed from the span list afterwards.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: list[int] = []
        self._open: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str, count: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.counts.append(count)
        self.ends.append(float("nan"))
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording a span per call; ``count(*args)`` sizes the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name, count(*args, **kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def patch(self, modules, targets) -> None:
        """Trace ``targets``, ``(span name, owner module, attribute, count)``.

        Every module in ``modules`` that binds the same function object
        under any name gets the traced wrapper.
        """
        for name, owner, attr, count in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._bindings.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for mod, key, original in reversed(self._bindings):
            setattr(mod, key, original)
        self._bindings.clear()

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        spans = [
            [index[n], s, e, p, c]
            for n, s, e, p, c in zip(
                self.names, self.starts, self.ends, self.parents, self.counts
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "fields": ["name", "start", "end", "parent", "count"],
                       "spans": spans}, fh)

    # -- aggregates ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the part its children cover."""
        children = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx, (start, end) in enumerate(zip(self.starts, self.ends)):
            kids = [(self.starts[k], self.ends[k]) for k in children.get(idx, ())]
            out.append((end - start) - covered(start, end, kids))
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self time, durations and counts."""
        self_t = self.self_times()
        agg: dict[str, dict] = {}
        for idx, name in enumerate(self.names):
            a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [], "count": 0})
            a["calls"] += 1
            a["self_s"] += self_t[idx]
            a["durations"].append(self.ends[idx] - self.starts[idx])
            a["count"] += self.counts[idx]
        return agg

    def nested_calls(self, outer: str, inner: str) -> int:
        """Number of ``inner`` spans that have an ``outer`` span as ancestor."""
        total = 0
        for idx, name in enumerate(self.names):
            if name != inner:
                continue
            p = self.parents[idx]
            while p >= 0 and self.names[p] != outer:
                p = self.parents[p]
            total += p >= 0
        return total


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def median_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0
