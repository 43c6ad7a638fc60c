"""Span tracer that times lsqlab from the outside.

Wrappers are installed at module attributes of the program, so the
program is traced without being edited.  Each call through a wrapper
records a span (name, start, end, parent span, trial, unit) in flat
arrays in memory; the spans are written out once the run ends.  A layer's
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict

clock = time.perf_counter


class Patches:
    """Module attributes replaced for a run, restored in reverse order."""

    def __init__(self):
        self._patches: list[tuple] = []

    def replace(self, module, attr: str, new) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.unit = array("q")
        self.counts = defaultdict(float)  # (unit, counter name) -> total
        self.current_unit = -1
        self.current_trial = -1  # -1 while no trial has started (set-up)
        self._stack: list[int] = []

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _append(self, name: str, start: float, end: float) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self.current_trial)
        self.unit.append(self.current_unit)
        return idx

    def open(self, name: str) -> int:
        idx = self._append(name, clock(), 0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the innermost open span."""
        self._append(name, start, end)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.current_unit, key)] += value

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(args, result) runs once the span closed."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    def patch(self, module, attr: str, name: str, after=None) -> None:
        """Trace calls through a module attribute as spans named `name`."""
        self.replace(module, attr, self.wrap(name, getattr(module, attr), after))

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """{unit: {span name: summed self time in seconds}}."""
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        out = defaultdict(lambda: defaultdict(float))
        for i, nid in enumerate(self.name):
            out[self.unit[i]][self.names[nid]] += end[i] - start[i] - child[i]
        return out

    def write(self, path) -> None:
        """Spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start_s,end_s,parent,trial,unit\n")
            for i, nid in enumerate(self.name):
                f.write(f"{i},{self.names[nid]},{self.start[i] - t0:.7f},"
                        f"{self.end[i] - t0:.7f},{self.parent[i]},"
                        f"{self.trial[i]},{self.unit[i]}\n")
