"""Span tracer that times ssdbcodi's public functions from outside the program.

`Tracer.installed()` replaces every public function of the traced modules
with a timing wrapper, in every ssdbcodi module namespace that holds it, so
calls between modules (`pipeline.prepare` -> `expansion.expand_all`) and
within one (`expand_all` -> `prim_expand`) are both seen. Leaving the block
puts every original back. Spans stay in memory until the caller writes them.

A span's parent is the innermost open span on the same thread; a span opened
on a worker thread has no parent but carries the op id of the op running at
the time. Self time is a span's duration minus the union of its children's
intervals.
"""

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

PACKAGE = "ssdbcodi"
MODULES = ("dataset", "metricspace", "expansion", "scoring", "model", "pipeline",
           "metrics", "cli")
OP = "op"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    cpu: float           # process CPU seconds over the span, all threads
    parent: int | None
    thread: int
    op: int | None
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


class Tracer:
    """Collects spans; `probes` maps a function name to f(args, kwargs, result)
    returning counts to attach to that function's span."""

    def __init__(self, probes=None):
        self.spans = []
        self.probes = dict(probes or {})
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._op = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the block as one span; the block may add counts to the dict it gets."""
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        counts = {}
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            yield counts
        finally:
            t1, cpu1 = time.perf_counter(), time.process_time()
            stack.pop()
            rec = Span(sid, name, t0, t1, cpu1 - cpu0, parent, threading.get_ident(),
                       self._op, counts)
            with self._lock:
                self.spans.append(rec)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; spans opened inside carry op_id."""
        self._op = op_id
        try:
            with self.span(OP):
                yield
        finally:
            self._op = None

    def wrap(self, name: str, fn):
        probe = self.probes.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if probe is not None:
                    counts.update(probe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    @contextmanager
    def installed(self, package: str = PACKAGE, modules=MODULES):
        """Wrap every public function of package.<module> for the block's duration."""
        names = {}
        for mod_name in modules:
            mod = importlib.import_module(f"{package}.{mod_name}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    names[obj] = f"{mod_name}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in names.items()}
        patched = []
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == package or key.startswith(package + ".")]
        try:
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(ns, attr, wrappers[obj])
                        patched.append((ns, attr, obj))
            yield
        finally:
            for ns, attr, obj in reversed(patched):
                setattr(ns, attr, obj)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - union_length((a, b) for a, b in kids if b > a)
    return out


def by_function(spans) -> dict:
    """name -> {"calls", "self_s", "wall_s", "cpu_s", counts...} summed over spans."""
    selfs = self_times(spans)
    table = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        row["wall_s"] += s.end - s.start
        row["cpu_s"] += s.cpu
        for key, value in s.counts.items():
            row[key] += value
    return {name: dict(row) for name, row in table.items()}
