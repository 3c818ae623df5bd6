"""In-memory span recorder and the interval arithmetic behind self times.

A span is one call into a traced function: name, start, end, thread and
parent span.  Parents come from a per-thread stack.  A thread-pool worker
has an empty stack, so `propagate_to_pools` hands each submitted task the
span that was open where it was submitted; work done on worker threads then
nests under the sweep that queued it instead of floating as a root.

Spans stay in memory; the caller writes them out once the run is over.
"""

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._last_id = 0
        self.spans = []

    def current(self):
        """Id of the innermost open span on this thread, or the adopted parent."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", None)

    @contextmanager
    def adopt(self, parent):
        """Make `parent` the parent of spans opened at the top of this thread."""
        previous = getattr(self._local, "adopted", None)
        self._local.adopted = parent
        try:
            yield
        finally:
            self._local.adopted = previous

    @contextmanager
    def span(self, name):
        """Record one span; the yielded dict collects attributes for it."""
        with self._lock:
            self._last_id += 1
            span_id = self._last_id
        parent = self.current()
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        self._local.stack.append(span_id)
        attrs = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._local.stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end,
                                       threading.get_ident(), parent, attrs))

    def wrap(self, name, fn, annotate=None):
        """`fn` recording a span per call; `annotate(result, args)` adds attributes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs.update(annotate(result, args))
                return result
        return traced

    def dump(self):
        with self._lock:
            return [asdict(s) for s in self.spans]


@contextmanager
def propagate_to_pools(tracer):
    """Parent spans opened in ThreadPoolExecutor tasks to the submitting span."""
    original = ThreadPoolExecutor.submit

    def submit(pool, fn, /, *args, **kwargs):
        parent = tracer.current()

        def run(*a, **k):
            with tracer.adopt(parent):
                return fn(*a, **k)

        return original(pool, run, *args, **kwargs)

    ThreadPoolExecutor.submit = submit
    try:
        yield
    finally:
        ThreadPoolExecutor.submit = original


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def children_of(spans):
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans):
    """{span id: duration minus the part of it that child spans cover}.

    Children on other threads may overlap each other; overlapping child time
    is subtracted once, so a sweep waiting on two pool workers is not charged
    twice and does not go negative.
    """
    kids = children_of(spans)
    return {s.id: s.duration - covered([(c.start, c.end) for c in kids.get(s.id, ())],
                                       s.start, s.end)
            for s in spans}


def busy_time(span, kids):
    """Seconds of `span` that its children keep threads busy, summed over threads."""
    by_thread = {}
    for c in kids:
        by_thread.setdefault(c.thread, []).append((c.start, c.end))
    return sum(covered(iv, span.start, span.end) for iv in by_thread.values())
