"""In-memory span tracer for the benchmark's traced run.

The tracer wraps parloop's public functions and methods from the outside,
by replacing module and class attributes for the duration of a ``with``
block; nothing in the package itself is instrumented. Each call through a
wrapped attribute records one span ``[name, start, end, parent, rid,
size]``: start and end are ``time.perf_counter`` seconds, parent is the
index of the enclosing span (-1 at top level), rid is the request id the
caller set (``workload/wiring/session/token``) and size is an optional
byte count measured on the call's result. Spans stay in memory until
``write`` saves them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time

NAME, START, END, PARENT, RID, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.rid = ""
        self.tensors_created = 0
        self._stack = [-1]
        self._saved: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, measure=None, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call()
            span = [name, 0.0, 0.0, stack[-1], self.rid, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if measure is not None:
                span[SIZE] = measure(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, measure=None, on_call=None):
        """Route ``owner.attr`` through a span named ``name`` until close()."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, measure, on_call))

    def count_inits(self, cls) -> None:
        """Count instances of ``cls`` created while installed (no spans)."""
        original = cls.__init__
        self._saved.append((cls, "__init__", original))

        @functools.wraps(original)
        def counted(obj, *args, **kwargs):
            self.tensors_created += 1
            original(obj, *args, **kwargs)

        cls.__init__ = counted

    def close(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- reading ----------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def top_level(self) -> list:
        """Index of the outermost ancestor of each span (itself at top level).

        Parents always precede their children, so one forward pass suffices.
        """
        top = []
        for i, s in enumerate(self.spans):
            top.append(i if s[PARENT] < 0 else top[s[PARENT]])
        return top

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "rid", "bytes")
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **dict(zip(keys, s))}) + "\n")
