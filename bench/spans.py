"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: `Tracer.wrap` replaces an
attribute at the site where the program looks it up (a module global, a class
attribute or an instance attribute) with a timing wrapper, and
`Tracer.restore` puts every original attribute back. Nothing under `src/`
changes.

A span opened on a thread whose own stack is empty takes as parent the client
span currently in flight (`client=True` wrappers). The benchmark keeps one
request in flight at a time, so a server handler running on another thread
nests in time inside the client request that caused it. Such a remote span
is clipped to its parent's interval: the handler thread may still be
returning, or waiting for the interpreter lock, after the client has its
reply.
"""
from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "client", "remote", "start", "end",
                 "children")

    def __init__(self, id_, name, parent, client, remote, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.client = client
        self.remote = remote
        self.start = start
        self.end = None
        self.children = 0

    def interval(self):
        if self.remote:
            return (max(self.start, self.parent.start),
                    min(self.end, self.parent.end))
        return self.start, self.end


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._in_flight_client = None
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, client=False):
        stack = self._stack()
        parent = stack[-1] if stack else self._in_flight_client
        span = Span(next(self._ids), name, parent, client,
                    not stack and parent is not None, perf_counter())
        if parent is not None:
            parent.children += 1
        self.spans.append(span)
        stack.append(span)
        if client:
            self._in_flight_client = span
        return span

    def close(self, span):
        span.end = perf_counter()
        self._stack().pop()
        if span.client:
            self._in_flight_client = None

    def count(self, name, value=1.0):
        self.counts[name] += value

    # -- attribute wrapping ------------------------------------------------

    def wrap(self, owner, attr, name, *, client=False, observe=None):
        """Time every call made through `owner.attr` as span `name`.

        `observe(tracer, span, args, result)` runs after a call returns, to
        record counts where the work happens.
        """
        own = vars(owner)
        had_own = attr in own
        raw = own[attr] if had_own else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name, client)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if observe is not None:
                observe(tracer, span, args, result)
            return result

        setattr(owner, attr, staticmethod(traced) if is_static else traced)
        self._restore.append((owner, attr, had_own, raw))

    def restore(self):
        while self._restore:
            owner, attr, had_own, raw = self._restore.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """name -> (calls, total self seconds).

        Self time is the span's duration minus the union of its children's
        intervals, each clipped to the parent's interval.
        """
        kids = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent.id].append(s.interval())
        out = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            start, end = s.interval()
            covered = 0.0
            cursor = start
            for a, b in sorted(kids.get(s.id, ())):
                a, b = max(a, cursor), min(b, end)
                if b > a:
                    covered += b - a
                    cursor = b
            entry = out[s.name]
            entry[0] += 1
            entry[1] += max(end - start, 0.0) - covered
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, fh, unit):
        """Write the spans as JSON lines. Spans of one request share `op`:
        the id of their client span, or of their root span outside any."""
        def op(span):
            while not span.client and span.parent is not None:
                span = span.parent
            return span.id

        for s in self.spans:
            fh.write(json.dumps({
                "unit": unit, "id": s.id, "name": s.name,
                "parent": s.parent.id if s.parent is not None else None,
                "op": op(s), "start": s.start, "end": s.end}) + "\n")
