"""
In-memory spans around calls into permbij, recorded from outside the
package by replacing the module attributes that callers look up at call
time.

A span is (name, start, end, parent, input): clock readings in ns from
``time.perf_counter_ns``, the index of the enclosing span (-1 for none) and
the id of the input it belongs to.  Wrapped calls record spans only inside
an outermost span opened with ``span()``, so work the benchmark does
between operations, such as checking outputs, is not traced.  Spans are
kept in flat arrays while the workload runs and written out after it ends.

A span's self time is its duration minus the durations of its direct
children.  The calls are made by one thread, so children never overlap and
self times sum to the durations of the outermost spans.
"""
from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter
from contextlib import contextmanager

#: marker span, a few hundred ns long, recorded each time smallest_132 finds
#: a pattern, that is, once per rewrite of gamma_iterative
REWRITE = "maps.gamma_iterative.rewrite"


class Recorder:
    """Spans of one process, with wrappers that record them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.input = array("i")
        self.start = array("q")
        self.end = array("q")
        self.inputs: list[str] = []
        self._stack = [-1]
        self._input = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_input(self, label: str) -> None:
        self._input[0] = len(self.inputs)
        self.inputs.append(label)

    def _open(self, nid: int) -> int:
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.input.append(self._input[0])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def timed(self, fn, name: str):
        """A wrapper recording one span per call of ``fn``."""
        nid = self.name_id(name)
        opened, closed, stack = self._open, self._close, self._stack

        def wrapper(*args, **kwargs):
            if len(stack) == 1:
                return fn(*args, **kwargs)
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return wrapper

    def timed_generator(self, fn, name: str):
        """A wrapper for a generator function: one span from first to last item."""
        nid = self.name_id(name)
        opened, closed, stack = self._open, self._close, self._stack

        def wrapper(*args, **kwargs):
            if len(stack) == 1:
                yield from fn(*args, **kwargs)
                return
            idx = opened(nid)
            try:
                yield from fn(*args, **kwargs)
            finally:
                closed(idx)

        return wrapper

    def timed_enumeration(self, fn, prefix: str):
        """
        A wrapper for enumerate_avoiders(n, pattern, ...) that drains the
        class inside one span named ``prefix.<pattern>.n<n>``, so that the
        cost of building the class is charged to it wherever it runs.
        """
        opened, closed, name_id = self._open, self._close, self.name_id
        stack = self._stack

        def wrapper(n, pattern, *args, **kwargs):
            if len(stack) == 1:
                return fn(n, pattern, *args, **kwargs)
            idx = opened(name_id(f"{prefix}.{pattern}.n{n}"))
            try:
                members = tuple(fn(n, pattern, *args, **kwargs))
            finally:
                closed(idx)
            return iter(members)

        return wrapper

    def timed_search(self, fn, name: str):
        """Like timed(), plus a REWRITE marker whenever ``fn`` finds a pattern."""
        nid, mark = self.name_id(name), self.name_id(REWRITE)
        opened, closed, stack = self._open, self._close, self._stack

        def wrapper(*args, **kwargs):
            if len(stack) == 1:
                return fn(*args, **kwargs)
            idx = opened(nid)
            try:
                found = fn(*args, **kwargs)
            finally:
                closed(idx)
            if found is not None:
                closed(opened(mark))
            return found

        return wrapper

    def __len__(self) -> int:
        return len(self.end)

    def summary(self) -> tuple[dict[str, int], dict[str, int]]:
        """Self time in ns and call count per span name."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for nid, t in zip(self.name, own):
            self_ns[nid] += t
            calls[nid] += 1
        return (
            {self.names[k]: v for k, v in self_ns.items()},
            {self.names[k]: v for k, v in calls.items()},
        )

    def rewrites_per_call(self, caller: str) -> list[int]:
        """REWRITE markers per span named ``caller`` that directly encloses them."""
        if caller not in self._ids or REWRITE not in self._ids:
            return []
        caller_id, mark = self._ids[caller], self._ids[REWRITE]
        per_call = Counter(
            p for nid, p in zip(self.name, self.parent) if nid == mark
        )
        return [per_call[i] for i, nid in enumerate(self.name) if nid == caller_id]

    def write(self, path) -> None:
        """Tab-separated spans, gzip-compressed, after a header of names and inputs."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# name\tstart_ns\tend_ns\tparent\tinput\n")
            for i, label in enumerate(self.inputs):
                out.write(f"# input {i}\t{label}\n")
            names = self.names
            for nid, s, e, p, inp in zip(
                self.name, self.start, self.end, self.parent, self.input
            ):
                out.write(f"{names[nid]}\t{s}\t{e}\t{p}\t{inp}\n")
