"""In-memory span recording around the functions of the traced program.

A span is ``(name, start, end, parent)``: ``start``/``end`` come from
``time.perf_counter`` and ``parent`` is the index of the enclosing span, or
-1 for a root. Spans are appended in start order, so a parent always precedes
its children. Functions are wrapped in the namespace where their callers look
them up (``from .losses import grad_total`` makes ``trainer.grad_total`` a
separate binding from ``losses.grad_total``), and every patched binding is
restored when tracing ends.

This module imports nothing outside the standard library, so it is safe to
load before the benchmark pins the BLAS thread count.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import time
import types


class Tracer:
    """Records spans for wrapped functions; single-threaded callers only.

    ``hooks`` maps a span name to ``hook(args, kwargs, result, counters)``,
    run after the wrapped call returns, for counts that need the call's
    arguments or result (bytes read, EM iterations).
    """

    def __init__(self, hooks=None):
        self.spans: list = []
        self.counters = collections.Counter()
        self.hooks = dict(hooks or {})
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = self.hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, modules, select):
        """Wrap every function bound in ``modules`` for which ``select(fn)``
        returns a span name (None skips it); restore every binding on exit."""
        wrappers: dict = {}
        originals: list = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    name = select(value) if isinstance(value, types.FunctionType) else None
                    if name is None:
                        continue
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self.wrap(name, value)
                    originals.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
            yield self
        finally:
            for module, attr, value in reversed(originals):
                setattr(module, attr, value)

    def write(self, path) -> None:
        """Dump {"names": [...], "spans": [[name_idx, start, end, parent], ...], "counters": {...}}."""
        names: dict = {}
        rows = [[names.setdefault(n, len(names)), s, e, p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows, "counters": self.counters}, fh)


def covered_length(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
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


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that child spans cover."""
    children: list = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
        out.append(max(end - start - covered_length(clipped), 0.0))
    return out


def outermost(spans, member) -> list:
    """Indices of spans with ``member(name)`` true and no such ancestor.

    Summing their durations times a group of functions without counting
    nested calls twice (``as_matrix`` calls ``require_finite``).
    """
    inside = [False] * len(spans)
    picked = []
    for i, (name, _, _, parent) in enumerate(spans):
        above = parent >= 0 and (inside[parent] or member(spans[parent][0]))
        inside[i] = above
        if member(name) and not above:
            picked.append(i)
    return picked
