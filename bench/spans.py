"""In-memory span recorder for the traced benchmark run.

The recorder wraps library functions from outside: ``install`` replaces the
names the catoptrix modules import from one another (``interior``'s
``solve_quartic``, ``cli``'s ``minimizing_root``, ...) with wrappers that
record a span per call, and puts the originals back on exit. No source file
of the library changes.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span or -1, ``op`` the operation id current at the call.
Spans stay in memory until the run ends. Cheap predicates (``ensure_point``,
``on_unit_circle``) get count-only wrappers, so that a span per call does not
swamp what it measures.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Iterator, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    op: int


Observer = Callable[["Recorder", Any, Optional[BaseException]], None]


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: Counter[str] = Counter()
        self.op = -1
        self.labels: dict[int, str] = {}
        self._stack: list[int] = []

    def begin_op(self, op: int, label: str) -> None:
        """Attribute the following spans to operation op, of kind label."""
        self.op = op
        self.labels[op] = label

    def span(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        """Wrap fn so each call records a span; observe(recorder, result, exc)
        runs after the call to update counters from what it returned."""
        spans = self.spans
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            exc: Optional[BaseException] = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
                if observe is not None:
                    observe(self, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable, count_true: bool = False) -> Callable:
        """Wrap fn so each call bumps counts[name] (and counts[name + '.true']
        for truthy results when count_true)."""
        counts = self.counts
        true_key = name + ".true"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            result = fn(*args, **kwargs)
            if count_true and result:
                counts[true_key] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[int]:
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover (overlapping children count once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start = max(start, cursor)
            end = min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.end - s.start - covered)
    return out


@contextlib.contextmanager
def install(patches: list[tuple[str, str, Callable]]) -> Iterator[None]:
    """Set module attributes ``(module, name, replacement)`` for the duration
    of the block, restoring the originals afterwards."""
    saved = []
    try:
        for module_name, attr, replacement in patches:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
