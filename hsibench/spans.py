"""Span tracing installed from outside the program.

A :class:`Tracer` wraps public entry points of :mod:`repro` (module
functions and class methods) with thin recorders and restores the
originals afterwards.  Each call becomes one :class:`Span` with a name,
start and end (``time.perf_counter``), the span that was open when it
started, and an operation id.  Spans stay in memory until the run
writes them out.

The parent link follows a :class:`contextvars.ContextVar`, so nesting
is tracked per thread and per asyncio task.  Threads started by an
executor begin with an empty context: a span opened there has no parent
unless the caller passes an operation id explicitly.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One recorded call."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
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


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so a parent's self time is never
    negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.span_id, []).append((start, end))
    return {span.span_id:
            span.duration - covered(children.get(span.span_id, ()))
            for span in spans}


def self_by_name(spans) -> dict[object, dict[str, float]]:
    """Self time summed per operation and span name."""
    selfs = self_times(spans)
    out: dict[object, dict[str, float]] = {}
    for span in spans:
        per_op = out.setdefault(span.op, {})
        per_op[span.name] = per_op.get(span.name, 0.0) + selfs[span.span_id]
    return out


def total_by_name(spans) -> dict[object, dict[str, float]]:
    """Summed duration per operation and span name."""
    out: dict[object, dict[str, float]] = {}
    for span in spans:
        per_op = out.setdefault(span.op, {})
        per_op[span.name] = per_op.get(span.name, 0.0) + span.duration
    return out


def functions_named(func, module_prefix: str = "repro"):
    """Every ``(module, attribute)`` under ``module_prefix`` bound to
    ``func`` — a function imported by name into several modules must be
    wrapped in each of them."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == module_prefix
                                  or name.startswith(module_prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                found.append((module, attr))
    return found


def defining_class(cls, attr: str):
    """The class in ``cls``'s MRO whose ``__dict__`` defines ``attr``."""
    for klass in cls.__mro__:
        if attr in vars(klass):
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class Tracer:
    """Records spans from wrappers it installs; :meth:`restore` undoes
    every wrapper in reverse order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("hsibench_span", default=None))
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str, op) -> tuple[Span, contextvars.Token]:
        # inside a traced call the operation is the caller's; ``op``
        # names it only for spans that start a chain
        parent = self._current.get()
        if parent is not None:
            op = parent.op
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    None if parent is None else parent.span_id, op)
        return span, self._current.set(span)

    def _close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, op):
        """A span opened by the benchmark itself (an operation's root)."""
        span, token = self._open(name, op)
        try:
            yield span
        finally:
            self._close(span, token)

    def wrap(self, func, name: str, op_of=None):
        """A recording wrapper around ``func``.

        ``op_of(args, kwargs)`` names the operation id of a span that
        has no parent; nested spans inherit their parent's.
        """
        tracer = self

        def op_before(args, kwargs):
            return None if op_of is None else op_of(args, kwargs)

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                span, token = tracer._open(name, op_before(args, kwargs))
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._close(span, token)
            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span, token = tracer._open(name, op_before(args, kwargs))
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(span, token)
        return wrapper

    # -- installing ------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering how to put it back."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def wrap_function(self, func, name: str, op_of=None) -> None:
        """Wrap a module-level function everywhere it is bound."""
        wrapper = self.wrap(func, name, op_of)
        for module, attr in functions_named(func):
            self.patch(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str, op_of=None) -> None:
        """Wrap a method on the class that defines it (once per class)."""
        owner = defining_class(cls, attr)
        if any(o is owner and a == attr for o, a, _, _ in self._patches):
            return
        self.patch(owner, attr, self.wrap(vars(owner)[attr], name, op_of))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def write_spans(spans, path: str) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            record = asdict(span)
            record["op"] = None if span.op is None else list(span.op)
            fh.write(json.dumps(record) + "\n")
