"""In-memory span recorder and reversible entry-point wrappers.

The traced run measures each layer from outside the program: it wraps
the public entry points of ``repro`` modules with :class:`Patcher`,
every wrapped call records a :class:`Span`, and :meth:`Patcher.restore`
puts the original attributes back.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable


@dataclass
class Span:
    """One timed call: name, ``perf_counter_ns`` bounds, cause, request."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request_id: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans in memory; parents are tracked per thread.

    A span opened while another span of the same thread is open becomes
    its child and inherits its request id; a root span starts a new
    request.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
            request_id = (
                parent.request_id if parent is not None else next(self._requests)
            )
        span = Span(
            span_id=span_id,
            name=name,
            start_ns=time.perf_counter_ns(),
            end_ns=0,
            parent=None if parent is None else parent.span_id,
            request_id=request_id,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with every call recorded as a span called ``name``."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    def dump(self, path) -> None:
        """Write the spans out (called once, when the run ends)."""
        with open(path, "w") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Each span's duration minus the time its children cover (ns)."""
    spans = list(spans)
    own = {span.span_id: span.duration_ns for span in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None and span.parent in own:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns)
            )
    for parent, intervals in children.items():
        own[parent] -= covered_ns(intervals)
    return own


def covered_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def coverage(spans: Iterable[Span], start_ns: int, end_ns: int) -> float:
    """Share of ``[start_ns, end_ns)`` covered by root spans."""
    if end_ns <= start_ns:
        return 0.0
    roots = [
        (max(s.start_ns, start_ns), min(s.end_ns, end_ns))
        for s in spans
        if s.parent is None and s.end_ns > start_ns and s.start_ns < end_ns
    ]
    return covered_ns(roots) / (end_ns - start_ns)


_MISSING = object()


class Patcher:
    """Installs span wrappers on attributes and restores them exactly.

    An instance attribute that did not exist before (a method looked up
    on the class) is deleted again on restore, so the instance falls
    back to its class exactly as before.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self, owner: object, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` (module, class or instance attribute)
        with ``make(current)``; :meth:`restore` undoes it."""
        if isinstance(owner, (type, type(sys))):
            previous = owner.__dict__.get(attr, _MISSING)
        else:
            previous = vars(owner).get(attr, _MISSING)
        if isinstance(previous, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {attr!r}")
        replacement = make(getattr(owner, attr))
        self._saved.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as a span ``name``."""
        self.install(
            owner, attr, lambda current: self.recorder.wrap(name, current)
        )

    def wrap_function(self, func: Callable, name: str) -> int:
        """Wrap ``func`` in every loaded ``repro`` module that binds it.

        A module that did ``from .x import func`` holds its own binding,
        so wrapping only the defining module would miss those callers.
        Returns how many bindings were wrapped.
        """
        count = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.wrap(module, attr, name)
                    count += 1
        return count

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._saved:
            owner, attr, previous = self._saved.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
