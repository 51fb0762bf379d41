"""Zero-dependency span tracer with a thread-local span stack.

``Tracer.span(name)`` is a context manager.  The *stack* of active spans
is module-level and thread-local, shared by **all** tracer instances in
the process — so a ``db.execute`` span started by the database tracer
correctly nests under a ``form.save`` span started by the forms layer,
even though each layer holds its own ``Tracer``.  What stays per-tracer
is where finished spans go: each tracer keeps its own ring of recent
spans and reports durations into its registry (as ``span.<name>``
histograms).  The per-statement record is the statement log, not a span.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .registry import Registry

_stack_local = threading.local()


def _stack() -> List["Span"]:
    stack = getattr(_stack_local, "spans", None)
    if stack is None:
        stack = _stack_local.spans = []
    return stack


def current_span() -> Optional["Span"]:
    """The innermost active span on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


class Span:
    """One timed operation.  ``path`` is the dotted chain of ancestors."""

    __slots__ = ("name", "tags", "path", "depth", "start", "duration_ms")

    def __init__(self, name: str, tags: Optional[Dict[str, Any]], path: str, depth: int) -> None:
        self.name = name
        self.tags: Dict[str, Any] = tags if tags is not None else {}
        self.path = path
        self.depth = depth
        self.start = 0.0
        self.duration_ms = 0.0

    def tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "duration_ms": self.duration_ms,
            "tags": dict(self.tags),
        }


class _SpanContext:
    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        _stack().append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self.span
        span.duration_ms = (time.perf_counter() - span.start) * 1000.0
        stack = _stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: unwound out of order
            stack.remove(span)
        if exc_type is not None:
            span.tags["error"] = exc_type.__name__
        self._tracer._finish(span)


class Tracer:
    """Hands out spans; keeps a ring of finished ones."""

    def __init__(self, registry: Optional[Registry] = None, keep: int = 256) -> None:
        self.registry = registry
        self.finished: Deque[Span] = deque(maxlen=keep)

    def span(self, name: str, tags: Optional[Dict[str, Any]] = None) -> _SpanContext:
        """Context manager timing one operation; yields the :class:`Span`."""
        parent = current_span()
        path = f"{parent.path}/{name}" if parent is not None else name
        depth = parent.depth + 1 if parent is not None else 0
        return _SpanContext(self, Span(name, tags, path, depth))

    def _finish(self, span: Span) -> None:
        self.finished.append(span)
        if self.registry is not None:
            self.registry.histogram(f"span.{span.name}").observe(span.duration_ms)

    def recent(self) -> List[Dict[str, Any]]:
        """Finished spans oldest-first as JSON-serialisable dicts."""
        return [span.to_dict() for span in self.finished]
