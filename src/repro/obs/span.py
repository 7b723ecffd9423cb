"""Hierarchical spans: named, timed, attributed regions of work.

A span is opened by :meth:`repro.obs.registry.Registry.span` and closed
by its ``with`` block; on exit it becomes one ``{"type": "span"}`` event
on every sink.  Parentage is tracked per thread — a span opened while
another is live on the same thread records that span's id as its
``parent_id``, so sinks can rebuild the call tree.

When the registry is disabled, :data:`NOOP_SPAN` is returned instead: a
shared singleton whose every method is a no-op, so the instrumented code
pays one flag check and nothing else.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .trace import mint_span_id

__all__ = ["Span", "NOOP_SPAN"]


class Span:
    """One timed region.  Use only via ``with registry.span(...)``."""

    __slots__ = (
        "_registry",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "_start",
        "wall_start",
        "duration",
        "trace_id",
        "trace_span",
        "trace_parent",
        "_trace_restore",
        "_links",
    )

    def __init__(self, registry: Any, name: str,
                 attrs: Dict[str, Any]) -> None:
        self._registry = registry
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self._start: float = 0.0
        self.wall_start: float = 0.0
        self.duration: Optional[float] = None
        self.trace_id: Optional[str] = None
        self.trace_span: Optional[str] = None
        self.trace_parent: Optional[str] = None
        self._trace_restore: Any = None
        self._links: Optional[List[Dict[str, str]]] = None

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes; they ride the close event."""
        self.attrs.update(attrs)

    def link(self, ctx: Any) -> None:
        """Record a causal link to another trace context.

        ``ctx`` is any object with ``trace_id`` / ``span_id`` string
        attributes (a :class:`repro.obs.trace.TraceContext`).  Links let
        one span serve many traces — a micro-batch span links to every
        request it computed for.
        """
        if self._links is None:
            self._links = []
        self._links.append({"trace_id": ctx.trace_id,
                            "span_id": ctx.span_id})

    def __enter__(self) -> "Span":
        registry = self._registry
        self.span_id = registry._next_id()
        stack = registry._span_stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        ctx = registry.current_trace()
        if ctx is not None:
            # Ambient trace context: stamp globally-unique hex ids and
            # narrow the context to this span for its duration, so
            # nested spans chain under it across any boundary.
            self.trace_id = ctx.trace_id
            self.trace_parent = ctx.span_id
            self.trace_span = mint_span_id()
            self._trace_restore = ctx
            registry.set_trace(ctx.child(self.trace_span))
        self.wall_start = registry._wall()
        self._start = registry._clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        registry = self._registry
        self.duration = registry._clock() - self._start
        stack = registry._span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # exited out of order — drop just this frame
            stack.remove(self)
        if self.trace_id is not None:
            registry.set_trace(self._trace_restore)
        event = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.wall_start,
            "duration": self.duration,
            "error": exc_type.__name__ if exc_type is not None else None,
            "attrs": dict(self.attrs),
        }
        if self.trace_id is not None:
            event["trace_id"] = self.trace_id
            event["trace_span"] = self.trace_span
            event["trace_parent"] = self.trace_parent
        if self._links:
            event["links"] = list(self._links)
        registry._emit(event)
        return False


class _NoopSpan:
    """The disabled-path span: every operation does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def link(self, ctx: Any) -> None:
        pass


#: Shared no-op singleton handed out whenever the registry is disabled.
NOOP_SPAN = _NoopSpan()
