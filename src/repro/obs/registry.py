"""The registry: the single object instrumented code talks to.

A :class:`Registry` owns the enabled flag, the sink list, the
counter/gauge aggregates, and the per-thread span stacks.  The design
constraint is the **disabled fast path**: every public entry point
checks ``self.enabled`` first and returns immediately, so code sprinkled
with ``registry.incr(...)`` / ``with registry.span(...)`` costs one
attribute load and one branch per call site when observability is off —
the engine's hot loops additionally hoist that check so they pay it once
per *scan*, not per object.

Clocks are injectable (``clock`` for durations, ``wall`` for event
timestamps) so tests get deterministic span timings.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from .counters import CounterSet
from .span import NOOP_SPAN, Span

__all__ = ["Registry"]


class Registry:
    """Spans, counters, gauges, and sinks behind one enable flag."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        wall: Optional[Callable[[], float]] = None,
    ) -> None:
        #: Read directly by instrumented code — keep it a plain attribute.
        self.enabled: bool = False
        self._clock = clock or time.perf_counter
        self._wall = wall or time.time
        self._sinks: List[Any] = []
        self._metrics = CounterSet()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def enable(self, *sinks: Any) -> None:
        """Attach ``sinks`` (if any) and start recording."""
        with self._lock:
            self._sinks.extend(sinks)
        self.enabled = True

    def disable(self) -> None:
        """Stop recording.  Sinks stay attached; aggregates survive."""
        self.enabled = False

    def clear_sinks(self) -> None:
        """Detach every sink (without closing them)."""
        with self._lock:
            self._sinks.clear()

    def remove_sink(self, sink: Any) -> bool:
        """Detach one sink (without closing it); ``True`` if attached."""
        with self._lock:
            try:
                self._sinks.remove(sink)
                return True
            except ValueError:
                return False

    def reset(self) -> None:
        """Zero counters and gauges (sinks and enabled state untouched)."""
        self._metrics.reset()

    def set_clock(
        self,
        clock: Callable[[], float],
        wall: Optional[Callable[[], float]] = None,
    ) -> None:
        """Swap the time sources — the fake-clock hook for tests."""
        self._clock = clock
        if wall is not None:
            self._wall = wall

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Any:
        """A context manager timing the enclosed block.

        Disabled registries hand back the shared no-op span; enabled ones
        a fresh :class:`~repro.obs.span.Span` whose close emits one event
        to every sink.
        """
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def current_span(self) -> Optional[Span]:
        """The innermost live span on this thread, if any."""
        stack = self._span_stack()
        return stack[-1] if stack else None

    def _span_stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, ctx: Any) -> Any:
        """Install ``ctx`` as this thread's ambient trace context.

        Every span subsequently opened on this thread is stamped with
        the context's trace id, parents under its span id, and narrows
        the ambient context to itself for its duration.  Pass ``None``
        to clear.  Returns the previous value so executors can restore
        it around each unit of work.
        """
        previous = getattr(self._local, "trace", None)
        self._local.trace = ctx
        return previous

    def current_trace(self) -> Any:
        """This thread's ambient trace context, or ``None``."""
        return getattr(self._local, "trace", None)

    def _next_id(self) -> int:
        return next(self._ids)  # atomic under the GIL

    # -- metrics -----------------------------------------------------------

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter (no-op while disabled)."""
        if not self.enabled:
            return
        self._metrics.incr(name, n)

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge (no-op while disabled)."""
        if not self.enabled:
            return
        self._metrics.gauge(name, value)

    def counter(self, name: str) -> int:
        """Read one counter (readable even while disabled)."""
        return self._metrics.counter(name)

    def counters(self) -> Dict[str, int]:
        """Snapshot of every counter."""
        return self._metrics.counters()

    def gauges(self) -> Dict[str, float]:
        """Snapshot of every gauge."""
        return self._metrics.gauges()

    # -- events ------------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point-in-time event (no duration) to every sink."""
        if not self.enabled:
            return
        parent = self.current_span()
        self._emit({
            "type": "event",
            "name": name,
            "ts": self._wall(),
            "parent_id": parent.span_id if parent is not None else None,
            "attrs": attrs,
        })

    def _emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            sink.emit(event)
