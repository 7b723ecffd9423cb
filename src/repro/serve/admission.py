"""Admission control: the bounded request queue.

The queue is the server's only buffer, and it is *bounded*: when the
batcher falls behind and the queue fills, :meth:`AdmissionQueue.offer`
refuses immediately and the caller answers ``overloaded`` — the client
gets an explicit refusal in microseconds instead of a response whose
latency grows without bound.  Depth is the knob that trades queueing
latency for shed rate.

Per-request deadlines ride on the queued item: an
:class:`AdmittedRequest` whose ``deadline_at`` passed while it waited is
shed (status ``timeout``) by the batcher at dequeue time, so a burst
cannot make old requests consume compute their clients have already
given up on.

The queue itself never blocks and holds no lock: the batcher guards it,
together with its single-flight map and its dispatcher slot, with one
lock (see :mod:`repro.serve.batcher`).  ``close()`` starts drain
semantics: no further offers are accepted, and the batcher runs the
backlog dry.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["AdmittedRequest", "AdmissionQueue"]


@dataclass
class AdmittedRequest:
    """One admitted query waiting for (or undergoing) dispatch."""

    query: Any  # ExpandedQuery
    future: "Future[Any]"
    enqueued_at: float  # time.monotonic() at admission
    deadline_at: Optional[float] = None  # time.monotonic() bound, or None
    #: Per-task result tokens, filled at batch-formation time.
    tokens: list = field(default_factory=list)
    #: Trace context of the owning request (None on untraced servers).
    ctx: Any = None
    #: Wall-clock admission time (span timestamps use wall time).
    wall_enqueued: float = 0.0
    #: Set when the request is resolved, or when its thread is handed
    #: the dispatcher role.
    wake: threading.Event = field(default_factory=threading.Event)

    def expired(self, now: float) -> bool:
        return self.deadline_at is not None and now > self.deadline_at


class AdmissionQueue:
    """Bounded FIFO with refuse-on-full offers and closeable drain."""

    def __init__(self, max_depth: int) -> None:
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        self._items: "deque[Any]" = deque()
        self._closed = False

    def depth(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def offer(self, item: Any) -> bool:
        """Admit ``item`` or refuse (``False``) — full or closed queues
        never block the caller."""
        if self._closed or len(self._items) >= self.max_depth:
            return False
        self._items.append(item)
        return True

    def peek(self) -> Optional[Any]:
        """The head without removing it (``None`` when empty)."""
        return self._items[0] if self._items else None

    def get_nowait(self) -> Optional[Any]:
        """Pop the head if one is ready (``None`` otherwise)."""
        return self._items.popleft() if self._items else None

    def close(self) -> None:
        """Refuse all future offers; what is queued stays to drain."""
        self._closed = True
