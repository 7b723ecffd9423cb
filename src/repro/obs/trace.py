"""Distributed request tracing on top of :mod:`repro.obs`.

The serving pipeline scatters one request across an asyncio event loop,
a micro-batch shared with other requests, and (under the process
backend) worker processes — so a span tree keyed by thread-local parent
ids stops at every one of those boundaries.  This module adds the
*trace* layer that crosses them:

* :class:`TraceContext` — the ``(trace_id, span_id, sampled)`` triple
  identifying "this request" anywhere, with a W3C ``traceparent``-style
  string codec (``00-<32 hex>-<16 hex>-<flags>``) so the context can
  ride a JSON request line or a pickled chunk payload verbatim.
* **Ambient propagation** — :meth:`repro.obs.registry.Registry.set_trace`
  installs a context on the current thread; every span opened while it
  is live is stamped with ``trace_id`` / ``trace_span`` /
  ``trace_parent`` (16-hex ids minted per span, globally unique across
  processes — unlike the local integer ``span_id``s) and narrows the
  ambient context to itself for its duration, so nesting works exactly
  like the thread-local parent stack.
* :func:`emit_span` — a synthesized span event for code that cannot use
  an ambient ``with`` block (the asyncio serving path, where awaits
  interleave unrelated requests on one thread).
* :class:`TraceCollector` — a registry sink that reassembles span
  events back into per-trace records, applying **head sampling** (the
  ``sampled`` flag minted at admission) plus **tail-keep rules**: a
  trace that turned out slow, shed, errored, or witness-bearing is
  retained even when head sampling said drop.
* **Chrome trace-event export** — :func:`chrome_trace_events` converts
  span events into the ``chrome://tracing`` / Perfetto JSON array
  format (``repro trace export``).

Span events carry both id spaces: the local integers keep the
in-process profile tooling working unchanged; the hex trace ids are
what the collector and the exporters join on.
"""

from __future__ import annotations

import json
import os
import random
import re
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TraceContext",
    "TailRules",
    "TraceCollector",
    "mint_span_id",
    "emit_span",
    "chrome_trace_events",
    "chrome_payload",
    "load_trace_events",
    "trace_timeline",
]

_TRACEPARENT = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


#: The id source: one PRNG per process, seeded from ``os.urandom`` once
#: rather than a ``getrandom`` call per id.  A forked child reseeds from
#: the OS, so parent and child never mint the same stream.
_IDS = random.Random()
os.register_at_fork(after_in_child=_IDS.seed)


def mint_span_id() -> str:
    """A fresh 16-hex-char span id (random, collision-safe across
    processes — unlike the registry's local integer ids)."""
    return "%016x" % _IDS.getrandbits(64)


@dataclass(frozen=True)
class TraceContext:
    """One point in a distributed trace: *this* span of *this* trace.

    ``span_id`` names the span that causally encloses whatever work the
    context is installed around; a span opened under the context
    records it as ``trace_parent`` and narrows the ambient context to
    itself.  ``sampled`` is the head-sampling decision minted at
    admission — it rides the codec so every process agrees.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    @classmethod
    def mint(cls, sampled: bool = True) -> "TraceContext":
        """A brand-new trace rooted at a fresh span."""
        return cls(trace_id="%032x" % _IDS.getrandbits(128),
                   span_id=mint_span_id(), sampled=sampled)

    def child(self, span_id: Optional[str] = None) -> "TraceContext":
        """The same trace, re-rooted at ``span_id`` (fresh by default)."""
        return TraceContext(trace_id=self.trace_id,
                            span_id=span_id or mint_span_id(),
                            sampled=self.sampled)

    def to_traceparent(self) -> str:
        """The W3C-style header form: ``00-<trace>-<span>-<flags>``."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id}-{self.span_id}-{flags}"

    @classmethod
    def from_traceparent(cls, header: Any) -> Optional["TraceContext"]:
        """Parse a traceparent string; ``None`` for anything malformed
        (unknown version, bad lengths, non-hex, all-zero ids)."""
        if not isinstance(header, str):
            return None
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            return None
        trace_id, span_id, flags = match.groups()
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            return None
        return cls(trace_id=trace_id, span_id=span_id,
                   sampled=bool(int(flags, 16) & 0x01))


def emit_span(
    registry: Any,
    name: str,
    ctx: TraceContext,
    start: float,
    duration: float,
    *,
    span_hex: Optional[str] = None,
    parent_hex: Optional[str] = None,
    links: Iterable[Any] = (),
    **attrs: Any,
) -> Optional[str]:
    """Emit one synthesized span event under ``ctx``.

    The asyncio serving path cannot use ambient ``with registry.span``
    blocks — awaits interleave unrelated requests on the loop thread —
    so it measures stages itself and emits the finished span in one
    shot.  ``span_hex`` pins the span's trace id (so children can be
    parented under it before it is emitted); ``parent_hex`` overrides
    the parent (default: ``ctx.span_id``).  ``links`` are
    :class:`TraceContext`-likes recorded as causal links.  Returns the
    span's trace id, or ``None`` when the registry is disabled.
    """
    if not registry.enabled:
        return None
    span_hex = span_hex or mint_span_id()
    event: Dict[str, Any] = {
        "type": "span",
        "name": name,
        "span_id": registry._next_id(),
        "parent_id": None,
        "start": start,
        "duration": duration,
        "error": None,
        "attrs": attrs,
        "trace_id": ctx.trace_id,
        "trace_span": span_hex,
        "trace_parent": parent_hex or ctx.span_id,
    }
    link_list = [{"trace_id": link.trace_id, "span_id": link.span_id}
                 for link in links]
    if link_list:
        event["links"] = link_list
    registry._emit(event)
    return span_hex


# ---------------------------------------------------------------------------
# The collector: span events -> per-trace records.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailRules:
    """Which finished traces to retain regardless of head sampling.

    ``slow_ms``
        Keep traces whose reported elapsed time meets this bound
        (``None`` disables the rule).
    ``keep_shed`` / ``keep_error`` / ``keep_witness``
        Keep traces whose request was shed (overloaded / timeout /
        draining), errored, or found hidden-path witnesses.
    """

    slow_ms: Optional[float] = None
    keep_shed: bool = True
    keep_error: bool = True
    keep_witness: bool = True

    def keeps(self, outcome: Dict[str, Any]) -> bool:
        status = outcome.get("status")
        if self.keep_error and status == "error":
            return True
        if self.keep_shed and outcome.get("shed"):
            return True
        if self.keep_witness and outcome.get("witness"):
            return True
        elapsed = outcome.get("elapsed_ms")
        if self.slow_ms is not None and elapsed is not None \
                and elapsed >= self.slow_ms:
            return True
        return False


class TraceCollector:
    """A registry sink that reassembles spans into finished traces.

    Lifecycle per request: :meth:`begin` registers the root context,
    span events carrying its ``trace_id`` (or *linking* to it — the
    batch span serves many traces at once) accumulate, and
    :meth:`finish` seals the trace, applying head sampling plus the
    tail-keep rules.  Kept traces land in a bounded deque
    (:meth:`traces`); everything else is dropped on the spot, so memory
    stays flat under arbitrarily long serving sessions.

    Thread-safe: spans arrive from executor threads and replayed worker
    processes while begin/finish run on the event loop.
    """

    def __init__(
        self,
        head_sample: float = 1.0,
        tail: Optional[TailRules] = None,
        max_traces: int = 256,
        max_spans: int = 512,
        max_open: int = 1024,
        rng: Optional[Callable[[], float]] = None,
    ) -> None:
        self.head_sample = max(0.0, min(1.0, head_sample))
        self.tail = tail if tail is not None else TailRules()
        self.max_spans = max_spans
        self._rng = rng
        self._lock = threading.Lock()
        self._open: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._max_open = max_open
        self._kept: "deque[Dict[str, Any]]" = deque(maxlen=max_traces)
        self.begun = 0
        self.kept = 0
        self.dropped = 0
        self.tail_kept = 0

    # -- admission-side API -------------------------------------------------

    def sample(self) -> bool:
        """The head-sampling decision for a newly minted trace."""
        if self.head_sample >= 1.0:
            return True
        if self.head_sample <= 0.0:
            return False
        if self._rng is not None:
            return self._rng() < self.head_sample
        return random.random() < self.head_sample

    def begin(self, ctx: TraceContext, **meta: Any) -> None:
        """Register the root context of one request's trace."""
        with self._lock:
            self.begun += 1
            self._open[ctx.trace_id] = {
                "ctx": ctx,
                "meta": dict(meta),
                "spans": [],
                "truncated": 0,
            }
            # A request that never finishes (client vanished mid-await)
            # must not pin its buffer forever.
            while len(self._open) > self._max_open:
                self._open.popitem(last=False)

    # -- the sink protocol --------------------------------------------------

    def emit(self, event: Dict[str, Any]) -> None:
        """Buffer span events under every trace they belong or link to."""
        if event.get("type") != "span":
            return
        trace_id = event.get("trace_id")
        targets = []
        if trace_id is not None:
            targets.append(trace_id)
        for link in event.get("links", ()):  # batch spans serve many
            linked = link.get("trace_id")
            if linked is not None and linked != trace_id:
                targets.append(linked)
        if not targets:
            return
        with self._lock:
            for target in targets:
                entry = self._open.get(target)
                if entry is None:
                    continue
                if len(entry["spans"]) >= self.max_spans:
                    entry["truncated"] += 1
                    continue
                entry["spans"].append(event)

    def close(self) -> None:
        pass

    # -- completion-side API ------------------------------------------------

    def finish(self, trace_id: str, **outcome: Any) -> Optional[Dict[str, Any]]:
        """Seal one trace: keep it (head-sampled or tail-kept) or drop.

        ``outcome`` feeds the tail rules — ``status``, ``elapsed_ms``,
        ``shed``, ``witness``.  Returns the kept trace record (also
        appended to :meth:`traces`) or ``None``.
        """
        with self._lock:
            entry = self._open.pop(trace_id, None)
        if entry is None:
            return None
        ctx: TraceContext = entry["ctx"]
        head = ctx.sampled
        tail = self.tail.keeps(outcome)
        if not head and not tail:
            with self._lock:
                self.dropped += 1
            return None
        spans = sorted(entry["spans"],
                       key=lambda s: (s.get("start") or 0.0))
        record = {
            "type": "trace",
            "trace_id": trace_id,
            "root_span": ctx.span_id,
            "sampled": head,
            "tail_kept": bool(tail and not head),
            "meta": entry["meta"],
            "outcome": dict(outcome),
            "truncated_spans": entry["truncated"],
            "spans": spans,
        }
        with self._lock:
            self.kept += 1
            if tail and not head:
                self.tail_kept += 1
            self._kept.append(record)
        return record

    def traces(self) -> List[Dict[str, Any]]:
        """Snapshot of the kept trace records, oldest first."""
        with self._lock:
            return list(self._kept)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "begun": self.begun,
                "kept": self.kept,
                "tail_kept": self.tail_kept,
                "dropped": self.dropped,
                "open": len(self._open),
            }


# ---------------------------------------------------------------------------
# Timeline + Chrome export.
# ---------------------------------------------------------------------------

def trace_timeline(record: Dict[str, Any],
                   limit: int = 40) -> List[Dict[str, Any]]:
    """A per-request stage timeline from one kept trace record.

    One row per span, ordered by start time, with offsets relative to
    the earliest span — the ``repro query --trace`` rendering (queue
    wait → batch → engine → cache write).
    """
    spans = record.get("spans", [])
    if not spans:
        return []
    base = min(s.get("start") or 0.0 for s in spans)
    rows = []
    for span in spans[:limit]:
        rows.append({
            "name": span["name"],
            "offset_ms": round(((span.get("start") or base) - base) * 1000.0,
                               3),
            "duration_ms": round((span.get("duration") or 0.0) * 1000.0, 3),
            "remote": bool(span.get("pid")),
        })
    return rows


def chrome_trace_events(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Span events → Chrome trace-event objects (``"ph": "X"``).

    Timestamps convert from wall seconds to microseconds.  Each event
    lands on a ``(pid, tid)`` lane: the pid is the emitting process
    (replayed worker spans carry theirs; local spans use this process),
    the tid is a short form of the trace id so one request reads as one
    horizontal lane in ``chrome://tracing`` / Perfetto.
    """
    local_pid = os.getpid()
    events: List[Dict[str, Any]] = []
    for span in spans:
        if span.get("type") != "span":
            continue
        trace_id = span.get("trace_id")
        tid = int(trace_id[:8], 16) % 1000000 if trace_id else 0
        args = dict(span.get("attrs") or {})
        if trace_id:
            args["trace_id"] = trace_id
            args["trace_span"] = span.get("trace_span")
            args["trace_parent"] = span.get("trace_parent")
        if span.get("links"):
            args["links"] = span["links"]
        if span.get("error"):
            args["error"] = span["error"]
        events.append({
            "name": span.get("name", "?"),
            "ph": "X",
            "ts": round((span.get("start") or 0.0) * 1e6, 3),
            "dur": round((span.get("duration") or 0.0) * 1e6, 3),
            "pid": span.get("pid", local_pid),
            "tid": tid,
            "cat": "repro",
            "args": args,
        })
    return events


def chrome_payload(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """The full ``chrome://tracing`` document for a span sequence."""
    return {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.trace"},
    }


def load_trace_events(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Span events from a telemetry JSONL file (``--trace-file``).

    Returns ``(span_events, skipped)`` where ``skipped`` counts
    non-span and malformed lines — a trace file is allowed to also hold
    point events and the closing summary record.
    """
    spans: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if isinstance(event, dict) and event.get("type") == "span":
                spans.append(event)
            elif isinstance(event, dict) and event.get("type") == "trace":
                spans.extend(s for s in event.get("spans", ())
                             if isinstance(s, dict))
            else:
                skipped += 1
    return spans, skipped
