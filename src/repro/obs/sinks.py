"""Event sinks: where closed spans and point events go.

Anything with an ``emit(event: dict) -> None`` method is a sink
(:class:`Sink` documents the protocol).  Three implementations cover the
three consumers:

* :class:`MemorySink` — keeps events in a list; what tests assert on.
* :class:`JsonlSink` — one ``json.dumps`` line per event, for offline
  analysis (``repro <cmd> --trace-file out.jsonl``).
* :class:`ConsoleReporter` — a :class:`MemorySink` that can print a
  human-readable span/counter summary (``repro <cmd> --profile``).

:func:`derived_metrics` computes the quality ratios — interval
fast-path, columnar and compiled-program coverage — from a counter
snapshot; the console report, the JSONL summary line, and the sweep
benchmark all share it.
"""

from __future__ import annotations

import io
import json
import os
import sys
import threading
from collections import defaultdict
from typing import Any, Dict, List, Optional, TextIO

__all__ = [
    "Sink",
    "MemorySink",
    "JsonlSink",
    "ConsoleReporter",
    "derived_metrics",
]


class Sink:
    """The sink protocol (subclassing is optional — duck typing works)."""

    def emit(self, event: Dict[str, Any]) -> None:
        """Receive one event dict.  Must be thread-safe."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further ``emit`` calls are undefined."""


class MemorySink(Sink):
    """In-memory event collector for tests and ad-hoc inspection."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Snapshot copy of everything emitted so far."""
        with self._lock:
            return list(self._events)

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Span events, optionally filtered by span name."""
        return [
            e for e in self.events
            if e.get("type") == "span" and (name is None or e["name"] == name)
        ]

    def close(self) -> None:
        pass


class JsonlSink(Sink):
    """Append events to a file, one JSON object per line.

    Writes are buffered (``buffer_lines`` serialized lines per write
    syscall) so a long sweep emitting hundreds of thousands of span
    events doesn't pay one ``write`` each.  :meth:`flush`,
    :meth:`write_summary`, and :meth:`close` all drain the buffer, so a
    file read after any of them sees every event emitted so far.
    """

    def __init__(self, target: Any, buffer_lines: int = 256) -> None:
        self._lock = threading.Lock()
        self._buffer: List[str] = []
        self._buffer_lines = max(1, buffer_lines)
        # Fork guard: a pool worker forked mid-session inherits this
        # sink (buffer and file descriptor included); if it wrote, the
        # inherited buffer would duplicate lines into the parent's file.
        # Only the process that opened the sink ever writes.
        self._pid = os.getpid()
        if hasattr(target, "write"):
            self._file: TextIO = target
            self._owns_file = False
        else:
            self._file = open(target, "w", encoding="utf-8")
            self._owns_file = True

    def emit(self, event: Dict[str, Any]) -> None:
        if os.getpid() != self._pid:
            return
        line = json.dumps(event, default=str)
        with self._lock:
            self._buffer.append(line)
            if len(self._buffer) >= self._buffer_lines:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if self._buffer:
            self._file.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def flush(self) -> None:
        """Drain the line buffer and flush the underlying file."""
        if os.getpid() != self._pid:
            return
        with self._lock:
            self._flush_locked()
            self._file.flush()

    def write_summary(self, registry: Any) -> None:
        """Append a final ``{"type": "summary"}`` line with the
        registry's counter/gauge snapshot and the derived metrics,
        then flush — the summary is a read barrier for consumers."""
        counters = registry.counters()
        self.emit({
            "type": "summary",
            "counters": counters,
            "gauges": registry.gauges(),
            "derived": derived_metrics(counters),
        })
        self.flush()

    def close(self) -> None:
        if os.getpid() != self._pid:
            return
        with self._lock:
            self._flush_locked()
            self._file.flush()
            if self._owns_file:
                self._file.close()


def derived_metrics(counters: Dict[str, int]) -> Dict[str, float]:
    """Quality ratios computed from the standard sweep counters.

    ``fastpath_fraction``
        Interval fast-path scans over all witness scans — the share of
        the corpus answered by closed-form interval algebra instead of
        per-object evaluation.
    ``compiled_fraction``
        Compiled-program scans over all witness scans — the share the
        predicate compiler (:mod:`repro.core.plan`) fused into
        single-pass programs.
    ``columnar_fraction``
        Columnar mask-pass scans over all witness scans — the share the
        columnar engine (:mod:`repro.core.columnar`) vectorized into
        whole-column operations.

    Ratios whose denominators are zero are omitted.
    """
    derived: Dict[str, float] = {}
    fast = counters.get("sweep.scans.fastpath", 0)
    columnar = counters.get("sweep.scans.columnar", 0)
    compiled = counters.get("sweep.scans.compiled", 0)
    scans = fast + columnar + compiled \
        + counters.get("sweep.scans.plain", 0)
    if scans:
        derived["fastpath_fraction"] = fast / scans
        derived["columnar_fraction"] = columnar / scans
        derived["compiled_fraction"] = compiled / scans
    return derived


class ConsoleReporter(MemorySink):
    """Collects events and renders an end-of-run profile summary."""

    #: Valid ``sort`` keys for :meth:`render` / ``--profile-sort``.
    SORT_KEYS = ("total", "self", "count")

    def report(self, registry: Any, file: Optional[TextIO] = None,
               sort: str = "total") -> None:
        """Print span aggregates, counters, gauges, and derived metrics."""
        out = file or sys.stdout
        out.write(self.render(registry, sort=sort))

    def render(self, registry: Any, sort: str = "total") -> str:
        if sort not in self.SORT_KEYS:
            raise ValueError(
                f"sort must be one of {self.SORT_KEYS}, got {sort!r}")
        buf = io.StringIO()
        spans = self.spans()
        buf.write("== profile ==\n")
        if spans:
            # Self time = a span's duration minus its direct children's,
            # so hot leaf spans aren't hidden under their parents.
            child_time: Dict[Any, float] = defaultdict(float)
            for span in spans:
                parent = span.get("parent_id")
                if parent is not None:
                    child_time[parent] += span["duration"] or 0.0
            agg: Dict[str, List[float]] = defaultdict(list)
            self_agg: Dict[str, float] = defaultdict(float)
            for span in spans:
                duration = span["duration"] or 0.0
                agg[span["name"]].append(duration)
                self_agg[span["name"]] += max(
                    0.0, duration - child_time.get(span.get("span_id"), 0.0))
            if sort == "self":
                key = lambda n: -self_agg[n]  # noqa: E731
            elif sort == "count":
                key = lambda n: -len(agg[n])  # noqa: E731
            else:
                key = lambda n: -sum(agg[n])  # noqa: E731
            buf.write(f"{'span':<28} {'count':>6} {'total_s':>10} "
                      f"{'self_s':>10} {'mean_s':>10} {'max_s':>10}\n")
            for name in sorted(agg, key=key):
                durations = agg[name]
                total = sum(durations)
                buf.write(
                    f"{name:<28} {len(durations):>6} {total:>10.4f} "
                    f"{self_agg[name]:>10.4f} "
                    f"{total / len(durations):>10.4f} "
                    f"{max(durations):>10.4f}\n"
                )
        else:
            buf.write("(no spans recorded)\n")
        counters = registry.counters()
        if counters:
            buf.write("-- counters --\n")
            for name in sorted(counters):
                buf.write(f"{name:<44} {counters[name]:>12,}\n")
        gauges = registry.gauges()
        if gauges:
            buf.write("-- gauges --\n")
            for name in sorted(gauges):
                buf.write(f"{name:<44} {gauges[name]:>12,}\n")
        derived = derived_metrics(counters)
        if derived:
            buf.write("-- derived --\n")
            if "fastpath_fraction" in derived:
                buf.write("interval fast-path coverage: "
                          f"{derived['fastpath_fraction']:.1%} of scans\n")
            if derived.get("compiled_fraction"):
                buf.write("compiled-program coverage: "
                          f"{derived['compiled_fraction']:.1%} of scans\n")
        return buf.getvalue()
