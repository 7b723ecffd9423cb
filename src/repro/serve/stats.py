"""Always-on service statistics, mirrored into :mod:`repro.obs`.

The engine's telemetry registry is disabled by default (and per-command
in the CLI), but a serving process must answer ``/metrics`` whether or
not anyone attached a profiling sink.  :class:`ServeStats` therefore
keeps its own thread-safe counters/gauges and a bounded latency window
unconditionally — the per-request cost is a dict update under a lock —
and *additionally* forwards every movement to the default obs registry
under the ``serve.*`` namespace whenever that registry is enabled, so
``repro serve --profile``/``--trace-file`` see the service exactly like
any other instrumented subsystem.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Dict, Optional, Sequence

from ..obs import DEFAULT as _OBS
from ..obs.prometheus import Histogram

__all__ = ["LatencyWindow", "ServeStats", "STAGES", "STAGE_HELP",
           "nearest_rank"]

#: Per-stage latency histograms recorded by the serving path, with the
#: help text of each.  Each stage is exposed as its own Prometheus
#: family (``repro_serve_stage_<name>_seconds``).
STAGE_HELP = {
    "request": "Time to answer one successful query, seconds.",
    "queue_wait": "Each request's wait from admission to dispatch, "
                  "seconds.",
    "batch_window": "The oldest batch member's wait from admission to "
                    "dispatch, seconds.",
    "engine": "Engine dispatch time of one batch, seconds.",
    "cache_write": "Result-cache writeback time of one batch, seconds.",
}
STAGES = tuple(STAGE_HELP)


def nearest_rank(data: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct``-th percentile of sorted ``data`` by the nearest-rank
    method (the ``ceil(pct * n / 100)``-th smallest sample), or ``None``
    for no data."""
    if not data:
        return None
    rank = max(1, math.ceil(pct * len(data) / 100.0))
    return data[min(rank, len(data)) - 1]


class LatencyWindow:
    """A bounded sliding window of request latencies (seconds).

    Percentiles are computed on demand over the last ``maxlen`` samples
    — recording stays O(1) on the serving path, and the window bounds
    memory for arbitrarily long-lived servers.
    """

    def __init__(self, maxlen: int = 4096) -> None:
        self._samples: "deque[float]" = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._count = 0

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self._count += 1

    def percentile(self, pct: float) -> Optional[float]:
        """The ``pct``-th percentile (nearest-rank) in seconds, or
        ``None`` before the first sample."""
        with self._lock:
            data = sorted(self._samples)
        return nearest_rank(data, pct)

    def snapshot(self) -> Dict[str, Any]:
        """``count`` plus p50/p95/max over the window, in milliseconds."""
        with self._lock:
            data = sorted(self._samples)
            count = self._count

        def at(pct: float) -> Optional[float]:
            value = nearest_rank(data, pct)
            return None if value is None else round(value * 1000.0, 3)

        return {
            "count": count,
            "p50_ms": at(50),
            "p95_ms": at(95),
            "max_ms": round(data[-1] * 1000.0, 3) if data else None,
        }


class ServeStats:
    """Thread-safe counters/gauges + latency window for one server.

    ``buckets`` overrides the per-stage histogram bucket bounds (in
    seconds) — the Prometheus exposition's configurable replacement for
    the fixed p50/p95 gauges, which remain on the JSON snapshot.
    """

    def __init__(self, buckets: Optional[Sequence[float]] = None) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._buckets = tuple(buckets) if buckets is not None else None
        self._histograms: Dict[str, Histogram] = {}
        self.latency = LatencyWindow()

    def incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
        if _OBS.enabled:
            _OBS.incr(f"serve.{name}", n)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value
        if _OBS.enabled:
            _OBS.gauge(f"serve.{name}", value)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def observe(self, stage: str, seconds: float) -> None:
        """Record one duration into the stage's latency histogram."""
        histogram = self._histograms.get(stage)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    stage, Histogram(self._buckets))
        histogram.observe(seconds)

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot of every stage histogram (see
        :meth:`repro.obs.prometheus.Histogram.snapshot`)."""
        with self._lock:
            items = list(self._histograms.items())
        return {name: hist.snapshot() for name, hist in items}

    def record_latency(self, seconds: float) -> None:
        self.latency.record(seconds)
        self.observe("request", seconds)

    def snapshot(self) -> Dict[str, Any]:
        """Counters, gauges, latency percentiles, and the derived rates
        the admission/coalescing contract is judged by."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
        latency = self.latency.snapshot()
        queries = counters.get("requests.query", 0)
        coalesced = counters.get("coalesced", 0)
        cached = counters.get("requests.cached", 0)
        shed = sum(v for k, v in counters.items() if k.startswith("shed."))
        task_hits = counters.get("cache.memo_hits", 0)
        task_lookups = task_hits + counters.get("cache.misses", 0)
        if _OBS.enabled:
            # An empty-at-snapshot window must reset the mirrored
            # gauges explicitly: skipping the write would leave the
            # previous snapshot's percentiles standing in obs gauges()
            # as if they were current.
            _OBS.gauge("serve.latency.p50_ms",
                       latency["p50_ms"] if latency["p50_ms"] is not None
                       else 0.0)
            _OBS.gauge("serve.latency.p95_ms",
                       latency["p95_ms"] if latency["p95_ms"] is not None
                       else 0.0)
        return {
            "counters": counters,
            "gauges": gauges,
            "latency": latency,
            "histograms": self.histograms(),
            "derived": {
                "coalesce_rate": coalesced / queries if queries else 0.0,
                "request_cache_hit_rate": cached / queries if queries
                else 0.0,
                "task_cache_hit_rate": task_hits / task_lookups
                if task_lookups else 0.0,
                "shed_total": shed,
            },
        }
