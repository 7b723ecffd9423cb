"""The small runner the workloads share.

* :class:`OpResult` keeps each measured operation's latency and verdict;
  :func:`end_to_end` turns it into the end-to-end metric set.
* :class:`LayerSink` is a ``repro.obs`` sink that folds closed spans
  into busy time and count per span name.
* :func:`layer_metrics` turns one traced run into the per-layer metric
  set declared in ``BENCHMARK.json``.

Every per-layer figure comes from the program: its own spans, and the
counters of the process that did the work.  The benchmark adds no spans
and repeats no program work outside the measured operations.
"""

import statistics
import sys
import threading
import traceback
from collections import defaultdict


class OpResult:
    """Latencies (seconds) and verdict counts of one measured run."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0

    def record(self, seconds, ok):
        self.attempted += 1
        if ok:
            self.latencies.append(seconds)
        else:
            self.failed += 1


def report_failure(where):
    print(f"perfbench: operation failed in {where}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def end_to_end(result, setup_s):
    """The end-to-end metric set of one untraced run.

    Only the median latency is reported: on a shared two-CPU machine the
    75th percentile and the throughput of the ``serve`` workload spread
    by 20-30% of their median between runs, wider than a usable bound.
    """
    return {
        "op_ms": (statistics.median(result.latencies or [0.0]) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


class LayerSink:
    """``repro.obs`` sink: busy time and count per span name."""

    def __init__(self):
        self._lock = threading.Lock()
        self.busy = defaultdict(float)
        self.count = defaultdict(int)

    def emit(self, event):
        if event.get("type") != "span":
            return
        with self._lock:
            self.busy[event.get("name")] += float(event.get("duration") or 0.0)
            self.count[event.get("name")] += 1

    def close(self):
        pass


#: Per-layer metrics, in ``BENCHMARK.json`` order.  Shares are the
#: layer's summed busy time over the summed latency of the measured
#: operations, in percent (above 100 when requests overlap in a layer).
SHARE_LAYERS = {
    "admission_pct": "serve.admission",
    "queue_wait_pct": "serve.queue_wait",
    "batch_pct": "serve.batch",
    "scan_pct": "sweep.task",
    "store_pct": "serve.cache_write",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(result, sink, counters, extra):
    """The per-layer metric set of one traced run.

    ``counters`` is the ``repro.obs`` counter snapshot of the measured
    operations; ``extra`` adds the server's own statistics by name.
    """
    ops = max(1, len(result.latencies))
    total = sum(result.latencies)
    metrics = {
        "traced_op_ms": (statistics.median(result.latencies or [0.0]) * 1e3,
                         "ms"),
        "scan_ms": (sink.busy.get("sweep.task", 0.0) / ops * 1e3, "ms"),
    }
    for name, span in SHARE_LAYERS.items():
        metrics[name] = (100.0 * _ratio(sink.busy.get(span, 0.0), total), "%")
    c = counters
    per_op = max(1, result.attempted)
    scans = {
        "interval": c.get("sweep.scans.fastpath", 0),
        "columnar": c.get("sweep.scans.columnar", 0),
        "compiled": c.get("sweep.scans.compiled", 0),
        "scalar": c.get("sweep.scans.cached", 0) + c.get("sweep.scans.plain", 0),
    }
    all_scans = sum(scans.values())
    metrics.update({
        "tasks_per_op": (sink.count.get("sweep.task", 0) / ops, "count"),
        "objects_judged_per_op": (c.get("sweep.objects.judged", 0) / per_op,
                                  "count"),
        "plan_cache_hit_rate": (_ratio(
            c.get("plan.cache.hits", 0),
            c.get("plan.cache.hits", 0) + c.get("plan.cache.misses", 0)),
            "ratio"),
        "interval_scan_share": (_ratio(scans["interval"], all_scans), "ratio"),
        "columnar_scan_share": (_ratio(scans["columnar"], all_scans), "ratio"),
        "compiled_scan_share": (_ratio(scans["compiled"], all_scans), "ratio"),
        "scalar_scan_share": (_ratio(scans["scalar"], all_scans), "ratio"),
    })
    for name, (value, unit) in extra.items():
        metrics[name] = (value, unit)
    return metrics


class Traced:
    """Context manager: the ``repro.obs`` registry recording into a
    :class:`LayerSink` (and restored afterwards)."""

    def __init__(self):
        from repro import obs

        self.registry = obs.get_registry()
        self.sink = LayerSink()

    def __enter__(self):
        self.registry.reset()
        self.registry.enable(self.sink)
        return self

    def restart(self):
        """Drop everything recorded so far (warm-up operations)."""
        self.registry.remove_sink(self.sink)
        self.sink = LayerSink()
        self.registry.reset()
        self.registry.enable(self.sink)

    def counters(self):
        return self.registry.counters()

    def __exit__(self, *exc):
        self.registry.disable()
        self.registry.remove_sink(self.sink)
        return False
