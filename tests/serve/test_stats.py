"""Service statistics: latency percentiles, derived rates, obs mirror."""

import pytest

from repro import obs
from repro.serve import LatencyWindow, ServeStats


class TestLatencyWindow:
    def test_empty_window(self):
        window = LatencyWindow()
        assert window.percentile(50) is None
        assert window.snapshot() == {"count": 0, "p50_ms": None,
                                     "p95_ms": None, "max_ms": None}

    def test_nearest_rank_percentiles(self):
        window = LatencyWindow()
        for ms in range(1, 101):  # 1..100 ms
            window.record(ms / 1000.0)
        snapshot = window.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["p50_ms"] == 50.0  # nearest-rank, not midpoint
        assert snapshot["p95_ms"] == 95.0
        assert snapshot["max_ms"] == 100.0

    @pytest.mark.parametrize("n, p50", [(2, 1), (6, 3), (10, 5)])
    def test_p50_is_the_ceil_rank_when_it_is_an_odd_integer(self, n, p50):
        # p/100 * n is an odd integer here; rounding it half-to-even
        # used to report the sample one rank above the median.
        window = LatencyWindow()
        for ms in range(1, n + 1):
            window.record(ms / 1000.0)
        assert window.percentile(50) == p50 / 1000.0
        assert window.snapshot()["p50_ms"] == float(p50)

    def test_window_is_bounded_but_count_is_total(self):
        window = LatencyWindow(maxlen=8)
        for _ in range(100):
            window.record(0.001)
        window.record(1.0)
        snapshot = window.snapshot()
        assert snapshot["count"] == 101
        assert snapshot["max_ms"] == 1000.0
        assert len(window._samples) == 8


class TestServeStats:
    def test_counters_and_gauges(self):
        stats = ServeStats()
        stats.incr("requests.query")
        stats.incr("requests.query", 2)
        stats.gauge("queue.depth", 7)
        snapshot = stats.snapshot()
        assert snapshot["counters"]["requests.query"] == 3
        assert snapshot["gauges"]["queue.depth"] == 7
        assert stats.counter("requests.query") == 3
        assert stats.counter("never") == 0

    def test_derived_rates(self):
        stats = ServeStats()
        for _ in range(10):
            stats.incr("requests.query")
        stats.incr("coalesced", 2)
        stats.incr("requests.cached", 5)
        stats.incr("cache.memo_hits", 4)
        stats.incr("cache.misses", 4)
        stats.incr("shed.overload", 2)
        stats.incr("shed.deadline")
        derived = stats.snapshot()["derived"]
        assert derived["coalesce_rate"] == 0.2
        assert derived["request_cache_hit_rate"] == 0.5
        assert derived["task_cache_hit_rate"] == 0.5
        assert derived["shed_total"] == 3

    def test_zero_queries_zero_rates(self):
        derived = ServeStats().snapshot()["derived"]
        assert derived["coalesce_rate"] == 0.0
        assert derived["request_cache_hit_rate"] == 0.0
        assert derived["task_cache_hit_rate"] == 0.0

    def test_mirrored_to_obs_when_enabled(self):
        stats = ServeStats()
        stats.incr("before.enable")  # not mirrored: registry disabled
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            stats.incr("requests.query")
            stats.gauge("queue.depth", 3)
            stats.record_latency(0.002)
            stats.snapshot()
            counters = registry.counters()
            gauges = registry.gauges()
        finally:
            registry.disable()
            registry.reset()
        assert counters["serve.requests.query"] == 1
        assert "serve.before.enable" not in counters
        assert gauges["serve.queue.depth"] == 3
        assert gauges["serve.latency.p50_ms"] == 2.0

    def test_empty_window_resets_mirrored_gauges(self):
        """An empty-at-snapshot window must zero the obs gauges rather
        than leave a previous snapshot's percentiles standing."""
        registry = obs.get_registry()
        stats = ServeStats()
        registry.enable()
        try:
            stats.record_latency(0.002)
            stats.snapshot()
            assert registry.gauges()["serve.latency.p50_ms"] == 2.0
            # a fresh stats object with no samples snapshots next: the
            # stale 2.0 must not survive
            ServeStats().snapshot()
            gauges = registry.gauges()
        finally:
            registry.disable()
            registry.reset()
        assert gauges["serve.latency.p50_ms"] == 0.0
        assert gauges["serve.latency.p95_ms"] == 0.0


class TestStageHistograms:
    def test_observe_lands_in_named_stage(self):
        stats = ServeStats()
        stats.observe("engine", 0.002)
        stats.observe("engine", 0.2)
        stats.observe("queue_wait", 0.0001)
        histograms = stats.histograms()
        assert histograms["engine"]["count"] == 2
        assert histograms["queue_wait"]["count"] == 1
        assert "cache_write" not in histograms  # lazily created

    def test_record_latency_feeds_the_request_stage(self):
        stats = ServeStats()
        stats.record_latency(0.05)
        assert stats.histograms()["request"]["count"] == 1
        assert stats.latency.snapshot()["count"] == 1

    def test_custom_buckets_apply_to_every_stage(self):
        stats = ServeStats(buckets=(0.1, 1.0))
        stats.observe("engine", 0.05)
        snap = stats.histograms()["engine"]
        assert [b for b, _ in snap["buckets"]] == [0.1, 1.0]
        assert snap["buckets"][0][1] == 1

    def test_histograms_appear_on_snapshot(self):
        stats = ServeStats()
        stats.observe("batch_window", 0.003)
        snapshot = stats.snapshot()
        assert snapshot["histograms"]["batch_window"]["count"] == 1
