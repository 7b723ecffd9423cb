"""Tests for the telemetry layer: spans, counters, sinks, guards."""

import io
import json
import threading

import pytest

from repro import obs
from repro.obs import (
    ConsoleReporter,
    JsonlSink,
    MemorySink,
    NOOP_SPAN,
    Registry,
    derived_metrics,
)


class FakeClock:
    """Deterministic clock: every call advances by ``step``."""

    def __init__(self, start=0.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


@pytest.fixture
def registry():
    reg = Registry(clock=FakeClock(), wall=lambda: 1234.5)
    sink = MemorySink()
    reg.enable(sink)
    return reg, sink


class TestSpans:
    def test_timing_is_deterministic_with_fake_clock(self, registry):
        reg, sink = registry
        # clock calls: outer enter -> 1, inner enter -> 2,
        # inner exit -> 3, outer exit -> 4
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        inner, outer = sink.spans("inner")[0], sink.spans("outer")[0]
        assert inner["duration"] == 1.0
        assert outer["duration"] == 3.0
        assert inner["start"] == outer["start"] == 1234.5

    def test_nesting_records_parent_ids(self, registry):
        reg, sink = registry
        with reg.span("outer"):
            with reg.span("mid"):
                with reg.span("leaf"):
                    pass
            with reg.span("sibling"):
                pass
        by_name = {s["name"]: s for s in sink.spans()}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["mid"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["leaf"]["parent_id"] == by_name["mid"]["span_id"]
        assert by_name["sibling"]["parent_id"] == by_name["outer"]["span_id"]
        ids = [s["span_id"] for s in sink.spans()]
        assert len(ids) == len(set(ids))

    def test_spans_close_inner_first(self, registry):
        reg, sink = registry
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        assert [s["name"] for s in sink.spans()] == ["inner", "outer"]

    def test_attributes_and_set(self, registry):
        reg, sink = registry
        with reg.span("work", model="m") as span:
            span.set(findings=3)
        event = sink.spans("work")[0]
        assert event["attrs"] == {"model": "m", "findings": 3}

    def test_exception_is_recorded_and_propagates(self, registry):
        reg, sink = registry
        with pytest.raises(ValueError):
            with reg.span("boom"):
                raise ValueError("nope")
        assert sink.spans("boom")[0]["error"] == "ValueError"

    def test_parent_tracking_is_per_thread(self, registry):
        reg, sink = registry
        started = threading.Event()

        def other():
            started.wait(5)
            with reg.span("thread-span"):
                pass

        worker = threading.Thread(target=other)
        worker.start()
        with reg.span("main-span"):
            started.set()
            worker.join()
        # the other thread's span must not parent under main's stack
        assert sink.spans("thread-span")[0]["parent_id"] is None

    def test_events_carry_enclosing_span(self, registry):
        reg, sink = registry
        with reg.span("outer") as span:
            reg.event("ping", detail="x")
        event = [e for e in sink.events if e["type"] == "event"][0]
        assert event["name"] == "ping"
        assert event["parent_id"] == span.span_id
        assert event["ts"] == 1234.5


class TestCounters:
    def test_incr_and_gauge(self, registry):
        reg, _sink = registry
        reg.incr("a")
        reg.incr("a", 4)
        reg.gauge("g", 7.5)
        assert reg.counter("a") == 5
        assert reg.counters() == {"a": 5}
        assert reg.gauges() == {"g": 7.5}

    def test_thread_aggregation_is_exact(self, registry):
        reg, _sink = registry

        def worker():
            for _ in range(1000):
                reg.incr("n")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 8000

    def test_reset_zeroes_everything(self, registry):
        reg, _sink = registry
        reg.incr("a")
        reg.gauge("g", 1)
        reg.reset()
        assert reg.counters() == {} and reg.gauges() == {}


class TestDisabledGuard:
    def test_disabled_registry_records_nothing(self):
        reg = Registry()
        sink = MemorySink()
        with reg._lock:  # attach without enabling
            reg._sinks.append(sink)
        with reg.span("ignored") as span:
            span.set(x=1)
            reg.incr("c")
            reg.gauge("g", 2)
            reg.event("e")
        assert sink.events == []
        assert reg.counters() == {} and reg.gauges() == {}

    def test_disabled_span_is_the_shared_noop(self):
        reg = Registry()
        assert reg.span("a") is NOOP_SPAN
        assert reg.span("b", attr=1) is NOOP_SPAN

    def test_default_registry_sweep_emits_nothing_while_disabled(self):
        from repro.core import Domain, PrimitiveFSM, in_range, less_equal
        from repro.core.sweep import sweep_models

        registry = obs.get_registry()
        assert not registry.enabled
        sink = MemorySink()
        with registry._lock:
            registry._sinks.append(sink)
        try:
            before = registry.counters()
            pfsm = PrimitiveFSM("p", "a", "x",
                                spec_accepts=in_range(0, 10),
                                impl_accepts=less_equal(10))
            model = _one_pfsm_model(pfsm)
            sweep_models({"m": model}, {"m": {"p": Domain.integers(-5, 15)}},
                         workers=2)
            assert sink.events == []
            assert registry.counters() == before
        finally:
            registry.clear_sinks()


def _one_pfsm_model(pfsm):
    from repro.core import Operation, VulnerabilityModel

    return VulnerabilityModel("m", [Operation("op", "x", [pfsm])])


class TestEngineTelemetry:
    """Counter aggregation driven by the real sweep engine."""

    @pytest.fixture(autouse=True)
    def clean_default(self):
        registry = obs.get_registry()
        registry.reset()
        yield
        registry.disable()
        registry.clear_sinks()
        registry.reset()

    def test_parallel_sweep_counters_aggregate_exactly(self):
        from repro.models import all_extended_models, all_extended_pfsm_domains

        sink = MemorySink()
        obs.enable(sink)
        sweeps = __import__("repro.core.sweep", fromlist=["sweep_models"]) \
            .sweep_models(all_extended_models(), all_extended_pfsm_domains(),
                          workers=4)
        obs.disable()
        counters = obs.counters()
        queued = counters["sweep.tasks.queued"]
        assert queued > 0
        assert counters["sweep.tasks.completed"] == queued
        scans = sum(counters.get(k, 0) for k in (
            "sweep.scans.fastpath", "sweep.scans.compiled",
            "sweep.scans.plain"))
        assert scans == queued
        assert len(sink.spans("sweep.task")) == queued
        total_found = sum(len(s.findings) for s in sweeps)
        assert total_found > 0
        # every task span nests under the one sweep.models span
        root = sink.spans("sweep.models")[0]
        assert all(s["parent_id"] == root["span_id"]
                   for s in sink.spans("sweep.task"))

    def test_model_run_bridges_trace_events(self):
        from repro.models import all_extended_exploit_inputs, \
            all_extended_models

        label = "Sendmail Signed Integer Overflow"
        model = all_extended_models()[label]
        exploit = all_extended_exploit_inputs()[label]
        sink = MemorySink()
        obs.enable(sink)
        result = model.run(exploit)
        obs.disable()
        kinds = {e["name"] for e in sink.events if e["type"] == "event"}
        assert "trace.operation_start" in kinds
        assert "trace.pfsm_step" in kinds
        runs = sink.spans("model.run")
        assert len(runs) == 1
        assert runs[0]["attrs"]["hidden"] == result.hidden_path_count
        assert len(sink.spans("model.operation")) == len(model.operations)
        assert obs.counters()["model.runs"] == 1

    def test_plan_compiles_surface(self):
        from repro.core import Domain, PrimitiveFSM, in_range
        from repro.core.sweep import hidden_witness_scan

        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=in_range(0, 5),
                            impl_accepts=None)
        twin = PrimitiveFSM("q", "a", "x", spec_accepts=in_range(0, 5),
                            impl_accepts=None)
        domain = Domain.of(1, 2, 3, 1, 9)
        obs.enable()
        try:
            for _ in range(2):
                assert hidden_witness_scan(pfsm, domain, limit=10) == [9]
            assert hidden_witness_scan(twin, domain, limit=10) == [9]
        finally:
            obs.disable()
        counters = obs.counters()
        # each pFSM compiles its own program once; a repeat scan of the
        # same pFSM reuses it
        assert counters["plan.compiles"] == 2
        assert not [name for name in counters
                    if name.startswith("plan.cache.")]
        # 4 distinct objects, judged once for each of the two programs:
        # the repeat scan reads the first scan's verdicts
        assert counters["sweep.objects.judged"] == 8
        assert counters["sweep.objects.reused"] == 4


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        reg = Registry(clock=FakeClock(), wall=lambda: 10.0)
        sink = JsonlSink(str(path))
        reg.enable(sink)
        with reg.span("outer", model="m"):
            reg.event("mark", q=1)
        reg.incr("sweep.scans.fastpath", 3)
        reg.incr("sweep.scans.plain", 1)
        reg.disable()
        sink.write_summary(reg)
        sink.close()

        lines = path.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["type"] for e in events] == ["event", "span", "summary"]
        assert events[1]["name"] == "outer"
        assert events[1]["attrs"] == {"model": "m"}
        assert events[2]["counters"]["sweep.scans.fastpath"] == 3
        assert events[2]["derived"]["fastpath_fraction"] == 0.75

    def test_jsonl_accepts_open_file(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit({"type": "event", "name": "x"})
        sink.close()  # must not close a caller-owned file
        assert json.loads(buf.getvalue()) == {"type": "event", "name": "x"}

    def test_console_reporter_renders_summary(self):
        reg = Registry(clock=FakeClock())
        reporter = ConsoleReporter()
        reg.enable(reporter)
        with reg.span("sweep.task"):
            pass
        reg.incr("sweep.scans.fastpath", 3)
        reg.incr("sweep.scans.plain", 1)
        reg.disable()
        text = reporter.render(reg)
        assert "sweep.task" in text
        assert "interval fast-path coverage: 75.0%" in text

    def test_derived_metrics_omit_empty_denominators(self):
        assert derived_metrics({}) == {}
        assert derived_metrics({"sweep.tasks.queued": 4}) == {}


class TestModuleLevelApi:
    def test_enable_disable_round_trip(self):
        registry = obs.get_registry()
        sink = MemorySink()
        try:
            obs.enable(sink)
            assert obs.enabled()
            with obs.span("s"):
                obs.incr("k")
                obs.event("e")
            assert obs.counters()["k"] == 1
            assert {e["type"] for e in sink.events} == {"span", "event"}
        finally:
            obs.disable()
            registry.clear_sinks()
            registry.reset()
        assert not obs.enabled()


class TestJsonlBuffering:
    def test_emits_below_threshold_stay_buffered_until_flush(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        sink = JsonlSink(str(path), buffer_lines=64)
        for i in range(10):
            sink.emit({"type": "event", "i": i})
        # nothing hit the file yet — the whole point of buffering
        assert path.read_text() == ""
        sink.flush()
        assert len(path.read_text().splitlines()) == 10
        sink.close()

    def test_buffer_drains_automatically_at_threshold(self):
        buf = io.StringIO()  # writes to it are immediately visible
        sink = JsonlSink(buf, buffer_lines=4)
        for i in range(3):
            sink.emit({"type": "event", "i": i})
        assert buf.getvalue() == ""
        sink.emit({"type": "event", "i": 3})
        assert len(buf.getvalue().splitlines()) == 4
        sink.close()

    def test_close_flushes_remaining_lines(self, tmp_path):
        path = tmp_path / "close.jsonl"
        sink = JsonlSink(str(path), buffer_lines=1000)
        sink.emit({"type": "event", "i": 0})
        sink.close()
        events = [json.loads(l) for l in path.read_text().splitlines()]
        assert events == [{"type": "event", "i": 0}]

    def test_write_summary_is_a_read_barrier(self, tmp_path):
        path = tmp_path / "summary.jsonl"
        reg = Registry()
        sink = JsonlSink(str(path), buffer_lines=1000)
        reg.enable(sink)
        reg.incr("sweep.tasks.queued")
        reg.event("mark")
        sink.write_summary(reg)
        # before close: summary flushed everything buffered so far
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [e["type"] for e in lines] == ["event", "summary"]
        reg.disable()
        sink.close()

    def test_forked_child_never_writes_inherited_buffer(self, tmp_path):
        import os as _os
        if not hasattr(_os, "fork"):
            pytest.skip("fork not available")
        path = tmp_path / "forked.jsonl"
        sink = JsonlSink(str(path), buffer_lines=1000)
        sink.emit({"type": "event", "who": "parent"})
        pid = _os.fork()
        if pid == 0:  # child: emit + flush must both be no-ops
            try:
                sink.emit({"type": "event", "who": "child"})
                sink.flush()
                sink.close()
            finally:
                _os._exit(0)
        _os.waitpid(pid, 0)
        sink.close()
        events = [json.loads(l) for l in path.read_text().splitlines()]
        assert events == [{"type": "event", "who": "parent"}]


class TestConsoleReporterSort:
    @staticmethod
    def _populated_reporter():
        """leaf runs 3x (all self time); parent wraps them (little self)."""
        clock = FakeClock(step=1.0)
        reg = Registry(clock=clock)
        reporter = ConsoleReporter()
        reg.enable(reporter)
        with reg.span("parent"):
            for _ in range(3):
                with reg.span("leaf"):
                    pass
        for _ in range(3):  # standalone leaves: all self time
            with reg.span("leaf"):
                pass
        reg.disable()
        return reg, reporter

    @staticmethod
    def _table_order(text):
        rows = [line.split()[0] for line in text.splitlines()
                if line and not line.startswith(("=", "-", "(", "span"))
                and ":" not in line]
        return rows

    def test_self_time_subtracts_direct_children(self):
        reg, reporter = self._populated_reporter()
        text = reporter.render(reg)
        # the clock ticks once per enter/exit: each leaf lasts 1 tick,
        # parent lasts 7 with 3 ticks inside children -> self 4.0
        parent_row = next(l for l in text.splitlines()
                          if l.startswith("parent"))
        cols = parent_row.split()
        assert float(cols[2]) == 7.0   # total_s
        assert float(cols[3]) == 4.0   # self_s
        leaf_row = next(l for l in text.splitlines() if l.startswith("leaf"))
        assert float(leaf_row.split()[2]) == float(leaf_row.split()[3])

    def test_sort_total_puts_parent_first(self):
        reg, reporter = self._populated_reporter()
        assert self._table_order(reporter.render(reg, sort="total"))[0] \
            == "parent"

    def test_sort_self_puts_leaf_first(self):
        reg, reporter = self._populated_reporter()
        assert self._table_order(reporter.render(reg, sort="self"))[0] \
            == "leaf"

    def test_sort_count_puts_leaf_first(self):
        reg, reporter = self._populated_reporter()
        assert self._table_order(reporter.render(reg, sort="count"))[0] \
            == "leaf"

    def test_invalid_sort_rejected(self):
        reg, reporter = self._populated_reporter()
        with pytest.raises(ValueError):
            reporter.render(reg, sort="alphabetical")
