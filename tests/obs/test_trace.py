"""Tests for the distributed tracing layer (repro.obs.trace)."""

import json
import os
import threading

import pytest

from repro.obs import MemorySink, Registry
from repro.obs import trace as trace_module
from repro.obs.trace import (
    TailRules,
    TraceCollector,
    TraceContext,
    chrome_payload,
    chrome_trace_events,
    emit_span,
    load_trace_events,
    mint_span_id,
    trace_timeline,
)


class FakeClock:
    def __init__(self, start=0.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestTraceContext:
    def test_mint_is_well_formed(self):
        ctx = TraceContext.mint()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        int(ctx.trace_id, 16)
        int(ctx.span_id, 16)
        assert ctx.sampled is True

    def test_mint_is_unique(self):
        ids = {TraceContext.mint().trace_id for _ in range(64)}
        assert len(ids) == 64

    def test_traceparent_round_trip(self):
        ctx = TraceContext.mint(sampled=True)
        parsed = TraceContext.from_traceparent(ctx.to_traceparent())
        assert parsed == ctx

    def test_traceparent_unsampled_round_trip(self):
        ctx = TraceContext.mint(sampled=False)
        header = ctx.to_traceparent()
        assert header.endswith("-00")
        assert TraceContext.from_traceparent(header) == ctx

    @pytest.mark.parametrize("header", [
        None,
        42,
        "",
        "not-a-traceparent",
        "00-short-short-01",
        # bad version
        "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
        # all-zero trace id / span id are forbidden by the W3C spec
        "00-00000000000000000000000000000000-b7ad6b7169203331-01",
        "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
        # uppercase hex beyond the lowercasing (non-hex chars)
        "00-0af7651916cd43dd8448eb211c8031zz-b7ad6b7169203331-01",
    ])
    def test_malformed_traceparent_rejected(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_from_traceparent_normalizes_case_and_whitespace(self):
        ctx = TraceContext.mint()
        header = "  " + ctx.to_traceparent().upper() + " "
        assert TraceContext.from_traceparent(header) == ctx

    def test_child_keeps_trace_and_sampling(self):
        ctx = TraceContext.mint(sampled=False)
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id
        assert child.sampled is False
        pinned = ctx.child("feedfacefeedface")
        assert pinned.span_id == "feedfacefeedface"

    def test_mint_span_id_shape(self):
        span = mint_span_id()
        assert len(span) == 16
        int(span, 16)

    def test_ids_are_fixed_width_lowercase_hex(self, monkeypatch):
        for _ in range(1000):
            span, trace = mint_span_id(), TraceContext.mint().trace_id
            assert len(span) == 16 and len(trace) == 32
            assert set(span + trace) <= set("0123456789abcdef")

        class Small:
            def getrandbits(self, bits):
                return 1

        monkeypatch.setattr(trace_module, "_IDS", Small())
        assert mint_span_id() == "0" * 15 + "1"
        assert TraceContext.mint().trace_id == "0" * 31 + "1"

    def test_no_collision_over_100k_mints(self):
        n = 100_000
        assert len({mint_span_id() for _ in range(n)}) == n
        assert len({TraceContext.mint().trace_id for _ in range(n)}) == n

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_mints_other_ids_than_its_parent(self):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report its next ids, then leave at once
            try:
                os.close(read_end)
                ids = [mint_span_id() for _ in range(64)]
                ids.append(TraceContext.mint().trace_id)
                os.write(write_end, " ".join(ids).encode("ascii"))
            finally:
                os._exit(0)
        os.close(write_end)
        parent = [mint_span_id() for _ in range(64)]
        parent.append(TraceContext.mint().trace_id)
        with os.fdopen(read_end, "rb") as handle:
            child = handle.read().decode("ascii").split()
        os.waitpid(pid, 0)
        assert len(child) == 65
        assert not set(child) & set(parent)


class TestAmbientPropagation:
    def test_spans_stamped_under_ambient_context(self):
        reg = Registry(clock=FakeClock(), wall=lambda: 1.0)
        sink = MemorySink()
        reg.enable(sink)
        ctx = TraceContext.mint()
        reg.set_trace(ctx)
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        reg.set_trace(None)
        outer = next(e for e in sink.events if e["name"] == "outer")
        inner = next(e for e in sink.events if e["name"] == "inner")
        assert outer["trace_id"] == ctx.trace_id
        assert outer["trace_parent"] == ctx.span_id
        assert inner["trace_id"] == ctx.trace_id
        # nesting: the inner span parents under the outer span's hex id
        assert inner["trace_parent"] == outer["trace_span"]
        assert outer["trace_span"] != inner["trace_span"]

    def test_ambient_context_restored_after_span(self):
        reg = Registry(clock=FakeClock())
        reg.enable(MemorySink())
        ctx = TraceContext.mint()
        reg.set_trace(ctx)
        with reg.span("a"):
            assert reg.current_trace().trace_id == ctx.trace_id
            assert reg.current_trace().span_id != ctx.span_id
        assert reg.current_trace() is ctx

    def test_ambient_context_restored_on_exception(self):
        reg = Registry(clock=FakeClock())
        reg.enable(MemorySink())
        ctx = TraceContext.mint()
        reg.set_trace(ctx)
        with pytest.raises(ValueError):
            with reg.span("boom"):
                raise ValueError("x")
        assert reg.current_trace() is ctx

    def test_spans_without_ambient_context_carry_no_trace_keys(self):
        reg = Registry(clock=FakeClock())
        sink = MemorySink()
        reg.enable(sink)
        with reg.span("plain"):
            pass
        event = sink.events[-1]
        assert "trace_id" not in event
        assert "trace_span" not in event

    def test_set_trace_returns_previous(self):
        reg = Registry()
        a, b = TraceContext.mint(), TraceContext.mint()
        assert reg.set_trace(a) is None
        assert reg.set_trace(b) is a
        assert reg.set_trace(None) is b

    def test_ambient_context_is_per_thread(self):
        reg = Registry(clock=FakeClock())
        reg.enable(MemorySink())
        ctx = TraceContext.mint()
        reg.set_trace(ctx)
        seen = []

        def worker():
            seen.append(reg.current_trace())

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen == [None]

    def test_span_link_records_contexts(self):
        reg = Registry(clock=FakeClock())
        sink = MemorySink()
        reg.enable(sink)
        other = TraceContext.mint()
        with reg.span("batch") as span:
            span.link(other)
        event = sink.events[-1]
        assert event["links"] == [
            {"trace_id": other.trace_id, "span_id": other.span_id}]

    def test_noop_span_accepts_link(self):
        reg = Registry()
        with reg.span("off") as span:
            span.link(TraceContext.mint())  # must not raise


class TestEmitSpan:
    def test_emit_span_event_shape(self):
        reg = Registry(clock=FakeClock(), wall=lambda: 5.0)
        sink = MemorySink()
        reg.enable(sink)
        ctx = TraceContext.mint()
        linked = TraceContext.mint()
        span_hex = emit_span(reg, "serve.request", ctx, 10.0, 0.25,
                             links=[linked], model="ghttpd")
        event = sink.events[-1]
        assert event["type"] == "span"
        assert event["name"] == "serve.request"
        assert event["trace_id"] == ctx.trace_id
        assert event["trace_span"] == span_hex
        assert event["trace_parent"] == ctx.span_id
        assert event["start"] == 10.0
        assert event["duration"] == 0.25
        assert event["attrs"] == {"model": "ghttpd"}
        assert event["links"] == [
            {"trace_id": linked.trace_id, "span_id": linked.span_id}]

    def test_emit_span_honours_pinned_ids(self):
        reg = Registry()
        sink = MemorySink()
        reg.enable(sink)
        ctx = TraceContext.mint()
        out = emit_span(reg, "x", ctx, 0.0, 0.0,
                        span_hex="aaaaaaaaaaaaaaaa",
                        parent_hex="bbbbbbbbbbbbbbbb")
        assert out == "aaaaaaaaaaaaaaaa"
        assert sink.events[-1]["trace_parent"] == "bbbbbbbbbbbbbbbb"

    def test_emit_span_disabled_registry_is_noop(self):
        reg = Registry()
        assert emit_span(reg, "x", TraceContext.mint(), 0.0, 0.0) is None


def _span(trace_id, name="s", start=0.0, duration=0.1, links=None, **extra):
    event = {"type": "span", "name": name, "span_id": 1, "parent_id": None,
             "start": start, "duration": duration, "error": None,
             "attrs": {}, "trace_id": trace_id,
             "trace_span": mint_span_id(), "trace_parent": None}
    if links:
        event["links"] = links
    event.update(extra)
    return event


class TestTraceCollector:
    def test_sampled_trace_is_kept_with_sorted_spans(self):
        collector = TraceCollector()
        ctx = TraceContext.mint()
        collector.begin(ctx, model="m")
        collector.emit(_span(ctx.trace_id, "late", start=2.0))
        collector.emit(_span(ctx.trace_id, "early", start=1.0))
        record = collector.finish(ctx.trace_id, status="ok", elapsed_ms=3.0)
        assert record is not None
        assert [s["name"] for s in record["spans"]] == ["early", "late"]
        assert record["meta"] == {"model": "m"}
        assert record["outcome"]["status"] == "ok"
        assert collector.traces() == [record]
        assert collector.stats()["kept"] == 1

    def test_unsampled_trace_is_dropped(self):
        collector = TraceCollector()
        ctx = TraceContext.mint(sampled=False)
        collector.begin(ctx)
        collector.emit(_span(ctx.trace_id))
        assert collector.finish(ctx.trace_id, status="ok") is None
        assert collector.stats()["dropped"] == 1
        assert collector.traces() == []

    @pytest.mark.parametrize("outcome,expect", [
        ({"status": "error"}, True),
        ({"status": "ok", "shed": True}, True),
        ({"status": "ok", "witness": True}, True),
        ({"status": "ok", "elapsed_ms": 500.0}, True),
        ({"status": "ok", "elapsed_ms": 5.0}, False),
    ])
    def test_tail_rules_keep_interesting_unsampled_traces(self, outcome,
                                                          expect):
        collector = TraceCollector(tail=TailRules(slow_ms=100.0))
        ctx = TraceContext.mint(sampled=False)
        collector.begin(ctx)
        record = collector.finish(ctx.trace_id, **outcome)
        assert (record is not None) is expect
        if expect:
            assert record["tail_kept"] is True

    def test_linked_spans_are_indexed_under_linked_traces(self):
        collector = TraceCollector()
        a, b = TraceContext.mint(), TraceContext.mint()
        collector.begin(a)
        collector.begin(b)
        batch = _span(a.trace_id, "serve.batch",
                      links=[{"trace_id": a.trace_id, "span_id": a.span_id},
                             {"trace_id": b.trace_id, "span_id": b.span_id}])
        collector.emit(batch)
        rec_a = collector.finish(a.trace_id, status="ok")
        rec_b = collector.finish(b.trace_id, status="ok")
        assert any(s["name"] == "serve.batch" for s in rec_a["spans"])
        assert any(s["name"] == "serve.batch" for s in rec_b["spans"])

    def test_span_buffer_is_bounded(self):
        collector = TraceCollector(max_spans=3)
        ctx = TraceContext.mint()
        collector.begin(ctx)
        for i in range(10):
            collector.emit(_span(ctx.trace_id, f"s{i}", start=float(i)))
        record = collector.finish(ctx.trace_id, status="ok")
        assert len(record["spans"]) == 3
        assert record["truncated_spans"] == 7

    def test_open_traces_are_bounded(self):
        collector = TraceCollector(max_open=4)
        contexts = [TraceContext.mint() for _ in range(8)]
        for ctx in contexts:
            collector.begin(ctx)
        assert collector.stats()["open"] == 4
        # the oldest were evicted; finishing them is a no-op
        assert collector.finish(contexts[0].trace_id, status="ok") is None

    def test_kept_deque_is_bounded(self):
        collector = TraceCollector(max_traces=2)
        for _ in range(5):
            ctx = TraceContext.mint()
            collector.begin(ctx)
            collector.finish(ctx.trace_id, status="ok")
        assert len(collector.traces()) == 2
        assert collector.stats()["kept"] == 5

    def test_head_sampling_rate(self):
        values = iter([0.1, 0.9, 0.2, 0.8])
        collector = TraceCollector(head_sample=0.5,
                                   rng=lambda: next(values))
        decisions = [collector.sample() for _ in range(4)]
        assert decisions == [True, False, True, False]
        assert TraceCollector(head_sample=1.0).sample() is True
        assert TraceCollector(head_sample=0.0).sample() is False

    def test_non_span_events_ignored(self):
        collector = TraceCollector()
        ctx = TraceContext.mint()
        collector.begin(ctx)
        collector.emit({"type": "event", "name": "mark",
                        "trace_id": ctx.trace_id})
        record = collector.finish(ctx.trace_id, status="ok")
        assert record["spans"] == []

    def test_finish_unknown_trace_returns_none(self):
        assert TraceCollector().finish("deadbeef", status="ok") is None


class TestTimelineAndExport:
    def test_timeline_offsets_relative_to_first_span(self):
        ctx = TraceContext.mint()
        record = {
            "spans": [
                _span(ctx.trace_id, "serve.request", start=10.0,
                      duration=0.5),
                _span(ctx.trace_id, "engine", start=10.2, duration=0.25,
                      pid=4242),
            ],
        }
        rows = trace_timeline(record)
        assert rows[0]["name"] == "serve.request"
        assert rows[0]["offset_ms"] == 0.0
        assert rows[0]["duration_ms"] == 500.0
        assert rows[0]["remote"] is False
        assert rows[1]["offset_ms"] == pytest.approx(200.0, abs=0.01)
        assert rows[1]["remote"] is True

    def test_timeline_empty_record(self):
        assert trace_timeline({"spans": []}) == []
        assert trace_timeline({}) == []

    def test_chrome_events_shape(self):
        ctx = TraceContext.mint()
        span = _span(ctx.trace_id, "serve.batch", start=1.5, duration=0.25,
                     pid=777,
                     links=[{"trace_id": ctx.trace_id,
                             "span_id": ctx.span_id}])
        events = chrome_trace_events([span, {"type": "event"}])
        assert len(events) == 1
        event = events[0]
        assert event["ph"] == "X"
        assert event["ts"] == 1.5e6
        assert event["dur"] == 0.25e6
        assert event["pid"] == 777
        assert event["cat"] == "repro"
        assert event["args"]["trace_id"] == ctx.trace_id
        assert event["args"]["links"] == span["links"]

    def test_chrome_payload_round_trips_json(self, tmp_path):
        ctx = TraceContext.mint()
        payload = chrome_payload([_span(ctx.trace_id)])
        path = tmp_path / "chrome.json"
        path.write_text(json.dumps(payload))
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == 1

    def test_load_trace_events_filters_and_unpacks(self, tmp_path):
        ctx = TraceContext.mint()
        path = tmp_path / "events.jsonl"
        lines = [
            json.dumps(_span(ctx.trace_id, "a")),
            json.dumps({"type": "event", "name": "mark"}),
            "not json at all",
            json.dumps({"type": "trace", "trace_id": ctx.trace_id,
                        "spans": [_span(ctx.trace_id, "b"),
                                  _span(ctx.trace_id, "c")]}),
            json.dumps({"type": "summary", "counters": {}}),
        ]
        path.write_text("\n".join(lines) + "\n")
        spans, skipped = load_trace_events(str(path))
        assert [s["name"] for s in spans] == ["a", "b", "c"]
        assert skipped == 3
