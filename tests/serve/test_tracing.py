"""End-to-end request tracing through the serving pipeline.

The acceptance scenario for the tracing layer: a traced request must
reassemble into ONE trace containing the admission, queue-wait, batch
(linked to every coalesced request), cache-write and request spans,
with the engine spans parented under the batch — including the
worker-side spans shipped back when a batch is computed on the
process backend's forked workers.  The suite also covers coalesced-link fan-in,
traceparent continuation, head-sampling drops with tail keeps, and the
cross-process span-inheritance contract at the dist layer directly.
"""

import os
import threading
import time

import pytest

from repro import obs
from repro.core import (
    Domain,
    Operation,
    PrimitiveFSM,
    VulnerabilityModel,
    in_range,
    less_equal,
    named_predicate,
)
from repro.core import dist
from repro.obs import MemorySink
from repro.obs.trace import TraceContext
from repro.serve import (
    AnalysisCorpus,
    ServeClient,
    ServeConfig,
    ServerThread,
)

TOY_NAME = "Toy Overflow"
SLOW_NAME = "Slow Check"
#: Distinct objects in the slow model's one domain.
SLOW_OBJECTS = 20


def _slow_small(value):
    time.sleep(0.001)
    return 0 <= value <= 5


slow_small = named_predicate(
    "serve_slow_small", _slow_small,
    "in [0, 5], at least 1 ms per verdict (scan span timing)")


@pytest.fixture(autouse=True)
def _fresh_scheduler():
    dist.clear_memo()
    yield
    dist.clear_memo()
    registry = obs.get_registry()
    registry.disable()
    registry.clear_sinks()
    registry.reset()


def toy_model(clean=False):
    impl1 = in_range(0, 5) if clean else less_equal(10)
    impl2 = in_range(0, 5) if clean else less_equal(50)
    pfsm1 = PrimitiveFSM("pFSM1", "accept input x", "x",
                         spec_accepts=in_range(0, 5), impl_accepts=impl1)
    pfsm2 = PrimitiveFSM("pFSM2", "store x", "x",
                         spec_accepts=in_range(0, 5), impl_accepts=impl2)
    op = Operation("write x", "the input integer", [pfsm1, pfsm2])
    return VulnerabilityModel(TOY_NAME, [op])


def toy_domains():
    return {TOY_NAME: {"pFSM1": Domain(range(-5, 20)),
                       "pFSM2": Domain(range(-5, 60))}}


def toy_corpus(clean=False):
    return AnalysisCorpus(models={TOY_NAME: toy_model(clean=clean)},
                          domains=toy_domains(),
                          keys={"toy": TOY_NAME})


def traced_server(**overrides):
    clean = overrides.pop("clean", False)
    config = dict(port=0, drain_grace=2.0, trace=True)
    config.update(overrides)
    return ServerThread(ServeConfig(**config),
                        corpus=toy_corpus(clean=clean))


def client_for(handle):
    return ServeClient(handle.host, handle.port, timeout=30.0)


def span_names(record):
    return [span["name"] for span in record["spans"]]


def record_for(handle, trace_id):
    for record in handle.server.tracer.traces():
        if record["trace_id"] == trace_id:
            return record
    return None


def process_pool_compute(tasks, keys):
    """A batch compute function that ships the batch to forked local
    workers, so the engine spans of one request cross a process
    boundary."""
    return dist.run_tasks(tasks, workers=2, backend="process", keys=keys)


class TestEndToEndProcessBackend:
    def test_one_request_reassembles_one_cross_process_trace(self):
        handle = traced_server().start()
        handle.server.batcher._compute_fn = process_pool_compute
        try:
            with client_for(handle) as client:
                response = client.query("toy", limit=8, trace=True)
            assert response["status"] == "ok"
            assert response["vulnerable"] is True
            trace_id = response["trace_id"]
            assert len(trace_id) == 32

            record = record_for(handle, trace_id)
            assert record is not None
            names = span_names(record)
            # every stage of the pipeline is present in ONE trace
            assert "serve.admission" in names
            assert "serve.queue_wait" in names
            assert "serve.batch" in names
            assert "serve.cache_write" in names
            assert "serve.request" in names
            assert "cluster.chunk" in names
            # all spans agree on the trace or link into it
            for span in record["spans"]:
                assert span["trace_id"] == trace_id or any(
                    link["trace_id"] == trace_id
                    for link in span.get("links", ()))

            # the batch span links back to this request's context
            batch = next(s for s in record["spans"]
                         if s["name"] == "serve.batch")
            assert any(link["trace_id"] == trace_id
                       for link in batch["links"])

            # worker-side engine spans were shipped back from a worker:
            # they carry a foreign pid and parent under a cluster.chunk
            # span's id (the context the chunk shipped with)
            remote = [s for s in record["spans"] if s.get("pid")]
            assert remote, "no worker-side spans were replayed"
            assert all(s["pid"] != os.getpid() for s in remote)
            chunk_hexes = {s["trace_span"] for s in record["spans"]
                           if s["name"] == "cluster.chunk"}
            remote_hexes = {s["trace_span"] for s in remote}
            for span in remote:
                assert span["trace_parent"] in chunk_hexes | remote_hexes

            # the client asked for the timeline and got it
            timeline = response["trace"]
            assert [row["name"] for row in timeline]
            assert any(row["remote"] for row in timeline)
            assert all(row["offset_ms"] >= 0.0 for row in timeline)
        finally:
            handle.shutdown()
        # the server owned the obs registry and restored it on drain
        assert not obs.get_registry().enabled

    def test_worker_spans_inherit_chunk_context_at_dist_layer(self):
        """Satellite contract: under the process backend, a local
        worker's root spans parent under the context its chunk shipped
        with — no orphan spans across the process boundary."""
        registry = obs.get_registry()
        sink = MemorySink()
        ctx = TraceContext.mint()
        registry.enable(sink)
        previous = registry.set_trace(ctx)
        try:
            model = toy_model()
            domains = toy_domains()[TOY_NAME]
            tasks = [(TOY_NAME, op.name, pfsm, domains[pfsm.name], 5)
                     for op, pfsm in model.all_pfsms()]
            findings = dist.run_tasks(tasks, workers=2, backend="process")
            assert len(findings) == len(tasks)
        finally:
            registry.set_trace(previous)
            registry.disable()
            registry.clear_sinks()
            registry.reset()
        spans = [e for e in sink.events if e.get("type") == "span"]
        assert all(s["trace_id"] == ctx.trace_id for s in spans)
        chunk_spans = [s for s in spans if s["name"] == "cluster.chunk"]
        assert chunk_spans
        remote = [s for s in spans if s.get("pid")]
        assert remote, "worker spans did not ship back"
        assert all(s["pid"] != os.getpid() for s in remote)
        chunk_hexes = {s["trace_span"] for s in chunk_spans}
        remote_hexes = {s["trace_span"] for s in remote}
        for span in remote:
            assert span["trace_parent"] in chunk_hexes | remote_hexes


class TestCoalescedLinks:
    def test_batch_span_links_every_coalesced_request(self):
        handle = traced_server().start()
        try:
            # slow the engine down so the second identical query lands
            # while the first is still in flight and coalesces onto it
            batcher = handle.server.batcher
            original = batcher._compute_fn
            release = threading.Event()

            def slow(tasks, keys):
                release.wait(5.0)
                return original(tasks, keys)

            batcher._compute_fn = slow
            responses = {}

            def fire(tag):
                with client_for(handle) as client:
                    responses[tag] = client.query("toy", limit=8,
                                                  trace=True)

            first = threading.Thread(target=fire, args=("a",))
            first.start()
            time.sleep(0.2)  # let "a" get admitted and batched
            second = threading.Thread(target=fire, args=("b",))
            second.start()
            time.sleep(0.2)
            release.set()
            first.join(10.0)
            second.join(10.0)
            batcher._compute_fn = original

            a, b = responses["a"], responses["b"]
            assert a["status"] == b["status"] == "ok"
            assert a["trace_id"] != b["trace_id"]
            coalesced_tag = "b" if b.get("coalesced") else "a"
            coalesced = responses[coalesced_tag]

            # both traces were kept, and both contain the ONE batch span
            for tag in ("a", "b"):
                record = record_for(handle, responses[tag]["trace_id"])
                assert record is not None, f"trace {tag} was not kept"
                assert "serve.batch" in span_names(record)

            record = record_for(handle, coalesced["trace_id"])
            batch = next(s for s in record["spans"]
                         if s["name"] == "serve.batch")
            linked = {link["trace_id"] for link in batch["links"]}
            assert a["trace_id"] in linked
            assert b["trace_id"] in linked
            # the coalesced request still has its own admission span
            assert "serve.admission" in span_names(record)
        finally:
            handle.shutdown()


class TestTraceContextHandling:
    def test_traceparent_continues_the_callers_trace(self):
        handle = traced_server().start()
        try:
            upstream = TraceContext.mint()
            with client_for(handle) as client:
                response = client.query(
                    "toy", limit=8, trace=True,
                    traceparent=upstream.to_traceparent())
            assert response["trace_id"] == upstream.trace_id
            record = record_for(handle, upstream.trace_id)
            assert record is not None
            request = next(s for s in record["spans"]
                           if s["name"] == "serve.request")
            # the request span parents under the caller's span
            assert request["trace_parent"] == upstream.span_id
        finally:
            handle.shutdown()

    def test_malformed_traceparent_mints_a_fresh_trace(self):
        handle = traced_server().start()
        try:
            with client_for(handle) as client:
                response = client.query("toy", limit=8,
                                        traceparent="garbage-header")
            assert response["status"] == "ok"
            assert len(response["trace_id"]) == 32
        finally:
            handle.shutdown()

    def test_oversized_traceparent_rejected_by_protocol(self):
        handle = traced_server().start()
        try:
            with client_for(handle) as client:
                response = client.query("toy", traceparent="x" * 200)
            assert response["status"] == "error"
            assert "traceparent" in response["error"]
        finally:
            handle.shutdown()

    def test_untraced_server_responses_carry_no_trace_fields(self):
        handle = ServerThread(ServeConfig(port=0),
                              corpus=toy_corpus()).start()
        try:
            with client_for(handle) as client:
                response = client.query("toy", limit=8, trace=True)
            assert response["status"] == "ok"
            assert "trace_id" not in response
            assert "trace" not in response
        finally:
            handle.shutdown()


class TestSamplingAndRetention:
    def test_head_sampling_zero_drops_clean_traces(self):
        handle = traced_server(trace_sample=0.0, clean=True).start()
        try:
            with client_for(handle) as client:
                response = client.query("toy", limit=8, trace=True)
            assert response["status"] == "ok"
            assert response["vulnerable"] is False
            # spans were emitted but the trace was not retained, so no
            # timeline comes back and the collector counts the drop
            assert "trace" not in response
            assert record_for(handle, response["trace_id"]) is None
            stats = handle.server.tracer.stats()
            assert stats["dropped"] == 1
            assert stats["kept"] == 0
            assert handle.server.stats.counter("trace.dropped") == 1
        finally:
            handle.shutdown()

    def test_tail_keep_retains_witness_bearing_trace(self):
        # same zero head-sampling, but the model IS vulnerable: the
        # witness-found tail rule must keep the trace anyway
        handle = traced_server(trace_sample=0.0).start()
        try:
            with client_for(handle) as client:
                response = client.query("toy", limit=8, trace=True)
            assert response["status"] == "ok"
            assert response["vulnerable"] is True
            record = record_for(handle, response["trace_id"])
            assert record is not None
            assert record["tail_kept"] is True
            assert response["trace"], "tail-kept trace returns a timeline"
        finally:
            handle.shutdown()

    def test_trace_stats_surface_in_metrics(self):
        handle = traced_server().start()
        try:
            with client_for(handle) as client:
                client.query("toy", limit=8)
                metrics = client.metrics()
            assert metrics["trace"]["begun"] >= 1
            assert metrics["trace"]["kept"] >= 1
            assert metrics["counters"]["trace.kept"] >= 1
        finally:
            handle.shutdown()


class TestThreadBackendTrace:
    def test_engine_spans_join_the_trace_without_processes(self):
        handle = traced_server().start()
        try:
            with client_for(handle) as client:
                response = client.query("toy", limit=8, trace=True)
            assert response["status"] == "ok"
            assert response["vulnerable"] is True
            trace_id = response["trace_id"]
            assert len(trace_id) == 32
            record = record_for(handle, trace_id)
            assert record is not None
            names = span_names(record)
            # every stage of the pipeline is present in ONE trace
            for stage in ("serve.admission", "serve.queue_wait",
                          "serve.batch", "serve.encode",
                          "serve.cache_write", "serve.request"):
                assert stage in names
            # all spans agree on the trace or link into it
            for span in record["spans"]:
                assert span["trace_id"] == trace_id or any(
                    link["trace_id"] == trace_id
                    for link in span.get("links", ()))
            # the batch span links back to this request's context
            batch = next(s for s in record["spans"]
                         if s["name"] == "serve.batch")
            assert any(link["trace_id"] == trace_id
                       for link in batch["links"])
            # executor-thread engine spans carry the trace too
            assert "sweep.task" in names
            task = next(s for s in record["spans"]
                        if s["name"] == "sweep.task")
            assert "pid" not in task  # same process: nothing replayed
            # the client asked for the timeline and got it
            timeline = response["trace"]
            assert [row["name"] for row in timeline]
            assert all(row["offset_ms"] >= 0.0 for row in timeline)
        finally:
            handle.shutdown()
        # the server owned the obs registry and restored it on drain
        assert not obs.get_registry().enabled


def slow_corpus():
    """Two pFSMs over one domain of distinct ints, each judging every
    object with a named predicate that takes at least 1 ms a verdict."""
    pfsms = [PrimitiveFSM(f"pFSM{i}", "check x", "x",
                          spec_accepts=slow_small,
                          impl_accepts=less_equal(bound))
             for i, bound in enumerate((100, 200), start=1)]
    model = VulnerabilityModel(SLOW_NAME,
                               [Operation("check x", "an integer", pfsms)])
    domain = Domain(list(range(SLOW_OBJECTS)))
    return AnalysisCorpus(models={SLOW_NAME: model},
                          domains={SLOW_NAME: {p.name: domain
                                               for p in pfsms}},
                          keys={"slow": SLOW_NAME})


class TestScanSpans:
    def test_each_sweep_task_span_times_its_own_scan(self):
        handle = ServerThread(ServeConfig(port=0, drain_grace=2.0,
                                          trace=True),
                              corpus=slow_corpus()).start()
        try:
            with client_for(handle) as client:
                response = client.query("slow", limit=SLOW_OBJECTS,
                                        trace=True)
            assert response["status"] == "ok"
            record = record_for(handle, response["trace_id"])
            assert record is not None
            tasks = [span for span in record["spans"]
                     if span["name"] == "sweep.task"]
            assert sorted(span["attrs"]["pfsm"] for span in tasks) == \
                ["pFSM1", "pFSM2"]
            # Each task judges every object once, at >= 1 ms a verdict.
            for span in tasks:
                assert span["duration"] >= SLOW_OBJECTS / 1000.0
        finally:
            handle.shutdown()
