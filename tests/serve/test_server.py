"""The analysis server end to end: correctness, coalescing, admission
control, deadlines, graceful drain, the HTTP façade, and the threads it
serves on.

Every test runs against a tiny toy corpus (one model, two pFSMs, small
integer domains) so the serving machinery — not the engine — dominates
the runtime.  The server runs on its own threads (:class:`ServerThread`)
and tests drive it with the blocking client, exactly as the CLI and
benchmark do.
"""

import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.core import (
    Domain,
    Operation,
    PrimitiveFSM,
    VulnerabilityModel,
    in_range,
    less_equal,
)
from repro.core import dist
from repro.core.sweep import sweep_model
from repro.serve import (
    AnalysisCorpus,
    AnalysisServer,
    DRAINING,
    STOPPED,
    ServeClient,
    ServeConfig,
    ServerThread,
)

TOY_NAME = "Toy Overflow"


@pytest.fixture(autouse=True)
def _fresh_scheduler():
    dist.clear_memo()
    yield
    dist.clear_memo()


def toy_model():
    pfsm1 = PrimitiveFSM("pFSM1", "accept input x", "x",
                         spec_accepts=in_range(0, 5),
                         impl_accepts=less_equal(10))
    pfsm2 = PrimitiveFSM("pFSM2", "store x", "x",
                         spec_accepts=in_range(0, 5),
                         impl_accepts=less_equal(50))
    op = Operation("write x", "the input integer", [pfsm1, pfsm2])
    return VulnerabilityModel(TOY_NAME, [op])


def toy_domains():
    return {TOY_NAME: {"pFSM1": Domain(range(-5, 20)),
                       "pFSM2": Domain(range(-5, 60))}}


def toy_corpus():
    model = toy_model()
    return AnalysisCorpus(models={TOY_NAME: model},
                          domains=toy_domains(),
                          keys={"toy": TOY_NAME})


@pytest.fixture
def server():
    handle = ServerThread(
        ServeConfig(port=0, drain_grace=2.0),
        corpus=toy_corpus(),
    ).start()
    yield handle
    handle.shutdown()


def client_for(handle):
    return ServeClient(handle.host, handle.port, timeout=30.0)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_depth", 0), ("max_depth", -1), ("max_batch", 0),
        ("max_limit", 0), ("trace_sample", -0.1), ("trace_sample", 2.0),
    ])
    def test_out_of_range_values_are_rejected(self, field, value):
        # max_depth=0 used to fail only inside server.start(); the
        # others were silently clamped.
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        ServeConfig(max_depth=1, max_batch=1, max_limit=1, trace_sample=0.0)
        ServeConfig(trace_sample=1.0)


class TestQuery:
    def test_matches_direct_sweep(self, server):
        with client_for(server) as client:
            response = client.query("toy", limit=5)
        assert response["status"] == "ok"
        assert response["vulnerable"] is True
        assert response["model_name"] == TOY_NAME
        reference = sweep_model(toy_model(), toy_domains()[TOY_NAME],
                                limit=5)
        assert len(response["findings"]) == len(reference.findings)
        for got, want in zip(response["findings"], reference.findings):
            assert got["pfsm"] == want.pfsm_name
            assert got["witnesses"] == list(want.witnesses)

    def test_repeat_query_is_cached(self, server):
        with client_for(server) as client:
            first = client.query("toy", limit=3)
            second = client.query("toy", limit=3)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["findings"] == first["findings"]

    def test_repeat_query_encodes_nothing(self, server, encode_calls):
        with client_for(server) as client:
            first = client.query("toy", limit=4)
            encode_calls[0] = 0
            second = client.query("toy", limit=4)
        assert second["cached"] is True
        assert second["findings"] == first["findings"]
        assert encode_calls[0] == 0

    def test_id_echo_and_latency(self, server):
        with client_for(server) as client:
            response = client.query("toy", limit=2, request_id="req-9")
        assert response["id"] == "req-9"
        assert response["elapsed_ms"] >= 0

    def test_unknown_model(self, server):
        with client_for(server) as client:
            response = client.query("nosuch")
        assert response["status"] == "error"
        assert "unknown model" in response["error"]
        assert response["models"] == ["toy"]

    def test_malformed_line(self, server):
        with client_for(server) as client:
            response = client.request({"op": "query", "limit": 5})
        assert response["status"] == "error"
        assert "model" in response["error"]

    def test_limit_clamped_to_max(self):
        handle = ServerThread(
            ServeConfig(port=0, max_limit=2), corpus=toy_corpus(),
        ).start()
        try:
            with client_for(handle) as client:
                response = client.query("toy", limit=999)
            assert response["limit"] == 2
            assert all(len(f["witnesses"]) <= 2
                       for f in response["findings"])
        finally:
            handle.shutdown()

    def test_ping_and_metrics_ops(self, server):
        with client_for(server) as client:
            assert client.ping()["state"] == "ready"
            client.query("toy", limit=4)
            metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["requests.query"] >= 1
        assert counters["batches"] >= 1
        assert metrics["state"] == "ready"
        assert metrics["config"] == {"max_depth": 64, "max_batch": 16,
                                     "trace": False}
        assert set(metrics["derived"]) >= {"coalesce_rate",
                                           "request_cache_hit_rate"}


def _slow_compute(handle, delay, calls):
    """Wrap the server's compute so dispatches are observable and slow
    enough to hold requests in flight."""
    original = handle.server.batcher._compute_fn

    def wrapped(tasks, keys):
        calls.append(len(tasks))
        time.sleep(delay)
        return original(tasks, keys)

    handle.server.batcher._compute_fn = wrapped


class TestCoalescing:
    def test_identical_concurrent_queries_coalesce(self, server):
        calls = []
        _slow_compute(server, 0.2, calls)
        barrier = threading.Barrier(6)
        responses = []

        def fire():
            with client_for(server) as client:
                barrier.wait()
                responses.append(client.query("toy", limit=7))

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert all(r["status"] == "ok" for r in responses)
        assert len(calls) == 1  # one engine dispatch for six clients
        coalesced = [r for r in responses if r["coalesced"]]
        leaders = [r for r in responses if not r["coalesced"]]
        assert len(leaders) == 1
        assert len(coalesced) == 5
        assert all(r["findings"] == leaders[0]["findings"]
                   for r in coalesced)
        with client_for(server) as client:
            assert client.metrics()["counters"]["coalesced"] == 5

    def test_distinct_queries_share_common_tasks(self, server):
        # limit is part of the task, so distinct limits never share
        # compute — but identical (pfsm, domain, limit) tasks reached
        # through two requests in one batch are computed once.
        calls = []
        _slow_compute(server, 0.0, calls)
        with client_for(server) as client:
            client.query("toy", limit=9)
            client.query("toy", limit=9)
        # second request was answered by cache, not recomputed
        assert sum(calls) == 2  # two pFSM tasks, once


class _GatedCompute:
    """Wraps the server's compute so a dispatch blocks until the test
    releases it — batch formation is then driven by what is queued,
    never by how long anything takes."""

    def __init__(self, handle):
        self.batcher = handle.server.batcher
        self.original = self.batcher._compute_fn
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = []  # (tasks, queue depth at dispatch)
        self.batcher._compute_fn = self

    def __call__(self, tasks, keys):
        self.calls.append((len(tasks), self.batcher.queue_depth()))
        self.entered.set()
        assert self.release.wait(10.0), "dispatch never released"
        return self.original(tasks, keys)


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def _query_async(handle, limit, responses):
    def fire():
        with client_for(handle) as client:
            responses.append(client.query("toy", limit=limit))

    thread = threading.Thread(target=fire)
    thread.start()
    return thread


class TestBatchFormation:
    """The work-conserving rule: an idle engine dispatches the queue
    head at once; requests arriving during a dispatch form the next
    batch."""

    def test_lone_request_dispatches_alone(self, server):
        gate = _GatedCompute(server)
        responses = []
        thread = _query_async(server, 3, responses)
        assert gate.entered.wait(10.0)
        assert gate.calls == [(2, 0)]  # two pFSM tasks, nothing queued
        gate.release.set()
        thread.join(10.0)
        assert [r["status"] for r in responses] == ["ok"]
        counters = server.server.stats.snapshot()["counters"]
        assert counters["batches"] == 1
        assert counters["batch.requests"] == 1

    def test_requests_queued_during_a_dispatch_form_the_next_batch(
            self, server):
        gate = _GatedCompute(server)
        responses = []
        threads = [_query_async(server, 3, responses)]
        assert gate.entered.wait(10.0)
        threads += [_query_async(server, limit, responses)
                    for limit in (4, 5)]
        _until(lambda: server.server.batcher.queue_depth() == 2)
        gate.release.set()
        for thread in threads:
            thread.join(10.0)
        assert sorted(r["limit"] for r in responses) == [3, 4, 5]
        assert all(r["status"] == "ok" for r in responses)
        # Second dispatch: both queued requests, 2 pFSM tasks each.
        assert [tasks for tasks, _depth in gate.calls] == [2, 4]
        counters = server.server.stats.snapshot()["counters"]
        assert counters["batches"] == 2
        assert counters["batch.requests"] == 3

    def test_identical_request_during_a_dispatch_coalesces(self, server):
        gate = _GatedCompute(server)
        responses = []
        threads = [_query_async(server, 3, responses)]
        assert gate.entered.wait(10.0)
        threads.append(_query_async(server, 3, responses))
        _until(lambda: server.server.stats.counter("coalesced") == 1)
        gate.release.set()
        for thread in threads:
            thread.join(10.0)
        first, second = responses
        assert {first["coalesced"], second["coalesced"]} == {False, True}
        assert first["findings"] == second["findings"]
        assert len(gate.calls) == 1
        counters = server.server.stats.snapshot()["counters"]
        assert counters["batches"] == 1
        assert counters["batch.requests"] == 1


class TestAdmissionControl:
    def test_overload_sheds_with_explicit_status(self):
        handle = ServerThread(
            ServeConfig(port=0, max_depth=1, max_batch=1),
            corpus=toy_corpus(),
        ).start()
        calls = []
        _slow_compute(handle, 0.3, calls)
        try:
            responses = []
            lock = threading.Lock()

            def fire(limit):
                with client_for(handle) as client:
                    response = client.query("toy", limit=limit)
                with lock:
                    responses.append(response)

            threads = [threading.Thread(target=fire, args=(limit,))
                       for limit in range(1, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            statuses = sorted(r["status"] for r in responses)
            assert len(statuses) == 6  # every request got a response
            assert set(statuses) <= {"ok", "overloaded"}
            shed = [r for r in responses if r["status"] == "overloaded"]
            assert shed, f"expected sheds, got {statuses}"
            assert all("queue full" in r["error"] for r in shed)
            with client_for(handle) as client:
                counters = client.metrics()["counters"]
            assert counters["shed.overload"] == len(shed)
        finally:
            handle.shutdown()

    def test_expired_deadline_sheds_as_timeout(self, server):
        calls = []
        _slow_compute(server, 0.4, calls)
        responses = {}

        def fire(name, limit, deadline_ms=None, delay=0.0):
            time.sleep(delay)
            with client_for(server) as client:
                responses[name] = client.query("toy", limit=limit,
                                               deadline_ms=deadline_ms)

        blocker = threading.Thread(target=fire, args=("blocker", 11))
        doomed = threading.Thread(
            target=fire, args=("doomed", 12), kwargs={
                "deadline_ms": 50, "delay": 0.1})
        blocker.start()
        doomed.start()
        blocker.join()
        doomed.join()

        assert responses["blocker"]["status"] == "ok"
        assert responses["doomed"]["status"] == "timeout"
        assert "deadline" in responses["doomed"]["error"]
        with client_for(server) as client:
            assert client.metrics()["counters"]["shed.deadline"] == 1


class TestDrain:
    def test_draining_requests_get_explicit_refusal(self):
        # Unit-level: a query dispatched while not READY is answered
        # with status "draining", never dropped.
        analysis = AnalysisServer(corpus=toy_corpus())
        analysis.state = DRAINING
        response = analysis._dispatch(
            '{"op": "query", "model": "toy", "id": 4}')
        assert response["status"] == "draining"
        assert response["id"] == 4

    def test_shutdown_reaches_stopped(self, server):
        with client_for(server) as client:
            client.query("toy", limit=6)
        server.shutdown()
        assert server.server.state == STOPPED
        assert server.server._pending_responses == 0

    def test_inflight_request_survives_drain(self, server):
        # The invariant the bench measures: SIGTERM with work in
        # flight drops zero responses.
        calls = []
        _slow_compute(server, 0.3, calls)
        result = {}

        def fire():
            with client_for(server) as client:
                result["response"] = client.query("toy", limit=13)

        worker = threading.Thread(target=fire)
        worker.start()
        time.sleep(0.1)  # request admitted, compute in progress
        server.shutdown()
        worker.join(10.0)

        assert result["response"]["status"] == "ok"
        assert result["response"]["vulnerable"] is True
        assert server.server.state == STOPPED

    def test_new_connections_refused_after_drain(self, server):
        server.shutdown()
        with pytest.raises(OSError):
            client_for(server).ping()


class TestHttpFacade:
    def _get(self, server, path):
        url = f"http://{server.host}:{server.port}{path}"
        try:
            with urllib.request.urlopen(url) as response:
                return (response.status,
                        response.read().decode("utf-8"),
                        response.headers.get("Content-Type", ""))
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8"), \
                exc.headers.get("Content-Type", "")

    def test_healthz_ready(self, server):
        code, body, ctype = self._get(server, "/healthz")
        assert code == 200
        assert ctype == "application/json"
        assert json.loads(body) == {"state": "ready", "ready": True,
                                    "live": True}

    def test_metrics_json_endpoint(self, server):
        with client_for(server) as client:
            client.query("toy", limit=8)
        code, body, ctype = self._get(server, "/metrics.json")
        assert code == 200
        assert ctype == "application/json"
        snapshot = json.loads(body)
        assert snapshot["counters"]["requests.query"] >= 1
        assert "latency" in snapshot
        assert "histograms" in snapshot

    def test_metrics_endpoint_speaks_prometheus(self, server):
        from repro.obs.prometheus import parse_exposition

        with client_for(server) as client:
            client.query("toy", limit=8)
        code, body, ctype = self._get(server, "/metrics")
        assert code == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        families = parse_exposition(body)  # raises on malformed output
        counter = families["repro_serve_requests_query_total"]
        assert counter["type"] == "counter"
        assert counter["samples"][0][2] >= 1.0
        assert families["repro_serve_up"]["samples"][0][2] == 1.0
        request_hist = families["repro_serve_stage_request_seconds"]
        assert request_hist["type"] == "histogram"
        window = families["repro_serve_stage_batch_window_seconds"]
        assert "oldest" in window["help"]
        state_samples = {s[1]["state"]: s[2]
                         for s in families["repro_serve_state"]["samples"]}
        assert state_samples["ready"] == 1.0
        assert state_samples["draining"] == 0.0

    def test_unknown_path_404(self, server):
        code, body, ctype = self._get(server, "/nope")
        assert code == 404
        assert json.loads(body) == {"error": "not found"}


def _refused(handle):
    try:
        socket.create_connection((handle.host, handle.port), 1.0).close()
    except OSError:
        return True
    return False


def server_threads(before=()):
    """Server threads alive now that were not in ``before``."""
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-serve") and t not in before]


class TestThreads:
    """One blocking thread per connection: a request that finds the
    engine idle is scanned on its own connection's thread, and drain
    leaves no server thread behind."""

    def test_concurrent_clients_each_get_a_correct_answer(self):
        before = set(threading.enumerate())
        handle = ServerThread(ServeConfig(port=0, drain_grace=2.0),
                              corpus=toy_corpus()).start()
        barrier = threading.Barrier(32)
        responses = {}

        def fire(limit):
            with client_for(handle) as client:
                barrier.wait()
                responses[limit] = client.query("toy", limit=limit)

        threads = [threading.Thread(target=fire, args=(limit,))
                   for limit in range(1, 33)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        handle.shutdown()
        assert sorted(responses) == list(range(1, 33))
        for limit, response in responses.items():
            reference = sweep_model(toy_model(), toy_domains()[TOY_NAME],
                                    limit=limit)
            assert response["status"] == "ok", response
            assert [(f["pfsm"], f["witnesses"])
                    for f in response["findings"]] == \
                [(f.pfsm_name, list(f.witnesses))
                 for f in reference.findings]
        assert server_threads(before) == []

    def test_idle_client_is_closed_by_drain(self):
        before = set(threading.enumerate())
        handle = ServerThread(ServeConfig(port=0, drain_grace=0.2),
                              corpus=toy_corpus()).start()
        client = client_for(handle)
        assert client.query("toy", limit=3)["status"] == "ok"
        try:
            started = time.monotonic()
            handle.shutdown()  # the client never hangs up
            assert time.monotonic() - started < 5.0
            assert handle.server.state == STOPPED
            assert server_threads(before) == []
        finally:
            client.close()

    def test_drain_during_a_gated_compute_leaves_no_thread(self):
        before = set(threading.enumerate())
        handle = ServerThread(ServeConfig(port=0, drain_grace=2.0),
                              corpus=toy_corpus()).start()
        gate = _GatedCompute(handle)
        responses = []
        thread = _query_async(handle, 3, responses)
        assert gate.entered.wait(10.0)
        with client_for(handle) as open_client:
            assert open_client.ping()["state"] == "ready"
            stopper = threading.Thread(target=handle.shutdown)
            stopper.start()
            _until(lambda: _refused(handle))
            assert open_client.query("toy", limit=4)["status"] == \
                "draining"
        gate.release.set()
        stopper.join(10.0)
        thread.join(10.0)
        assert [r["status"] for r in responses] == ["ok"]
        assert handle.server.state == STOPPED
        assert server_threads(before) == []

    def test_dispatcher_hands_the_queue_to_another_thread(self, server):
        # The first request's thread runs its own batch, answers, and
        # returns; the two requests queued behind it are dispatched by
        # the oldest one's thread while the first is already answered.
        batcher = server.server.batcher
        original = batcher._compute_fn
        entered = threading.Semaphore(0)
        release = threading.Semaphore(0)
        calls, threads_seen = [], []

        def gate(tasks, keys):
            calls.append(len(tasks))
            threads_seen.append(threading.current_thread().name)
            entered.release()
            assert release.acquire(timeout=10.0), "never released"
            return original(tasks, keys)

        batcher._compute_fn = gate
        responses = []
        first = _query_async(server, 3, responses)
        assert entered.acquire(timeout=10.0)
        queued = [_query_async(server, limit, responses)
                  for limit in (4, 5)]
        _until(lambda: batcher.queue_depth() == 2)
        release.release()  # the first batch finishes
        assert entered.acquire(timeout=10.0)  # the second one started
        first.join(10.0)
        assert not first.is_alive()
        assert [r["limit"] for r in responses] == [3]
        release.release()
        for thread in queued:
            thread.join(10.0)
        assert sorted(r["limit"] for r in responses) == [3, 4, 5]
        assert all(r["status"] == "ok" for r in responses)
        assert calls == [2, 4]
        assert threads_seen == ["repro-serve-conn"] * 2
        counters = server.server.stats.snapshot()["counters"]
        assert counters["batches"] == 2
        assert counters["batch.requests"] == 3


class TestDistinctRowIndex:
    """The scans of a long-running server read one distinct-row index
    per domain, built at its first digest or scan."""

    def test_each_scanned_domain_builds_its_index_once(self):
        from repro import obs
        from repro.models import (all_extended_models,
                                  all_extended_pfsm_domains)
        from repro.serve import MODEL_KEYS

        # The probe domains tiled by reference, as a corpus re-probes
        # the same objects: every one of them list-backed.
        domains = {label: {name: Domain(list(domain) * 4)
                           for name, domain in per_model.items()}
                   for label, per_model in
                   all_extended_pfsm_domains().items()}
        corpus = AnalysisCorpus(models=all_extended_models(),
                                domains=domains)
        keys = list(MODEL_KEYS)
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        handle = ServerThread(ServeConfig(port=0), corpus=corpus).start()
        try:
            with client_for(handle) as client:
                for i in range(200):  # 200 distinct (key, limit) queries
                    response = client.query(keys[i % len(keys)],
                                            limit=1 + i // len(keys))
                    assert response["status"] == "ok", response
                    assert response["cached"] is False
            counters = registry.counters()
        finally:
            handle.shutdown()
            registry.disable()
            registry.reset()
        assert counters["sweep.tasks.completed"] > 28
        assert counters["domain.distinct.built"] == 28
