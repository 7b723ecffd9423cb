"""The serve circuit breaker: the state machine under a fake clock, and
the degraded-mode serving path end-to-end (injected dispatch crashes →
inline fallback → open breaker → /healthz degraded + metrics)."""

import json
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.core import (
    Domain,
    Operation,
    PrimitiveFSM,
    VulnerabilityModel,
    dist,
    in_range,
    less_equal,
)
from repro.serve import ServeClient, ServeConfig, ServerThread
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.corpus import AnalysisCorpus

TOY_NAME = "Toy overflow"


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def _breaker(**kwargs):
    clock = FakeClock()
    defaults = dict(window=8, threshold=0.5, min_calls=4, cooldown=5.0,
                    clock=clock)
    defaults.update(kwargs)
    return CircuitBreaker(**defaults), clock


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker, _ = _breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_min_calls_guards_early_failures(self):
        breaker, _ = _breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED  # 3 < min_calls

    def test_failure_rate_over_window_trips_open(self):
        breaker, _ = _breaker()
        for ok in (True, True, False, False, False, False):
            breaker.record_success() if ok else breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.snapshot()["opened_total"] == 1

    def test_cooldown_flips_open_to_half_open(self):
        breaker, clock = _breaker()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock.now += 4.9
        assert breaker.state == OPEN
        clock.now += 0.2
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_bounded_probes(self):
        breaker, clock = _breaker(half_open_probes=1)
        for _ in range(4):
            breaker.record_failure()
        clock.now += 6.0
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # concurrent dispatch short-circuits
        assert breaker.snapshot()["short_circuited"] >= 1

    def test_probe_success_closes_and_resets_window(self):
        breaker, clock = _breaker()
        for _ in range(4):
            breaker.record_failure()
        clock.now += 6.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.snapshot()["window"] == 0  # stale failures gone

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = _breaker()
        for _ in range(4):
            breaker.record_failure()
        clock.now += 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.snapshot()["opened_total"] == 2
        clock.now += 5.1
        assert breaker.state == HALF_OPEN

    def test_transition_hook_fires(self):
        seen = []
        clock = FakeClock()
        breaker = CircuitBreaker(min_calls=2, threshold=0.5, cooldown=1.0,
                                 clock=clock,
                                 on_transition=lambda a, b: seen.append(
                                     (a, b)))
        breaker.record_failure()
        breaker.record_failure()
        clock.now += 1.5
        assert breaker.allow()
        breaker.record_success()
        assert seen == [(CLOSED, OPEN), (OPEN, HALF_OPEN),
                        (HALF_OPEN, CLOSED)]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=1.5)


# -- degraded serving end-to-end -------------------------------------------

def _toy_corpus():
    pfsm1 = PrimitiveFSM("pFSM1", "accept input x", "x",
                         spec_accepts=in_range(0, 5),
                         impl_accepts=less_equal(10))
    op = Operation("write x", "the input integer", [pfsm1])
    model = VulnerabilityModel(TOY_NAME, [op])
    return AnalysisCorpus(models={TOY_NAME: model},
                          domains={TOY_NAME: {
                              "pFSM1": Domain(range(-5, 20))}},
                          keys={"toy": TOY_NAME})


def _get(handle, path):
    url = f"http://{handle.host}:{handle.port}{path}"
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


@pytest.fixture(autouse=True)
def _fresh_state():
    previous = faults.install(None)
    dist.reset()
    yield
    faults.install(previous)
    dist.reset()


class TestDegradedServing:
    def test_injected_dispatch_crashes_degrade_then_open(self):
        handle = ServerThread(
            ServeConfig(port=0, backend="process", workers=1,
                        breaker_cooldown=60.0),
            corpus=_toy_corpus(),
        ).start()
        try:
            assert handle.server.breaker is not None
            plan = faults.parse_spec("serve.dispatch.crash:1")
            with faults.injecting(plan):
                with ServeClient(handle.host, handle.port,
                                 timeout=30.0) as client:
                    # Distinct limits → distinct fingerprints → one
                    # dispatch each; every one crashes and falls back.
                    for limit in range(1, 7):
                        response = client.query("toy", limit=limit)
                        assert response["status"] == "ok"
                        assert response["vulnerable"] is True
                    snapshot = client.metrics()
            assert plan.snapshot()["injected"][
                "serve.dispatch.crash"] >= 4
            breaker = snapshot["breaker"]
            assert breaker["state"] == "open"
            assert snapshot["degraded"] is True
            assert snapshot["counters"]["breaker.fallbacks"] >= 4
            assert snapshot["counters"]["breaker.open"] == 1
            assert snapshot["faults"]["total_injected"] >= 4

            code, body = _get(handle, "/healthz")
            assert code == 200
            payload = json.loads(body)
            assert payload["ready"] is True
            assert payload["degraded"] is True

            _code, text = _get(handle, "/metrics")
            assert "repro_serve_breaker_fallbacks_total" in text
            assert 'repro_serve_breaker_state{state="open"} 1' in text
            assert "repro_serve_degraded 1" in text
        finally:
            handle.shutdown()

    def test_open_breaker_short_circuits_but_still_answers(self):
        handle = ServerThread(
            ServeConfig(port=0, backend="process", workers=1,
                        breaker_cooldown=60.0),
            corpus=_toy_corpus(),
        ).start()
        try:
            # Trip the breaker directly; no faults installed afterwards,
            # so dispatches would succeed — the open breaker skips them.
            for _ in range(4):
                handle.server.breaker.record_failure()
            assert handle.server.breaker.state == "open"
            with ServeClient(handle.host, handle.port,
                             timeout=30.0) as client:
                response = client.query("toy", limit=9)
                assert response["status"] == "ok"
                snapshot = client.metrics()
            assert snapshot["counters"]["breaker.short_circuited"] >= 1
            assert snapshot["breaker"]["short_circuited"] >= 1
        finally:
            handle.shutdown()

    def test_thread_backend_has_no_breaker(self):
        handle = ServerThread(
            ServeConfig(port=0, backend="thread"),
            corpus=_toy_corpus(),
        ).start()
        try:
            assert handle.server.breaker is None
            code, body = _get(handle, "/healthz")
            assert json.loads(body)["degraded"] is False
            snapshot = handle.server.metrics()
            assert "breaker" not in snapshot
        finally:
            handle.shutdown()
