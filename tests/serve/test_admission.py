"""Admission control: the bounded queue, per-request deadlines, and
how queued requests wake under leader/follower dispatch."""

import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.serve import (
    AdmissionQueue,
    AdmittedRequest,
    ExpandedQuery,
    MicroBatcher,
    ServeStats,
)


class TestOffer:
    def test_fifo_until_full_then_refuse(self):
        queue = AdmissionQueue(2)
        assert queue.offer("a") is True
        assert queue.offer("b") is True
        assert queue.offer("c") is False  # refuse, never block
        assert queue.depth() == 2
        assert queue.get_nowait() == "a"
        assert queue.offer("c") is True  # space freed → admitted again

    def test_closed_queue_refuses(self):
        queue = AdmissionQueue(8)
        queue.close()
        assert queue.closed
        assert queue.offer("a") is False

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


class TestDrainingQueue:
    def test_get_drains_backlog_then_none_after_close(self):
        queue = AdmissionQueue(4)
        queue.offer("a")
        queue.offer("b")
        queue.close()
        assert [queue.get_nowait(), queue.get_nowait(),
                queue.get_nowait()] == ["a", "b", None]

    def test_peek_leaves_the_head_queued(self):
        queue = AdmissionQueue(4)
        assert queue.peek() is None
        queue.offer("a")
        queue.offer("b")
        assert queue.peek() == "a"
        assert queue.depth() == 2
        assert queue.get_nowait() == "a"


def _query(tag, deadline=None):
    """A keyless expanded query: every dispatch computes it."""
    return ExpandedQuery(model_key="m", model_name="M", limit=tag,
                         tasks=(("M", "op", None, None, tag),),
                         task_keys=(None,), fingerprint=f"q{tag}")


class _Gate:
    """A compute function that blocks each call until released, and
    records each call's limit and thread."""

    def __init__(self):
        self.calls = []
        self.entered = threading.Semaphore(0)
        self.release = threading.Semaphore(0)

    def __call__(self, tasks, keys):
        self.calls.append(([task[4] for task in tasks],
                           threading.get_ident()))
        self.entered.release()
        assert self.release.acquire(timeout=10.0), "never released"
        return [None] * len(tasks)


def _batcher(gate, **kwargs):
    return MicroBatcher(ServeStats(), compute_fn=gate, **kwargs)


def _submit(batcher, query, responses, deadline_ms=None):
    def run():
        responses[query.limit] = batcher.submit(query, deadline_ms)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


class TestDispatcherWakes:
    """A queued request's thread wakes when it is resolved or handed
    the dispatcher role; nothing admitted is ever left behind."""

    def test_request_on_an_idle_batcher_dispatches_on_its_own_thread(self):
        gate = _Gate()
        gate.release.release()
        batcher = _batcher(gate)
        response = batcher.submit(_query(1))
        assert response["status"] == "ok"
        assert gate.calls == [([1], threading.get_ident())]

    def test_stop_runs_the_backlog_dry(self):
        gate = _Gate()
        batcher = _batcher(gate, max_batch=1)
        responses = {}
        threads = [_submit(batcher, _query(1), responses)]
        assert gate.entered.acquire(timeout=10.0)
        threads += [_submit(batcher, _query(n), responses) for n in (2, 3)]
        _until(lambda: batcher.queue_depth() == 2)
        stopper = threading.Thread(target=batcher.stop)
        stopper.start()
        for _ in range(3):
            gate.release.release()
        stopper.join(10.0)
        for thread in threads:
            thread.join(10.0)
        assert not stopper.is_alive()
        assert sorted(responses) == [1, 2, 3]
        assert all(r["status"] == "ok" for r in responses.values())
        assert [limits for limits, _thread in gate.calls] == [[1], [2], [3]]
        assert batcher.submit(_query(4))["status"] == "draining"

    def test_stop_on_an_idle_batcher_returns_at_once(self):
        batcher = _batcher(_Gate())
        batcher.stop()
        assert batcher.queue_depth() == 0

    def test_expired_head_loses_no_work_behind_it(self):
        # The head times out while queued; the request behind it is
        # still dispatched — by the thread the role is handed to.
        gate = _Gate()
        batcher = _batcher(gate, max_batch=1)
        responses = {}
        threads = [_submit(batcher, _query(1), responses)]
        assert gate.entered.acquire(timeout=10.0)
        threads.append(_submit(batcher, _query(2), responses,
                               deadline_ms=1))
        _until(lambda: batcher.queue_depth() == 1)
        threads.append(_submit(batcher, _query(3), responses))
        _until(lambda: batcher.queue_depth() == 2)
        time.sleep(0.01)  # the head's deadline passes
        gate.release.release()
        gate.release.release()
        for thread in threads:
            thread.join(10.0)
        assert responses[2]["status"] == "timeout"
        assert responses[1]["status"] == responses[3]["status"] == "ok"
        assert [limits for limits, _thread in gate.calls] == [[1], [3]]
        assert gate.calls[0][1] != gate.calls[1][1]


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestDeadlines:
    def test_expired(self):
        now = time.monotonic()
        item = AdmittedRequest(query=None, future=Future(),
                               enqueued_at=now, deadline_at=now + 10.0)
        assert not item.expired(time.monotonic())
        assert item.expired(item.deadline_at + 0.001)

    def test_no_deadline_never_expires(self):
        item = AdmittedRequest(query=None, future=Future(),
                               enqueued_at=time.monotonic())
        assert not item.expired(time.monotonic() + 1e9)


class TestStress:
    def test_every_request_resolves_under_thread_churn(self):
        # More threads than cores and a tiny switch interval: a lost
        # update to the dispatcher slot or the single-flight map would
        # strand a request (a hang) or miscount the batch members.
        calls = []

        def compute(tasks, keys):
            calls.append(len(tasks))
            return [None] * len(tasks)

        batcher = _batcher(compute, max_depth=256, max_batch=4)
        limits = [n % 12 for n in range(96)]  # repeats coalesce or hit
        responses = []
        lock = threading.Lock()

        def fire(limit):
            query = ExpandedQuery(
                model_key="m", model_name="M", limit=limit,
                tasks=(("M", "op", None, None, limit),),
                task_keys=(f"stress-{limit}",),
                fingerprint=f"stress-q{limit}")
            response = batcher.submit(query)
            with lock:
                responses.append(response)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fire, args=(limit,))
                       for limit in limits]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(responses) == len(limits)
        assert all(r["status"] == "ok" for r in responses)
        counters = batcher._stats.snapshot()["counters"]
        assert counters["admitted"] == counters["batch.requests"]
        assert counters["batch.requests"] + counters.get("coalesced", 0) \
            + counters.get("requests.cached", 0) == len(limits)
        assert sum(calls) == counters["batch.tasks"] == 12  # once per key
        assert batcher.queue_depth() == 0
        assert batcher.inflight_count() == 0
        assert not batcher._dispatching
