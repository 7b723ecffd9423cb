"""End-to-end cluster fabric tests: zero-worker liveness,
connection-drop recovery, heartbeat renewal, SIGKILL recovery through
a real worker subprocess, and the agent lifecycle.  Parity with the
other backends lives in ``tests/core/test_dist.py::TestBackendParity``."""

import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    WorkerConnectError,
    coordinating,
)
from repro.cluster.protocol import (
    decode_payload,
    encode_blob,
    encode_line,
    read_line,
)
from repro.core import Domain, PrimitiveFSM, in_range, less_equal, dist
from repro.core.sweep import _scan_task, sweep_models
from repro.models import sendmail_model, wuftpd_model

from .slowpred import slow_spec

_REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def _fresh_scheduler():
    dist.clear_memo()
    yield
    dist.clear_memo()


def _models():
    return ({"sendmail": sendmail_model.build_model(),
             "wuftpd": wuftpd_model.build_model()},
            {"sendmail": sendmail_model.pfsm_domains(),
             "wuftpd": wuftpd_model.pfsm_domains()})


def _flat(sweeps):
    return [(s.model_name, f.pfsm_name, tuple(f.witnesses))
            for s in sweeps for f in s.findings]


def _tasks(n=4, spec=None, size=30):
    pfsm = PrimitiveFSM("p", "scan", "x",
                        spec_accepts=spec or in_range(0, 5),
                        impl_accepts=less_equal(10))
    return [("model", f"op{i}", pfsm, Domain.integers(0, size), 5)
            for i in range(n)]


def _witnesses(results):
    return [tuple(r.witnesses) if r is not None else None for r in results]


class TestZeroWorkers:
    def test_zero_workers_degrades_to_inline_and_matches(self):
        models, domains = _models()
        expected = _flat(sweep_models(models, domains, limit=4,
                                      mode="process", workers=2))
        dist.clear_memo()
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            with ClusterCoordinator() as coordinator, \
                    coordinating(coordinator):
                got = _flat(sweep_models(models, domains, limit=4,
                                         mode="cluster", workers=2))
                assert coordinator.counter("chunks.claimed") == 0
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert got == expected
        assert counters["dist.inline.unplaced"] == \
            counters["sweep.tasks.completed"]

    def test_coordinator_without_workers_hands_every_chunk_back(self):
        with ClusterCoordinator() as coordinator:
            got, returned = coordinator.run_chunks(
                [[(0, b"task"), (2, b"task")], [(1, b"task")]])
            assert coordinator.counter("chunks.claimed") == 0
        assert got == {}
        assert returned == [("unplaced", [0, 2]), ("unplaced", [1])]


class TestInheritedTasks:
    def test_agent_with_a_task_list_scans_index_rows(self):
        # An agent handed the task list needs no task bytes: each row
        # names its task, and the coordinator ships nothing.
        tasks = _tasks(n=3)
        with ClusterCoordinator() as coordinator:
            agent = ClusterWorker(*coordinator.address, tasks=tasks)
            agent.start()
            try:
                assert coordinator.wait_for_workers(1, timeout=10.0)
                got, failed = coordinator.run_chunks(
                    [[(0, b""), (2, b"")], [(1, b"")]])
            finally:
                agent.stop()
            assert coordinator.counter("chunks.completed") == 2
            assert coordinator.counter("bytes.shipped") == 0
        assert failed == []
        assert _witnesses([got[i] for i in range(3)]) == \
            _witnesses([_scan_task(task) for task in tasks])


class TestConnectionDropRecovery:
    def test_dead_connection_frees_its_lease_immediately(self):
        """A raw-socket 'worker' claims a chunk and vanishes without a
        goodbye; the sweep must still complete with identical results,
        via the EOF fast path (no lease timeout wait)."""
        tasks = _tasks(4)
        expected = _witnesses([_scan_task(t) for t in tasks])
        with ClusterCoordinator(lease_timeout=30.0) as coordinator, \
                coordinating(coordinator):
            results = {}

            def sweep():
                results["got"] = dist.run_tasks(tasks, 2,
                                                backend="cluster")

            runner = threading.Thread(target=sweep)
            conn = socket.create_connection(coordinator.address)
            reader = conn.makefile("rb")
            try:
                conn.sendall(encode_line(
                    {"op": "hello", "worker": "doomed", "slots": 1}))
                read_line(reader)
                runner.start()
                deadline = time.monotonic() + 10.0
                claimed = None
                while time.monotonic() < deadline:
                    conn.sendall(encode_line(
                        {"op": "claim", "worker": "doomed"}))
                    import json
                    response = json.loads(read_line(reader))
                    if response.get("status") == "chunk":
                        claimed = response
                        break
                    time.sleep(0.02)
                assert claimed is not None, "never got a chunk"
            finally:
                # Dies holding the lease — no bye, no result.  (The
                # makefile reader dups the fd, so it must close too for
                # the kernel to send the FIN a SIGKILL would.)
                reader.close()
                conn.close()
            runner.join(timeout=30.0)
            assert not runner.is_alive()
            assert coordinator.counter("chunks.reclaimed") >= 1
            assert coordinator.counter("workers.lost") == 1
        assert _witnesses(results["got"]) == expected

    def test_failed_chunks_fall_back_inline_after_retries(self):
        """Every attempt is refused by a saboteur claiming and failing
        chunks; retries exhaust and the scheduler's inline fallback
        still produces the full result set."""
        tasks = _tasks(2)
        expected = _witnesses([_scan_task(t) for t in tasks])
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            with ClusterCoordinator(lease_timeout=30.0) as coordinator, \
                    coordinating(coordinator):
                stop = threading.Event()

                def saboteur():
                    import json
                    conn = socket.create_connection(coordinator.address)
                    reader = conn.makefile("rb")
                    conn.sendall(encode_line({"op": "hello",
                                              "worker": "sab",
                                              "slots": 1}))
                    read_line(reader)
                    while not stop.is_set():
                        conn.sendall(encode_line({"op": "claim",
                                                  "worker": "sab"}))
                        response = json.loads(read_line(reader))
                        if response.get("status") == "chunk":
                            conn.sendall(encode_line(
                                {"op": "fail", "worker": "sab",
                                 "job": response["job"],
                                 "chunk": response["chunk"],
                                 "lease": response["lease"],
                                 "error": "sabotage"}))
                            read_line(reader)
                        else:
                            time.sleep(0.01)
                    conn.sendall(encode_line({"op": "bye",
                                              "worker": "sab"}))
                    read_line(reader)
                    conn.close()

                thread = threading.Thread(target=saboteur, daemon=True)
                thread.start()
                assert coordinator.wait_for_workers(1, timeout=10.0)
                try:
                    got = dist.run_tasks(tasks, 2, backend="cluster")
                finally:
                    stop.set()
                    thread.join(timeout=10.0)
                assert coordinator.counter("chunks.failed") >= 1
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert _witnesses(got) == expected
        assert counters.get("dist.inline.exhausted", 0) >= 1


def _until(predicate, timeout=10.0, tick=None):
    """Poll ``predicate`` (calling ``tick`` between polls) until it
    holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        if tick is not None:
            tick()
        time.sleep(0.02)


def _submit(coordinator, chunks):
    """``run_chunks`` on a background thread; its return lands in the
    returned box."""
    box = {}
    thread = threading.Thread(
        target=lambda: box.update(result=coordinator.run_chunks(chunks)),
        daemon=True)
    thread.start()
    return thread, box


class TestHeartbeatRenewal:
    """Heartbeats renew only the leases a worker names.  The worker
    here is driven message by message through the coordinator's
    dispatcher, so "the claim response was lost" is exact: the test
    simply never tells the worker about that lease."""

    TTL = 0.5

    @staticmethod
    def _complete(coordinator, worker, claim):
        rows = decode_payload(claim["payload"])
        reply = coordinator._dispatch({
            "op": "result", "worker": worker, "job": claim["job"],
            "chunk": claim["chunk"], "lease": claim["lease"],
            "data": encode_blob(pickle.dumps(
                [(index, None) for index, _raw in rows]))})
        assert reply["accepted"] is True

    def _finish(self, coordinator, worker, *submitted):
        """Claim and complete every remaining chunk; the submitters'
        ``run_chunks`` returns."""
        while True:
            claim = coordinator._dispatch({"op": "claim", "worker": worker})
            if claim["status"] != "chunk":
                break
            self._complete(coordinator, worker, claim)
        for thread, _box in submitted:
            thread.join(10.0)
        return [box["result"] for _thread, box in submitted]

    def test_lost_claim_is_reaped_while_the_worker_heartbeats(self):
        with ClusterCoordinator(lease_timeout=self.TTL) as coordinator:
            dispatch = coordinator._dispatch
            dispatch({"op": "hello", "worker": "w"})
            thread, box = _submit(coordinator, [[(0, b"task")]])
            _until(lambda: coordinator.snapshot()["pending_chunks"] == 1)
            lost = dispatch({"op": "claim", "worker": "w"})
            claimed = time.monotonic()
            assert lost["status"] == "chunk"
            # The worker never saw that lease, so it holds nothing.
            _until(lambda: coordinator.counter("chunks.reclaimed") == 1,
                   tick=lambda: dispatch({"op": "heartbeat",
                                          "worker": "w", "leases": []}))
            # Reaped on the lease timeout (plus reaper ticks), not later.
            assert time.monotonic() - claimed < 4 * self.TTL
            assert coordinator.counter("leases.expired") == 1
            assert coordinator.snapshot()["pending_chunks"] == 1
            results = self._finish(coordinator, "w", (thread, box))
        assert results == [({0: None}, [])]

    def test_token_collision_across_jobs_renews_only_the_named_job(self):
        with ClusterCoordinator(lease_timeout=self.TTL) as coordinator:
            dispatch = coordinator._dispatch
            dispatch({"op": "hello", "worker": "w"})
            first = _submit(coordinator, [[(0, b"task")]])
            _until(lambda: coordinator.snapshot()["pending_chunks"] == 1)
            second = _submit(coordinator, [[(1, b"task")]])
            _until(lambda: coordinator.snapshot()["pending_chunks"] == 2)
            held = dispatch({"op": "claim", "worker": "w"})
            lost = dispatch({"op": "claim", "worker": "w"})
            # Tokens are numbered per job: both leases are "L1".
            assert held["lease"] == lost["lease"] == "L1"
            assert held["job"] != lost["job"]
            _until(lambda: coordinator.counter("chunks.reclaimed") == 1,
                   tick=lambda: dispatch({
                       "op": "heartbeat", "worker": "w",
                       "leases": [[held["job"], held["lease"]]]}))
            snapshot = coordinator.snapshot()
            assert snapshot["leases"] == 1  # the held lease survived
            assert snapshot["pending_chunks"] == 1  # the lost one requeued
            self._complete(coordinator, "w", held)
            results = self._finish(coordinator, "w", first, second)
        assert results == [({0: None}, []), ({1: None}, [])]


class TestSigkillRecovery:
    """Satellite: SIGKILL a real worker subprocess mid-chunk; the sweep
    completes with identical results and counts the reclaim."""

    def test_sigkilled_worker_mid_chunk_is_recovered(self):
        tasks = _tasks(4, spec=slow_spec, size=60)  # ~0.6s per chunk
        expected = _witnesses([_scan_task(t) for t in tasks])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(_REPO_ROOT, "src"), _REPO_ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with ClusterCoordinator() as coordinator, \
                coordinating(coordinator):
            agent = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", "127.0.0.1:%d" % coordinator.port,
                 "--workers", "1",
                 "--preload", "tests.cluster.slowpred",
                 "--connect-timeout", "10"],
                cwd=_REPO_ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            try:
                assert coordinator.wait_for_workers(1, timeout=20.0)
                results = {}

                def sweep():
                    results["got"] = dist.run_tasks(
                        tasks, 2, backend="cluster")

                runner = threading.Thread(target=sweep)
                runner.start()
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    if coordinator.counter("chunks.claimed") >= 1:
                        break
                    time.sleep(0.01)
                assert coordinator.counter("chunks.claimed") >= 1
                time.sleep(0.05)  # let execution get under way
                agent.send_signal(signal.SIGKILL)  # mid-chunk
                runner.join(timeout=60.0)
                assert not runner.is_alive()
            finally:
                agent.kill()
                agent.wait(timeout=10.0)
            assert coordinator.counter("chunks.reclaimed") >= 1
            assert coordinator.counter("workers.lost") == 1
            completed = coordinator.counter("chunks.completed")
            assert completed == coordinator.counter("chunks.claimed") \
                - coordinator.counter("chunks.reclaimed") \
                - coordinator.counter("chunks.duplicate")
        assert _witnesses(results["got"]) == expected


class TestWorkerAgent:
    def test_unreachable_coordinator_raises_connect_error(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # nothing listens here
        agent = ClusterWorker("127.0.0.1", port, connect_timeout=0.3)
        with pytest.raises(WorkerConnectError):
            agent.run()

    def test_worker_exits_cleanly_when_coordinator_goes_away(self):
        coordinator = ClusterCoordinator()
        coordinator.start()
        agent = ClusterWorker(*coordinator.address, connect_timeout=0.5)
        agent.start()
        assert coordinator.wait_for_workers(1, timeout=10.0)
        coordinator.close()
        agent.stop(timeout=10.0)
        assert not agent._run_thread.is_alive()

    def test_timed_out_agent_is_replaced_and_the_sweep_matches(self):
        """``repro worker --chunk-timeout``: the agent whose chunk hangs
        fails it and exits; its supervisor forks a replacement, and the
        sweep still returns the thread backend's results.  (Each forked
        agent holds its own copy of the fault plan, so a replacement
        hangs on its first chunk too; retries and the inline paths
        finish the sweep.)"""
        tasks = _tasks(2)
        expected = _witnesses([_scan_task(t) for t in tasks])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(_REPO_ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with ClusterCoordinator() as coordinator, \
                coordinating(coordinator):
            supervisor = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", "127.0.0.1:%d" % coordinator.port,
                 "--workers", "1", "--chunk-timeout", "0.5",
                 "--connect-timeout", "1",
                 "--faults", "worker.chunk.hang:1@max=1@ms=60000"],
                cwd=_REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            try:
                assert coordinator.wait_for_workers(1, timeout=20.0)
                got = dist.run_tasks(tasks, 1, backend="cluster")
                assert coordinator.counter("chunks.reclaimed") >= 1
                # The hung agent left, and a replacement dialled in.
                _until(lambda: coordinator.counter("workers.joined") >= 2)
            finally:
                coordinator.close()
                code = supervisor.wait(timeout=30.0)
        assert code == 0
        assert _witnesses(got) == expected
