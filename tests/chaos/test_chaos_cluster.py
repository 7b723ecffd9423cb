"""Seeded fault matrices against the live cluster fabric.

The acceptance contract: under an injected fault plan the sweep still
reproduces the fault-free (process backend) results exactly, the same
seed produces the same injections, and a process or cluster sweep
SIGKILLed mid-run resumes from its result store re-executing only the
tasks that never landed.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import faults, obs
from repro.cluster import ClusterCoordinator, ClusterWorker, coordinating
from repro.core import ResultStore, dist
from repro.core.sweep import sweep_models
from repro.models import nullhttpd_model, xterm_model

_REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def _fresh_state():
    previous = faults.install(None)
    dist.reset()
    dist.clear_memo()
    yield
    faults.install(previous)
    dist.reset()
    dist.clear_memo()


def _models():
    return ({"nullhttpd": nullhttpd_model.build_model(),
             "xterm": xterm_model.build_model()},
            {"nullhttpd": nullhttpd_model.pfsm_domains(),
             "xterm": xterm_model.pfsm_domains()})


def _flat(sweeps):
    return [(s.model_name, f.pfsm_name, tuple(f.witnesses))
            for s in sweeps for f in s.findings]


def _cluster_sweep(plan=None, workers=2, chunk_timeout=None, limit=4):
    """One cluster sweep through live workers under an optional plan."""
    models, domains = _models()
    with ClusterCoordinator(lease_timeout=5.0) as coordinator, \
            coordinating(coordinator):
        agents = [ClusterWorker(*coordinator.address,
                                chunk_timeout=chunk_timeout)
                  for _ in range(workers)]
        for agent in agents:
            agent.start()
        assert coordinator.wait_for_workers(workers, timeout=10.0)
        try:
            if plan is not None:
                with faults.injecting(plan):
                    sweeps = sweep_models(models, domains, limit=limit,
                                          mode="cluster", workers=workers)
            else:
                sweeps = sweep_models(models, domains, limit=limit,
                                      mode="cluster", workers=workers)
        finally:
            for agent in agents:
                agent.stop(timeout=5.0)
    return _flat(sweeps)


class TestSeededFaultMatrix:
    def test_results_survive_a_socket_fault_matrix(self):
        models, domains = _models()
        expected = _flat(sweep_models(models, domains, limit=4,
                                      mode="process", workers=2))
        dist.reset()
        dist.clear_memo()
        plan = faults.parse_spec(
            "seed=13;"
            "cluster.send.drop:1@after=6@max=1;"
            "cluster.send.partial:1@after=12@max=1;"
            "cluster.recv.garble:1@after=9@max=1")
        got = _cluster_sweep(plan)
        assert got == expected
        assert plan.snapshot()["total_injected"] >= 1

    def test_worker_crash_fault_is_retried_to_parity(self):
        models, domains = _models()
        expected = _flat(sweep_models(models, domains, limit=4,
                                      mode="process", workers=2))
        dist.reset()
        dist.clear_memo()
        plan = faults.parse_spec("seed=3;worker.chunk.crash:1@max=2")
        got = _cluster_sweep(plan)
        assert got == expected
        assert plan.snapshot()["injected"]["worker.chunk.crash"] == 2

    def test_same_seed_same_injections_same_results(self):
        spec = ("seed=21;worker.chunk.crash:1@max=1;"
                "worker.chunk.slow:1@max=2@ms=20")
        runs = []
        for _ in range(2):
            dist.reset()
            dist.clear_memo()
            plan = faults.parse_spec(spec)
            results = _cluster_sweep(plan)
            runs.append((results, plan.snapshot()["injected"]))
        assert runs[0][0] == runs[1][0]
        # Budgeted (@max) sites fire deterministically often.
        assert runs[0][1]["worker.chunk.crash"] == \
            runs[1][1]["worker.chunk.crash"] == 1
        assert runs[0][1]["worker.chunk.slow"] == \
            runs[1][1]["worker.chunk.slow"] == 2


class TestChunkDeadline:
    def test_hung_chunk_is_killed_and_retried(self):
        models, domains = _models()
        expected = _flat(sweep_models(models, domains, limit=4,
                                      mode="process", workers=2))
        dist.reset()
        dist.clear_memo()
        # One chunk hangs for 60s; the 0.5s deadline kills it and the
        # bounded retry (hang budget spent) completes it normally.
        plan = faults.parse_spec(
            "seed=2;worker.chunk.hang:1@max=1@ms=60000")
        started = time.monotonic()
        got = _cluster_sweep(plan, chunk_timeout=0.5)
        elapsed = time.monotonic() - started
        assert got == expected
        assert plan.snapshot()["injected"]["worker.chunk.hang"] == 1
        assert elapsed < 30.0  # the hang itself never ran to term


class TestClusterStoreResume:
    """The cluster backend resumes from the same ``ResultStore`` as every
    other backend.  No workers join, so the coordinator runs every
    chunk inline and the counters see each executed task."""

    def _sweep(self, store, limit=4):
        models, domains = _models()
        dist.clear_memo()  # reuse must come from the store
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            with ClusterCoordinator() as coordinator, \
                    coordinating(coordinator):
                sweeps = sweep_models(models, domains, limit=limit,
                                      mode="cluster", workers=2,
                                      resume_from=store)
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        return _flat(sweeps), counters

    def _expected(self):
        models, domains = _models()
        expected = _flat(sweep_models(models, domains, limit=4,
                                      mode="process", workers=2))
        dist.reset()
        return expected

    def test_partial_store_re_executes_only_missing_tasks(self, tmp_path):
        expected = self._expected()
        full = tmp_path / "full.jsonl"
        _, first = self._sweep(str(full))
        total = first["sweep.tasks.completed"]
        lines = full.read_text().splitlines()
        assert len(lines) == total == first["dist.store.appended"]
        kept = total // 2
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[:kept]) + "\n")
        got, counters = self._sweep(str(partial))
        assert got == expected
        assert counters["dist.resume.skips"] == kept
        assert counters["sweep.tasks.completed"] == total - kept
        assert counters["cluster.chunks.inline"] >= 1
        assert counters["dist.store.appended"] == total - kept
        assert len(ResultStore(partial).load()) == total

    def test_full_store_executes_nothing(self, tmp_path):
        expected = self._expected()
        store = str(tmp_path / "store.jsonl")
        _, first = self._sweep(store)
        got, counters = self._sweep(store)
        assert got == expected
        assert counters["dist.resume.skips"] == \
            first["sweep.tasks.completed"]
        assert "sweep.tasks.completed" not in counters
        assert "cluster.chunks.inline" not in counters

    def test_store_of_a_different_limit_resumes_nothing(self, tmp_path):
        store = str(tmp_path / "store.jsonl")
        self._sweep(store, limit=3)
        _, counters = self._sweep(store, limit=4)
        assert "dist.resume.skips" not in counters
        assert counters["dist.store.appended"] == \
            counters["sweep.tasks.completed"]

    def test_torn_append_re_executes_only_what_it_lost(self, tmp_path):
        expected = self._expected()
        store = str(tmp_path / "store.jsonl")
        plan = faults.parse_spec("store.append.torn:1@max=1")
        with faults.injecting(plan):
            torn, first = self._sweep(store)
        assert plan.snapshot()["injected"]["store.append.torn"] == 1
        healed, second = self._sweep(store)
        assert torn == healed == expected
        total = first["sweep.tasks.completed"]
        assert 1 <= second["sweep.tasks.completed"] < total
        assert second["dist.resume.skips"] + \
            second["sweep.tasks.completed"] == total


class TestKillAndResume:
    @pytest.mark.parametrize("backend", ["process", "cluster"])
    def test_sigkilled_sweep_resumes_from_store(self, tmp_path, backend):
        """Kill a sweep once its store holds a complete record; the
        re-run with the same ``--resume-from`` store resumes the stored
        tasks and matches the process backend bit-for-bit."""
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(_REPO_ROOT, "src"))
        env.pop(faults.ENV_VAR, None)
        store = str(tmp_path / "store.jsonl")

        baseline = subprocess.run(
            [sys.executable, "-m", "repro", "sweep",
             "--backend", "process", "--json"],
            env=env, capture_output=True, text=True, timeout=120)
        assert baseline.returncode == 0, baseline.stderr
        expected = json.loads(baseline.stdout)

        command = [sys.executable, "-m", "repro", "sweep",
                   "--backend", backend, "--resume-from", store, "--json"]
        if backend == "cluster":
            command += ["--listen", "127.0.0.1:0"]

        def stored_a_line():
            try:
                with open(store, "rb") as handle:
                    return b"\n" in handle.read()
            except OSError:
                return False

        # SIGKILL the sweep the moment its first chunk lands in the
        # store — the remaining chunks are in flight.  The victim leads
        # its own process group so its pool workers die with it.
        victim = subprocess.Popen(command, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL,
                                  start_new_session=True)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if stored_a_line() or victim.poll() is not None:
                break
            time.sleep(0.005)
        try:
            os.killpg(victim.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # finished, and its pool with it
        victim.wait(timeout=30)
        assert stored_a_line()

        resumed = subprocess.run(command, env=env, capture_output=True,
                                 text=True, timeout=120)
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(resumed.stdout)
        assert payload["models"] == expected["models"]
        assert payload["total_findings"] == expected["total_findings"]
        assert payload["resume"]["resumed"] >= 1
