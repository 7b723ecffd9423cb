"""The distributed sweep scheduler: chunking, backend parity, the
fingerprint memo, crash recovery, backend validation, and JSONL resume."""

import json
import os
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.cluster import ClusterCoordinator, ClusterWorker, coordinating
from repro.core import (
    Domain,
    PrimitiveFSM,
    ResultStore,
    SweepFinding,
    attr,
    domain_digest,
    in_range,
    less_equal,
    named_predicate,
    sweep_models,
    task_key,
)
from repro.core import dist
from repro.core.predspec import encode_value
from repro.core.sweep import _scan_task
from repro.models import sendmail_model
from repro.serve.protocol import encode_line, finding_payload

#: Recorded at import so a forked worker (different pid) can tell it is
#: not the test process — the crash predicate fires only off-parent.
_PARENT_PID = os.getpid()


def _crash_off_parent(value):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return 0 <= value <= 5


crashy = named_predicate("crash_off_parent", _crash_off_parent,
                         "crashes any process but the test parent")


@pytest.fixture(autouse=True)
def _fresh_scheduler():
    dist.clear_memo()
    yield
    dist.clear_memo()


def _pfsm(spec=None, impl=None):
    return PrimitiveFSM("p", "scan", "x",
                        spec_accepts=spec or in_range(0, 5),
                        impl_accepts=impl if impl is not None
                        else less_equal(10))


def _task(domain, pfsm=None, limit=5):
    return ("model", "op", pfsm or _pfsm(), domain, limit)


def _witnesses(results):
    return [tuple(r.witnesses) if r is not None else None for r in results]


class TestChunking:
    def test_partition_is_exact_and_ordered(self):
        tasks = [_task(Domain.integers(0, n)) for n in (3, 50, 7, 120, 1, 9)]
        chunks = dist.chunk_tasks(tasks, list(range(len(tasks))), 3)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == list(range(len(tasks)))
        for chunk in chunks:
            assert chunk == sorted(chunk)

    def test_lpt_balances_by_estimated_scan_cost(self):
        from repro.core import Predicate

        # Opaque specs defeat the planner, so estimated cost degrades to
        # per-object evaluation — proportional to domain cardinality.
        sizes = [1000, 10, 10, 10, 10, 10]
        tasks = [_task(Domain.integers(0, n - 1),
                       pfsm=_pfsm(spec=Predicate(lambda x: 0 <= x <= 5,
                                                 "opaque")))
                 for n in sizes]
        chunks = dist.chunk_tasks(tasks, list(range(len(tasks))), 2)
        costs = [sum(sizes[i] for i in chunk) for chunk in chunks]
        # The huge task must not drag the small ones into its chunk.
        assert min(costs) == sum(sizes) - 1000

    def test_interval_tasks_are_cheap_regardless_of_cardinality(self):
        from repro.core import Predicate

        # A closed-form (interval-answerable) scan over a huge range
        # costs O(limit); an opaque scan over a tiny range costs O(n).
        huge = _task(Domain.integers(0, 10**6 - 1))
        small_opaque = _task(
            Domain.integers(0, 99),
            pfsm=_pfsm(spec=Predicate(lambda x: x > 0, "opaque")))
        assert dist._task_cost(huge) < dist._task_cost(small_opaque)

    def test_never_more_chunks_than_tasks(self):
        tasks = [_task(Domain.integers(0, 3))] * 2
        assert len(dist.chunk_tasks(tasks, [0, 1], 8)) <= 2


@pytest.fixture(params=["process", "cluster"])
def backend(request):
    """Each chunked backend: ``process`` forks its own local workers;
    ``cluster`` gets an ambient TCP coordinator with two agents."""
    if request.param == "process":
        yield "process"
        return
    with ClusterCoordinator() as coordinator, coordinating(coordinator):
        agents = [ClusterWorker(*coordinator.address) for _ in range(2)]
        for agent in agents:
            agent.start()
        assert coordinator.wait_for_workers(2, timeout=10.0)
        yield "cluster"
        for agent in agents:
            agent.stop()


def _flat(sweeps):
    return [(s.model_name, f.pfsm_name, tuple(f.witnesses))
            for s in sweeps for f in s.findings]


def _inline_counters(counters):
    """The ``dist.inline.<reason>`` counters that were set."""
    return {name: n for name, n in counters.items()
            if name.startswith("dist.inline.")}


def _counting(fn):
    """``(fn(), counters)`` with the registry counting from zero."""
    registry = obs.get_registry()
    registry.reset()
    registry.enable()
    try:
        return fn(), registry.counters()
    finally:
        registry.disable()
        registry.reset()


class TestBackendParity:
    """Both chunked backends return what the thread backend returns —
    through one scheduler path, on the same counters."""

    def test_matches_inline(self, backend):
        tasks = [_task(Domain.integers(-5, 20)),
                 _task(Domain.integers(0, 40), limit=3)]
        from repro.core.sweep import _scan_task
        expected = [_scan_task(t) for t in tasks]
        got = dist.run_tasks(tasks, 2, backend=backend)
        assert _witnesses(got) == _witnesses(expected)

    def test_memo_serves_repeat_keys_without_rescanning(self, backend):
        tasks = [_task(Domain.integers(-5, 20))]
        keys = ["stable-key"]
        first = dist.run_tasks(tasks, 2, backend=backend, keys=keys)
        second, counters = _counting(
            lambda: dist.run_tasks(tasks, 2, backend=backend, keys=keys))
        assert _witnesses(second) == _witnesses(first)
        assert counters.get("dist.memo.hits") == 1
        assert "dist.chunks" not in counters

    @pytest.mark.parametrize("opaque", ["predicate", "domain"])
    def test_unpicklable_task_runs_where_it_can(self, backend, opaque):
        # A process worker inherits the task through the fork; a cluster
        # agent could not unpickle it, so there it runs inline.
        from repro.core import Predicate
        domain = Domain.integers(-5, 20)
        pfsm = _pfsm()
        if opaque == "predicate":
            pfsm = _pfsm(spec=Predicate(lambda x: 0 <= x <= 5, "opaque"))
        else:
            domain.handle = threading.Lock()  # a live handle never pickles
        tasks = [_task(domain, pfsm=pfsm)]
        expected = [_scan_task(t) for t in tasks]
        got, counters = _counting(
            lambda: dist.run_tasks(tasks, 2, backend=backend))
        assert _witnesses(got) == _witnesses(expected)
        if backend == "process":
            assert counters.get("cluster.chunks.completed", 0) >= 1
            assert "dist.inline.unpicklable" not in counters
        else:
            assert counters.get("dist.inline.unpicklable") == 1
            assert "cluster.chunks.completed" not in counters

    def test_record_domain_ships_bytes_only_across_hosts(self, backend,
                                                         monkeypatch):
        # Process chunks name their tasks by index: nothing is pickled
        # and no task byte is shipped.  Cluster chunks pickle each task.
        domain = Domain([{"size": i % 97, "name": "x" * (i % 7)}
                         for i in range(4000)])
        pfsm = PrimitiveFSM(
            "p", "scan", "x",
            spec_accepts=attr("size", in_range(0, 40)),
            impl_accepts=attr("size", less_equal(90)))
        tasks = [_task(domain, pfsm=pfsm, limit=7),
                 _task(domain, pfsm=pfsm, limit=3)]
        expected = [_scan_task(t) for t in tasks]
        if backend == "process":
            def never(task):
                raise AssertionError("a process sweep pickled a task")
            monkeypatch.setattr(dist, "_serialize_task", never)
        got, counters = _counting(
            lambda: dist.run_tasks(tasks, 2, backend=backend))
        assert _witnesses(got) == _witnesses(expected)
        assert counters.get("cluster.chunks.completed", 0) >= 1
        shipped = counters.get("cluster.bytes.shipped", 0)
        assert (shipped == 0) if backend == "process" else (shipped > 0)

    def test_sweep_matches_thread_backend_on_workers(self, backend):
        from repro.models import wuftpd_model

        models = {"sendmail": sendmail_model.build_model(),
                  "wuftpd": wuftpd_model.build_model()}
        domains = {"sendmail": sendmail_model.pfsm_domains(),
                   "wuftpd": wuftpd_model.pfsm_domains()}
        expected = _flat(sweep_models(models, domains, limit=4))
        got, counters = _counting(lambda: _flat(sweep_models(
            models, domains, limit=4, mode=backend, workers=2)))
        assert got == expected
        # Healthy workers claim every chunk: none runs in the parent.
        assert counters.get("cluster.chunks.completed", 0) >= 1
        assert _inline_counters(counters) == {}

    def test_concurrent_sweeps_agree(self, backend):
        import threading

        models = {"sendmail": sendmail_model.build_model()}
        domains = {"sendmail": sendmail_model.pfsm_domains()}
        expected = _flat(sweep_models(models, domains, limit=3,
                                      mode=backend, workers=2))
        results = {}
        barrier = threading.Barrier(4)

        def run(slot):
            barrier.wait()
            results[slot] = _flat(sweep_models(
                models, domains, limit=3, mode=backend, workers=2))

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        for slot in results:
            assert results[slot] == expected


def _lock_tasks():
    """One task whose witnesses are locks, which never pickle."""
    from repro.core import Predicate

    locks = [threading.Lock() for _ in range(4)]
    pfsm = _pfsm(spec=Predicate(lambda lock: False, "none"),
                 impl=Predicate(lambda lock: True, "all"))
    return [_task(Domain.of(*locks), pfsm=pfsm, limit=3)]


class TestLocalWorkers:
    def test_worker_crash_is_reclaimed_then_run_inline(self):
        tasks = [_task(Domain.integers(-5, 20), pfsm=_pfsm(spec=crashy))]
        got, counters = _counting(
            lambda: dist.run_tasks(tasks, 2, backend="process"))
        # Hidden path: spec rejects (outside 0..5), impl accepts (<=10).
        assert got[0] is not None
        assert counters.get("cluster.chunks.reclaimed", 0) >= 1
        assert counters.get("dist.inline.unplaced", 0) >= 1

    def test_unpicklable_witnesses_fall_back_inline(self):
        # The workers scan the inherited locks but cannot send them back:
        # each attempt fails, and the retry-exhausted chunk runs here.
        tasks = _lock_tasks()
        got, counters = _counting(
            lambda: dist.run_tasks(tasks, 2, backend="process"))
        assert got[0].witnesses == tuple(tasks[0][3])[:3]
        assert counters.get("cluster.chunks.failed") == 1
        assert counters.get("dist.inline.exhausted") == 1

    def test_memo_only_sweep_forks_no_worker(self):
        tasks = [_task(Domain.integers(-5, 20))]
        dist.run_tasks(tasks, 2, backend="process", keys=["k"])
        _, counters = _counting(
            lambda: dist.run_tasks(tasks, 2, backend="process",
                                   keys=["k"]))
        assert counters.get("dist.memo.hits") == 1
        assert "cluster.workers.joined" not in counters


def _unpicklable_on_cluster():
    from repro.core import Predicate

    pfsm = _pfsm(spec=Predicate(lambda x: 0 <= x <= 5, "opaque"))
    tasks = [_task(Domain.integers(-5, 20), pfsm=pfsm)]
    with ClusterCoordinator() as coordinator, coordinating(coordinator):
        agent = ClusterWorker(*coordinator.address)
        agent.start()
        try:
            assert coordinator.wait_for_workers(1, timeout=10.0)
            return tasks, dist.run_tasks(tasks, 1, backend="cluster")
        finally:
            agent.stop()


def _exhausted_on_process():
    tasks = _lock_tasks()
    return tasks, dist.run_tasks(tasks, 1, backend="process")


def _unplaced_after_a_lone_crash():
    tasks = [_task(Domain.integers(-5, 20), pfsm=_pfsm(spec=crashy))]
    return tasks, dist.run_tasks(tasks, 1, backend="process")


class TestInlineLoop:
    """Whatever no worker ran comes back to one loop in the parent,
    counted under ``dist.inline.<reason>``."""

    @pytest.mark.parametrize("reason, sweep", [
        ("unpicklable", _unpicklable_on_cluster),
        ("exhausted", _exhausted_on_process),
        ("unplaced", _unplaced_after_a_lone_crash),
    ])
    def test_each_reason_runs_inline_and_matches(self, reason, sweep):
        (tasks, got), counters = _counting(sweep)
        assert _witnesses(got) == \
            _witnesses([_scan_task(task) for task in tasks])
        assert _inline_counters(counters) == {f"dist.inline.{reason}": 1}

    def test_zero_worker_sweep_stores_each_chunk_before_a_failure(
            self, tmp_path, monkeypatch):
        # The inline loop appends chunk by chunk: a task that raises
        # loses only its own chunk's results, as a kill would.
        tasks = [_task(Domain.integers(-5, 20 + n)) for n in range(3)]
        tasks.append(("model", "boom", _pfsm(), Domain.integers(-5, 20), 5))
        keys = [f"k{n}" for n in range(len(tasks))]
        store = ResultStore(tmp_path / "store.jsonl")

        def scan(task):
            if task[1] == "boom":
                raise RuntimeError("boom")
            return _scan_task(task)

        monkeypatch.setattr(dist, "_scan_task", scan)
        with ClusterCoordinator() as coordinator, \
                coordinating(coordinator):
            with pytest.raises(RuntimeError, match="boom"):
                dist.run_tasks(tasks, 2, backend="cluster", keys=keys,
                               store=store)
        assert sorted(store.load()) == keys[:-1]


class TestBackendNames:
    """Only thread, process and cluster exist; a misspelt or removed
    backend name is an error, never a silent thread sweep."""

    @pytest.mark.parametrize("name", ["proces", "queue", "Thread"])
    def test_sweep_models_rejects_unknown_backends(self, name):
        models = {"sendmail": sendmail_model.build_model()}
        domains = {"sendmail": sendmail_model.pfsm_domains()}
        with pytest.raises(ValueError, match="thread, process, cluster"):
            sweep_models(models, domains, limit=2, workers=2, mode=name)

    @pytest.mark.parametrize("name", ["thread", "queue", "proces"])
    def test_run_tasks_rejects_non_chunked_backends(self, name):
        with pytest.raises(ValueError, match="process, cluster"):
            dist.run_tasks([_task(Domain.integers(-5, 20))], 2,
                           backend=name)

    def test_sweep_models_takes_mode_only(self):
        models = {"sendmail": sendmail_model.build_model()}
        domains = {"sendmail": sendmail_model.pfsm_domains()}
        with pytest.raises(TypeError, match="backend"):
            sweep_models(models, domains, limit=3, backend="thread")

    def test_cluster_without_coordinator_is_a_clear_error(self):
        with pytest.raises(RuntimeError, match="coordinator"):
            dist.run_tasks([_task(Domain.integers(-5, 20))], 2,
                           backend="cluster")


class TestChunkedStore:
    """``run_tasks(store=...)`` appends every keyed result exactly once,
    chunk by chunk, memo hits included."""

    def test_process_backend_appends_every_keyed_task_once(self, tmp_path):
        tasks = [_task(Domain.integers(-5, 20 + n)) for n in range(6)]
        keys = [f"k{n}" for n in range(5)] + [None]
        store = ResultStore(tmp_path / "results.jsonl")
        got = dist.run_tasks(tasks, 2, backend="process", keys=keys,
                             store=store)
        lines = open(store.path).read().splitlines()
        assert sorted(json.loads(line)["key"] for line in lines) == \
            sorted(keys[:5])
        loaded = store.load()
        assert [tuple(loaded[k][1].witnesses) for k in keys[:5]] == \
            _witnesses(got)[:5]

    def test_memo_hits_are_stored_too(self, tmp_path):
        tasks = [_task(Domain.integers(-5, 20))]
        dist.run_tasks(tasks, 1, backend="process", keys=["warm"])
        store = ResultStore(tmp_path / "results.jsonl")
        dist.run_tasks(tasks, 1, backend="process", keys=["warm"],
                       store=store)
        assert set(store.load()) == {"warm"}

    def test_concurrent_record_many_keeps_every_line_whole(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        finding = SweepFinding(
            model_name="model", operation_name="op", pfsm_name="p",
            activity="scan", witnesses=tuple(range(3000)),
        )
        barrier = threading.Barrier(2)

        def append(prefix):
            barrier.wait()
            for batch in range(50):
                store.record_many([(f"{prefix}{batch}.{n}", 5, finding)
                                   for n in range(4)])

        threads = [threading.Thread(target=append, args=(prefix,))
                   for prefix in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = open(store.path).read().splitlines()
        assert len(lines) == 2 * 50 * 4
        for line in lines:
            assert json.loads(line)["finding"]["witnesses"]
        assert len(store.load()) == 400


class TestResultStore:
    def test_round_trip_and_last_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        tasks = [_task(Domain.integers(-5, 20))]
        finding = dist.run_tasks(tasks, 1, backend="process")[0]
        store.record("k", 5, None)
        store.record("k", 5, finding)
        store.record("k", 2, finding.prefix(2))  # covers less: kept out
        loaded = store.load()
        assert loaded["k"][0] == 5
        assert tuple(loaded["k"][1].witnesses) == tuple(finding.witnesses)

    def test_lines_match_a_witness_table_encoding(self, tmp_path):
        tile = [(1, "a"), b"\x00\xff", frozenset({3, 4})]
        finding = SweepFinding(
            model_name="model", operation_name="op", pfsm_name="p",
            activity="scan", witnesses=tuple(tile * 3),
        )
        store = ResultStore(tmp_path / "results.jsonl")
        assert store.record("k", 5, finding) is True
        reference = json.dumps({"key": "k", "limit": 5, "finding": {
            "model_name": "model", "operation_name": "op",
            "pfsm_name": "p", "activity": "scan",
            "witnesses": {"values": [encode_value(w) for w in tile],
                          "codes": [0, 1, 2] * 3},
        }}, separators=(",", ":")) + "\n"
        with open(store.path, encoding="utf-8") as handle:
            assert handle.read() == reference
        loaded = store.load()
        assert loaded == {"k": (5, finding)}
        # each distinct value is decoded once: repeats are one object
        witnesses = loaded["k"][1].witnesses
        assert all(witnesses[i] is witnesses[i % 3] for i in range(9))

    def test_default_separator_lines_still_load(self, tmp_path):
        # Stores written before lines became compact JSON still resume.
        tile = [(1, "a"), b"\x00\xff", frozenset({3, 4}), "caf\u00e9"]
        finding = SweepFinding(
            model_name="model", operation_name="op", pfsm_name="p",
            activity="scan", witnesses=tuple(tile * 2),
        )
        path = tmp_path / "results.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for key, payload in (("clean", None), ("k", {
                "model_name": "model", "operation_name": "op",
                "pfsm_name": "p", "activity": "scan",
                "witnesses": {"values": [encode_value(w) for w in tile],
                              "codes": [0, 1, 2, 3] * 2},
            })):
                handle.write(json.dumps({"key": key, "limit": 5,
                                         "finding": payload}) + "\n")
        store = ResultStore(path)
        assert store.load() == {"clean": (5, None), "k": (5, finding)}
        compact = tmp_path / "compact.jsonl"
        ResultStore(compact).record_many([("clean", 5, None),
                                          ("k", 5, finding)])
        assert ResultStore(compact).load() == store.load()

    def test_out_of_codec_finding_is_skipped_and_counted(self, tmp_path):
        finding = SweepFinding(
            model_name="model", operation_name="op", pfsm_name="p",
            activity="scan", witnesses=(1, object()),
        )
        store = ResultStore(tmp_path / "results.jsonl")
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            assert store.record("k", 5, finding) is False
            assert store.record_many([("k", 5, finding),
                                      ("c", 5, None)]) == 1
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert counters.get("dist.store.unencodable") == 2
        assert store.load() == {"c": (5, None)}

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("good", 5, None)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        assert set(store.load()) == {"good"}

    def test_torn_write_degrades_and_stays_loadable(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        with faults.injecting(
                faults.parse_spec("store.append.torn:1@max=1")):
            assert store.record_many(
                [("a", 5, None), ("b", 5, None), ("c", 5, None)]) == 0
        assert store.write_errors == 1
        # Half the blob landed: the whole first line, then a torn one.
        assert not open(store.path).read().endswith("\n")
        assert store.load() == {"a": (5, None)}
        assert store.record("d", 5, None)  # the next append heals the tail
        assert store.load() == {"a": (5, None), "d": (5, None)}

    def test_enospc_counts_a_write_error(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            with faults.injecting(
                    faults.parse_spec("store.append.enospc:1@max=1")):
                assert store.record("k", 5, None) is False
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert store.write_errors == 1
        assert counters.get("dist.store.write_errors") == 1
        assert "dist.store.appended" not in counters
        assert store.load() == {}


class TestDomainDigest:
    def test_range_domains_digest_in_constant_time(self):
        assert domain_digest(Domain.integers(0, 10**9)) is not None

    def test_digest_is_content_based_not_identity_based(self):
        a = Domain([{"x": 1}, {"x": 2}])
        item = {"x": 1}
        b = Domain([item, {"x": 2}])
        assert domain_digest(a) == domain_digest(b)
        tiled_distinct = Domain([{"x": 1}, {"x": 1}])
        tiled_shared = Domain([item, item])
        assert domain_digest(tiled_distinct) == domain_digest(tiled_shared)

    def test_different_contents_differ(self):
        assert domain_digest(Domain.of(1, 2)) != domain_digest(Domain.of(1, 3))

    def test_undigestable_contents_yield_none(self):
        assert domain_digest(Domain([object()])) is None


class TestResume:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_sweep_closes_the_store_it_appended_to(self, tmp_path,
                                                   monkeypatch, mode):
        closed = []
        close = dist.ResultStore.close

        def recording(store):
            closed.append(store._handle is not None)
            close(store)

        monkeypatch.setattr(dist.ResultStore, "close", recording)
        models = {"sendmail": sendmail_model.build_model()}
        domains = {"sendmail": sendmail_model.pfsm_domains()}
        dist.clear_memo()
        sweep_models(models, domains, limit=4, mode=mode, workers=2,
                     resume_from=str(tmp_path / "resume.jsonl"))
        assert closed == [True]

    def test_resume_skips_known_tasks_and_matches(self, tmp_path):
        store_path = str(tmp_path / "resume.jsonl")
        models = {"sendmail": sendmail_model.build_model()}
        domains = {"sendmail": sendmail_model.pfsm_domains()}
        baseline = sweep_models(models, domains, limit=4)

        first = sweep_models(models, domains, limit=4,
                             resume_from=store_path)
        recorded = sum(1 for line in open(store_path) if line.strip())
        assert recorded > 0

        dist.clear_memo()  # reuse must come from the store, not the memo
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            second = sweep_models(models, domains, limit=4,
                                  resume_from=store_path)
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert counters.get("dist.resume.skips") == recorded

        def flat(sweeps):
            return [(f.pfsm_name, tuple(f.witnesses))
                    for s in sweeps for f in s.findings]

        assert flat(first) == flat(baseline)
        assert flat(second) == flat(baseline)
        # No duplicate records were appended by the resumed run.
        assert sum(1 for line in open(store_path) if line.strip()) == recorded

    @staticmethod
    def _bundled():
        from repro.models import (
            all_extended_models,
            all_extended_pfsm_domains,
        )

        return all_extended_models(), all_extended_pfsm_domains()

    @staticmethod
    def _resumed(models, domains, limit, path):
        dist.clear_memo()  # reuse must come from the store, not the memo
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            swept = sweep_models(models, domains, limit=limit,
                                 resume_from=str(path))
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        dist.clear_memo()
        return swept, counters

    def test_store_of_a_larger_limit_resumes_every_task(self, tmp_path):
        models, domains = self._bundled()
        path = tmp_path / "store.jsonl"
        sweep_models(models, domains, limit=5, resume_from=str(path))
        stored = len(ResultStore(path).load())
        written = path.read_bytes()
        resumed, counters = self._resumed(models, domains, 2, path)
        assert stored > 0
        assert counters.get("dist.resume.skips") == stored
        assert "sweep.tasks.completed" not in counters
        assert path.read_bytes() == written  # nothing new to append
        assert resumed == sweep_models(*self._bundled(), limit=2)

    def test_store_of_a_smaller_limit_resumes_its_exhaustive_tasks(
            self, tmp_path):
        models, domains = self._bundled()
        path = tmp_path / "store.jsonl"
        sweep_models(models, domains, limit=2, resume_from=str(path))
        stored = ResultStore(path).load()
        exhaustive = {key for key, (limit, finding) in stored.items()
                      if finding is None or len(finding.witnesses) < limit}
        assert 0 < len(exhaustive) < len(stored)
        resumed, counters = self._resumed(models, domains, 5, path)
        assert counters.get("dist.resume.skips") == len(exhaustive)
        assert counters.get("sweep.tasks.completed") == \
            len(stored) - len(exhaustive)
        assert resumed == sweep_models(*self._bundled(), limit=5)
        # The tasks it computed now answer limit 5 from the store.
        assert {key: limit for key, (limit, _finding)
                in ResultStore(path).load().items()} == \
            {key: 2 if key in exhaustive else 5 for key in stored}

    def test_store_without_limits_resumes_nothing(self, tmp_path):
        # Records written before keys left out the limit carry none
        # (and list-form witnesses, older still): none is trusted.
        models, domains = self._bundled()
        path = tmp_path / "store.jsonl"
        baseline = sweep_models(models, domains, limit=5,
                                resume_from=str(path))
        old = tmp_path / "old.jsonl"
        with open(path, encoding="utf-8") as source, \
                open(old, "w", encoding="utf-8") as target:
            for number, line in enumerate(source):
                record = json.loads(line)
                del record["limit"]
                finding = record["finding"]
                if finding is not None and number % 2:
                    table = finding["witnesses"]
                    finding["witnesses"] = [table["values"][code]
                                            for code in table["codes"]]
                target.write(json.dumps(record) + "\n")
        recorded = sum(1 for line in open(old) if line.strip())
        resumed, counters = self._resumed(models, domains, 5, old)
        assert recorded > 0
        assert "dist.resume.skips" not in counters
        assert counters.get("dist.store.malformed") == recorded
        assert counters.get("sweep.tasks.completed") == recorded
        assert resumed == baseline

    def test_record_without_an_int_limit_is_skipped_as_malformed(
            self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("new", 3, None)
        store.close()
        with open(path, "a", encoding="utf-8") as handle:
            for record in ({"key": "old", "finding": None},
                           {"key": "odd", "limit": "3", "finding": None}):
                handle.write(json.dumps(record) + "\n")
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            assert store.load() == {"new": (3, None)}
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert counters.get("dist.store.malformed") == 2

    def test_task_key_is_stable_across_rebuilds(self):
        model_a = sendmail_model.build_model()
        model_b = sendmail_model.build_model()
        domains = sendmail_model.pfsm_domains()
        op = model_a.operations[0]
        pfsm = op.pfsms[0]
        task = (model_a.name, op.name, pfsm, domains[pfsm.name], 5)
        key_a = task_key(model_a, task)
        op_b = model_b.operations[0]
        task_b = (model_b.name, op_b.name, op_b.pfsms[0],
                  sendmail_model.pfsm_domains()[pfsm.name], 5)
        key_b = task_key(model_b, task_b)
        assert key_a is not None and key_a == key_b

    def test_limit_is_not_part_of_the_key(self):
        model = sendmail_model.build_model()
        domains = sendmail_model.pfsm_domains()
        op = model.operations[0]
        pfsm = op.pfsms[0]
        base = (model.name, op.name, pfsm, domains[pfsm.name], 5)
        other = (model.name, op.name, pfsm, domains[pfsm.name], 6)
        key = task_key(model, base)
        assert key is not None
        assert key == task_key(model, other) == task_key(model, base[:4])


#: Domains for the prefix property: list-backed ones with repeats (the
#: distinct-row index builds their tables) and ranges (the interval
#: strategy; their findings build tables by identity).
_PREFIX_DOMAINS = st.one_of(
    st.lists(st.integers(-3, 14), max_size=40).map(
        lambda items: ("list", tuple(items))),
    st.tuples(st.integers(-6, 8), st.integers(0, 30)).map(
        lambda bounds: ("range", bounds)),
)


def _prefix_domain(spec):
    kind, data = spec
    if kind == "list":
        return Domain(list(data))
    return Domain.integers(data[0], data[0] + data[1])


class TestHeldAnswers:
    """A task's result is held with the limit it was computed at and
    answers every limit it covers, cut to that limit."""

    @settings(max_examples=80, deadline=None)
    @given(spec=_PREFIX_DOMAINS, held_limit=st.integers(0, 12),
           limit=st.integers(0, 12), stored=st.booleans())
    def test_a_covered_limit_is_answered_as_a_fresh_scan_at_it(
            self, spec, held_limit, limit, stored):
        def scan(at):  # a twin pFSM over a new domain, each time
            return _scan_task(("model", "op", _pfsm(),
                               _prefix_domain(spec), at))

        held = scan(held_limit)
        if stored:  # the held answer as a store decodes it
            record = json.loads(dist._store_line("k", held_limit, held))
            held = dist._decode_finding(record["finding"])
        whole = scan(10 ** 6)
        total = 0 if whole is None else len(whole.witnesses)
        hit, got = dist.answer((held_limit, held), limit)
        assert hit == (limit <= held_limit
                       or 1 <= held_limit and total < held_limit)
        if not hit:
            return
        fresh = scan(limit)
        if fresh is None:
            assert got is None
            return
        assert got.witnesses == fresh.witnesses
        table, expected = got.wire_table, fresh.wire_table
        assert table.values == expected.values
        assert table.codes == expected.codes
        assert table.text == expected.text
        # The store line and the response line are a fresh scan's too.
        assert dist._store_line("k", limit, got) == \
            dist._store_line("k", limit, fresh)
        assert encode_line({"findings": [finding_payload(got)]}) == \
            encode_line({"findings": [finding_payload(fresh)]})
        if limit >= len(held.witnesses):
            assert got is held  # no slice, no copy

    def test_a_hit_at_the_held_limit_is_the_held_finding(self):
        finding = _scan_task(_task(Domain.integers(-5, 20)))
        dist.record_results([("k", 5, finding)])
        assert dist.memo_lookup("k", 5)[1] is finding
        assert dist.memo_lookup("k", 3)[1].witnesses == \
            finding.witnesses[:3]
        assert dist.memo_lookup("k", 6) == (False, None)

    def test_the_memo_keeps_the_answer_that_covers_most(self):
        whole = _scan_task(_task(Domain.integers(-5, 20), limit=50))
        assert len(whole.witnesses) == 10  # exhaustive at 50
        dist.record_results([("k", 5, whole.prefix(5))])
        dist.record_results([("k", 2, whole.prefix(2))])
        assert dist.memo_lookup("k", 5)[0]  # the smaller one kept out
        assert not dist.memo_lookup("k", 6)[0]
        dist.record_results([("k", 50, whole)])
        dist.record_results([("k", 8, whole.prefix(8))])
        hit, got = dist.memo_lookup("k", 10 ** 6)
        assert hit and got is whole


class TestTruncatedStore:
    """A crash mid-append leaves a partial trailing line; the store must
    skip it on load and heal it on the next append (satellite: truncated
    stores must not poison resume)."""

    def _truncate_tail(self, path, fragment='{"key": "partial", "findi'):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(fragment)  # no trailing newline: torn write

    def test_truncated_tail_is_skipped_on_load(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("good", 5, None)
        self._truncate_tail(path)
        assert set(store.load()) == {"good"}

    def test_truncation_counted_distinct_from_malformed(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("good", 5, None)
        self._truncate_tail(path)
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            store.load()
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert counters.get("dist.store.truncated") == 1
        assert "dist.store.malformed" not in counters

    def test_append_after_truncation_heals_the_file(self, tmp_path):
        # Without healing, the next append glues onto the partial line
        # and a *valid* record is silently swallowed.
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("good", 5, None)
        self._truncate_tail(path)
        store.record("next", 5, None)
        loaded = store.load()
        assert set(loaded) == {"good", "next"}

    def test_record_many_heals_too(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        self._truncate_tail(path, '{"key": "torn"')
        assert store.record_many([("a", 5, None), ("b", 5, None)]) == 2
        assert set(store.load()) == {"a", "b"}

    def test_heal_emits_repair_event(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("good", 5, None)
        self._truncate_tail(path)
        sink = obs.MemorySink()
        registry = obs.get_registry()
        registry.reset()
        registry.enable(sink)
        try:
            store.record("next", 5, None)
        finally:
            registry.disable()
            registry.reset()
        repaired = [e for e in sink.events
                    if e["name"] == "dist.store.truncated"]
        assert repaired and repaired[0]["attrs"]["action"] == "repaired"

    def test_clean_appends_add_no_blank_lines(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("a", 5, None)
        store.record("b", 5, None)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2 and all(lines)

    def test_appends_share_one_handle_and_check_the_tail_once(
            self, tmp_path, monkeypatch):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        checks = []
        check = store._append_prefix
        monkeypatch.setattr(store, "_append_prefix",
                            lambda handle: checks.append(1) or check(handle))
        for key in "abc":
            assert store.record(key, 5, None)
        handle = store._handle
        assert handle is not None and len(checks) == 1
        # Another writer's torn line: the size moved, so the tail is
        # checked again and healed through the same handle.
        self._truncate_tail(path)
        assert store.record_many([("d", 5, None), ("e", 5, None)]) == 2
        assert store._handle is handle and len(checks) == 2
        assert store.record("f", 5, None) and len(checks) == 2
        store.close()
        assert store._handle is None and handle.closed
        assert store.record("g", 5, None) and len(checks) == 3
        store.close()
        assert set(store.load()) == set("abcdefg")

    def test_held_handle_writes_the_bytes_of_one_open_per_append(
            self, tmp_path):
        held = ResultStore(tmp_path / "held.jsonl")
        for index, key in enumerate("abcd"):
            assert held.record_many(
                [(key, 5, None)] * (index + 1)) == index + 1
            # A fresh store per batch opens and checks the file anew.
            assert ResultStore(tmp_path / "fresh.jsonl").record_many(
                [(key, 5, None)] * (index + 1)) == index + 1
        held.close()
        assert (tmp_path / "held.jsonl").read_bytes() == \
            (tmp_path / "fresh.jsonl").read_bytes()

    def test_own_torn_write_is_healed_by_the_next_append(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        assert store.record("a", 5, None)
        with faults.injecting(
                faults.parse_spec("store.append.torn:1@max=1")):
            assert store.record_many(
                [("b", 5, None), ("c", 5, None), ("e", 5, None)]) == 0
        assert store.record("d", 5, None)
        store.close()
        assert set(store.load()) == {"a", "b", "d"}
        assert path.read_bytes().count(b"\n") == \
            len(path.read_bytes().splitlines())

    def test_empty_and_missing_files_are_not_truncated(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        assert store.load() == {}  # missing file
        open(path, "w").close()
        assert store.load() == {}  # empty file
        store.record("a", 5, None)
        assert set(store.load()) == {"a"}


class TestChunkWorker:
    def test_chunk_worker_runs_bare_pickled_tasks(self):
        tasks = [_task(Domain.integers(-5, 15), limit=4),
                 _task(Domain.of(9, 7, 6, 0), _pfsm(impl=less_equal(8)))]
        payloads = [dist._serialize_task(task) for task in tasks]
        for task, raw in zip(tasks, payloads):
            shipped = pickle.loads(raw)  # the task itself, no program
            assert len(shipped) == len(task) == 5
            assert shipped[:2] == task[:2] and shipped[4] == task[4]
        results = dist._chunk_worker(list(enumerate(payloads)))
        assert [index for index, _finding in results] == [0, 1]
        assert _witnesses([f for _index, f in results]) == \
            [(-5, -4, -3, -2), (7, 6)] == \
            _witnesses([_scan_task(task) for task in tasks])

    def test_chunk_worker_scans_inherited_tasks(self):
        tasks = [_task(Domain.integers(-5, 15), limit=4),
                 _task(Domain.of(9, 7, 6, 0), _pfsm(impl=less_equal(8)))]
        results = dist._chunk_worker([(1, b""), (0, b"")], None, tasks)
        assert [index for index, _finding in results] == [1, 0]
        assert _witnesses([f for _index, f in results]) == \
            [(7, 6), (-5, -4, -3, -2)]


class TestMemoHooks:
    """The public warm-tier hooks the analysis server reads and writes
    its results through."""

    def test_lookup_miss_then_store_then_hit(self):
        assert dist.memo_lookup("k", 5) == (False, None)
        dist.record_results([("k", 5, None)])
        assert dist.memo_lookup("k", 5) == (True, None)

    def test_none_finding_distinguished_from_miss(self):
        dist.record_results([("clean", 5, None)])
        hit, finding = dist.memo_lookup("clean", 5)
        assert hit is True and finding is None

    def test_scheduler_reuses_externally_stored_results(self):
        tasks = [_task(Domain.integers(-5, 20))]
        expected = dist.run_tasks(tasks, 1, backend="process",
                                  keys=["hook-key"])
        dist.clear_memo()
        dist.record_results([("hook-key", 5, expected[0])])
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            got = dist.run_tasks(tasks, 1, backend="process",
                                 keys=["hook-key"])
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert _witnesses(got) == _witnesses(expected)
        assert counters.get("dist.memo.hits") == 1


class TestConcurrentSweeps:
    """Thread-safety of the shared warm tier (concurrent sweeps over
    one process's memo)."""

    def test_memo_race_hammering_stays_consistent(self):
        import threading

        finding = dist.run_tasks(
            [_task(Domain.integers(-5, 20))], 1, backend="process")[0]
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                dist.record_results(
                    [(f"key-{i % 50}", 5, finding if i % 2 else None)])
                i += 1

        def reader():
            while not stop.is_set():
                for i in range(50):
                    hit, got = dist.memo_lookup(f"key-{i}", 5)
                    if hit and got is not None:
                        try:
                            assert tuple(got.witnesses) == \
                                tuple(finding.witnesses)
                        except AssertionError as exc:  # pragma: no cover
                            errors.append(exc)

        def clearer():
            while not stop.is_set():
                dist.clear_memo()

        threads = ([threading.Thread(target=writer) for _ in range(2)]
                   + [threading.Thread(target=reader) for _ in range(2)]
                   + [threading.Thread(target=clearer)])
        for t in threads:
            t.start()
        import time
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
