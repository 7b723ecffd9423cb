"""The distributed sweep scheduler: chunking, backend parity, the
fingerprint memo, crash recovery, backend validation, and JSONL resume."""

import json
import os
import threading

import pytest

from repro import faults, obs
from repro.cluster import ClusterCoordinator, ClusterWorker, coordinating
from repro.core import (
    Domain,
    PrimitiveFSM,
    ResultStore,
    SweepFinding,
    domain_digest,
    in_range,
    less_equal,
    named_predicate,
    sweep_models,
    task_key,
)
from repro.core import dist
from repro.core.predspec import encode_value
from repro.models import sendmail_model

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
    dist.reset()
    yield
    dist.reset()


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

    def test_unpicklable_task_runs_inline(self, backend):
        from repro.core import Predicate
        opaque = _pfsm(spec=Predicate(lambda x: 0 <= x <= 5, "opaque"))
        tasks = [_task(Domain.integers(-5, 20), pfsm=opaque)]
        from repro.core.sweep import _scan_task
        expected = [_scan_task(t) for t in tasks]
        got = dist.run_tasks(tasks, 2, backend=backend)
        assert _witnesses(got) == _witnesses(expected)

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
        assert "cluster.chunks.inline" not in counters

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


class TestLocalWorkers:
    def test_worker_crash_is_reclaimed_then_run_inline(self):
        tasks = [_task(Domain.integers(-5, 20), pfsm=_pfsm(spec=crashy))]
        got, counters = _counting(
            lambda: dist.run_tasks(tasks, 2, backend="process"))
        # Hidden path: spec rejects (outside 0..5), impl accepts (<=10).
        assert got[0] is not None
        assert counters.get("cluster.chunks.reclaimed", 0) >= 1
        assert counters.get("cluster.chunks.inline", 0) >= 1

    def test_memo_only_sweep_forks_no_worker(self):
        tasks = [_task(Domain.integers(-5, 20))]
        dist.run_tasks(tasks, 2, backend="process", keys=["k"])
        _, counters = _counting(
            lambda: dist.run_tasks(tasks, 2, backend="process",
                                   keys=["k"]))
        assert counters.get("dist.memo.hits") == 1
        assert "cluster.workers.joined" not in counters


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

    def test_backend_kwarg_is_an_alias_for_mode(self):
        from repro.models import wuftpd_model

        models = {"sendmail": sendmail_model.build_model(),
                  "wuftpd": wuftpd_model.build_model()}
        domains = {"sendmail": sendmail_model.pfsm_domains(),
                   "wuftpd": wuftpd_model.pfsm_domains()}
        expected = _flat(sweep_models(models, domains, limit=3,
                                      mode="thread"))
        assert _flat(sweep_models(models, domains, limit=3,
                                  backend="thread")) == expected

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
        assert [tuple(loaded[k].witnesses) for k in keys[:5]] == \
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
                store.record_many([(f"{prefix}{batch}.{n}", finding)
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
        store.record("k", None)
        store.record("k", finding)
        loaded = store.load()
        assert tuple(loaded["k"].witnesses) == tuple(finding.witnesses)

    def test_lines_match_a_per_witness_encoding(self, tmp_path):
        tile = [(1, "a"), b"\x00\xff", frozenset({3, 4})]
        finding = SweepFinding(
            model_name="model", operation_name="op", pfsm_name="p",
            activity="scan", witnesses=tuple(tile * 3),
        )
        store = ResultStore(tmp_path / "results.jsonl")
        assert store.record("k", finding) is True
        reference = json.dumps({"key": "k", "finding": {
            "model_name": "model", "operation_name": "op",
            "pfsm_name": "p", "activity": "scan",
            "witnesses": [encode_value(w) for w in finding.witnesses],
        }}, separators=(",", ":")) + "\n"
        with open(store.path, encoding="utf-8") as handle:
            assert handle.read() == reference
        assert store.load() == {"k": finding}

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
                "witnesses": [encode_value(w) for w in finding.witnesses],
            })):
                handle.write(json.dumps({"key": key, "finding": payload})
                             + "\n")
        store = ResultStore(path)
        assert store.load() == {"clean": None, "k": finding}
        compact = tmp_path / "compact.jsonl"
        ResultStore(compact).record_many([("clean", None), ("k", finding)])
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
            assert store.record("k", finding) is False
            assert store.record_many([("k", finding), ("c", None)]) == 1
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert counters.get("dist.store.unencodable") == 2
        assert store.load() == {"c": None}

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("good", None)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        assert set(store.load()) == {"good"}

    def test_torn_write_degrades_and_stays_loadable(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        with faults.injecting(
                faults.parse_spec("store.append.torn:1@max=1")):
            assert store.record_many(
                [("a", None), ("b", None), ("c", None)]) == 0
        assert store.write_errors == 1
        # Half the blob landed: the whole first line, then a torn one.
        assert not open(store.path).read().endswith("\n")
        assert store.load() == {"a": None}
        assert store.record("d", None)  # the next append heals the tail
        assert store.load() == {"a": None, "d": None}

    def test_enospc_counts_a_write_error(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            with faults.injecting(
                    faults.parse_spec("store.append.enospc:1@max=1")):
                assert store.record("k", None) is False
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
    def test_resume_skips_known_tasks_and_matches(self, tmp_path):
        store_path = str(tmp_path / "resume.jsonl")
        models = {"sendmail": sendmail_model.build_model()}
        domains = {"sendmail": sendmail_model.pfsm_domains()}
        baseline = sweep_models(models, domains, limit=4)

        first = sweep_models(models, domains, limit=4,
                             resume_from=store_path)
        recorded = sum(1 for line in open(store_path) if line.strip())
        assert recorded > 0

        dist.reset()  # reuse must come from the store, not the memo
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

    def test_limit_changes_the_key(self):
        model = sendmail_model.build_model()
        domains = sendmail_model.pfsm_domains()
        op = model.operations[0]
        pfsm = op.pfsms[0]
        base = (model.name, op.name, pfsm, domains[pfsm.name], 5)
        other = (model.name, op.name, pfsm, domains[pfsm.name], 6)
        assert task_key(model, base) != task_key(model, other)


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
        store.record("good", None)
        self._truncate_tail(path)
        assert set(store.load()) == {"good"}

    def test_truncation_counted_distinct_from_malformed(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("good", None)
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
        store.record("good", None)
        self._truncate_tail(path)
        store.record("next", None)
        loaded = store.load()
        assert set(loaded) == {"good", "next"}

    def test_record_many_heals_too(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        self._truncate_tail(path, '{"key": "torn"')
        assert store.record_many([("a", None), ("b", None)]) == 2
        assert set(store.load()) == {"a", "b"}

    def test_heal_emits_repair_event(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("good", None)
        self._truncate_tail(path)
        sink = obs.MemorySink()
        registry = obs.get_registry()
        registry.reset()
        registry.enable(sink)
        try:
            store.record("next", None)
        finally:
            registry.disable()
            registry.reset()
        repaired = [e for e in sink.events
                    if e["name"] == "dist.store.truncated"]
        assert repaired and repaired[0]["attrs"]["action"] == "repaired"

    def test_clean_appends_add_no_blank_lines(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.record("a", None)
        store.record("b", None)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2 and all(lines)

    def test_empty_and_missing_files_are_not_truncated(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        assert store.load() == {}  # missing file
        open(path, "w").close()
        assert store.load() == {}  # empty file
        store.record("a", None)
        assert set(store.load()) == {"a"}


class TestMemoHooks:
    """The public warm-tier hooks the serve cache layers on."""

    def test_lookup_miss_then_store_then_hit(self):
        assert dist.memo_lookup("k") == (False, None)
        dist.memo_store("k", None)
        assert dist.memo_lookup("k") == (True, None)

    def test_none_finding_distinguished_from_miss(self):
        dist.memo_store("clean", None)
        hit, finding = dist.memo_lookup("clean")
        assert hit is True and finding is None

    def test_scheduler_reuses_externally_stored_results(self):
        tasks = [_task(Domain.integers(-5, 20))]
        expected = dist.run_tasks(tasks, 1, backend="process",
                                  keys=["hook-key"])
        dist.clear_memo()
        dist.memo_store("hook-key", expected[0])
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
                dist.memo_store(f"key-{i % 50}", finding if i % 2 else None)
                i += 1

        def reader():
            while not stop.is_set():
                for i in range(50):
                    hit, got = dist.memo_lookup(f"key-{i}")
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


class TestSharedDomainShipping:
    """Zero-copy column transfer: one export per domain, counters, and
    bit-equal results with sharing on or off."""

    @staticmethod
    def _big_domain(n=4000):
        return Domain([{"size": i % 97, "name": "x" * (i % 7)}
                       for i in range(n)])

    @staticmethod
    def _record_pfsm():
        from repro.core import attr, length_le, satisfies_all, truthy

        return PrimitiveFSM(
            "p", "scan", "x",
            spec_accepts=satisfies_all(attr("size", in_range(0, 40)),
                                       attr("name", length_le(3))),
            impl_accepts=attr("size", less_equal(90)))

    def test_process_backend_ships_columns_and_matches_inline(self):
        from repro.core import columnar

        if not columnar.shm_supported():
            pytest.skip("no shared memory on this platform")
        domain = self._big_domain()
        tasks = [_task(domain, pfsm=self._record_pfsm(), limit=7),
                 _task(domain, pfsm=self._record_pfsm(), limit=3)]
        previous = dist.set_shm_enabled(False)
        try:
            baseline = _witnesses(dist.run_tasks(tasks, 2,
                                                 backend="process"))
        finally:
            dist.set_shm_enabled(previous)
        sink = obs.MemorySink()
        registry = obs.get_registry()
        registry.reset()
        registry.enable(sink)
        try:
            shared = _witnesses(dist.run_tasks(tasks, 2,
                                               backend="process"))
            counters = registry.counters()
        finally:
            registry.disable()
            registry.clear_sinks()
            registry.reset()
        assert shared == baseline
        assert counters.get("dist.shm.segments") == 1
        assert counters.get("dist.shm.tasks") == 2
        assert counters.get("dist.shm.bytes_saved", 0) > 0
        # ≥10x: each shipped task payload shrinks by an order of
        # magnitude against the pickled original.
        original = len(dist._serialize_task(tasks[0]))
        saved_per_task = counters["dist.shm.bytes_saved"] // 2
        substituted = original - saved_per_task
        assert original >= 10 * substituted

    def test_exporter_keeps_no_attachment_after_a_sweep(self):
        # The exporting process primes its attachment cache with each
        # segment's owning handle; closing the export must drop it, or
        # the cache grows one unlinked segment per sweep.
        from repro.core import columnar

        if not columnar.shm_supported():
            pytest.skip("no shared memory on this platform")
        columnar.release_attachments()
        for n in range(3):
            domain = self._big_domain(4000 + n)
            tasks = [_task(domain, pfsm=self._record_pfsm(), limit=5)]
            _, counters = _counting(
                lambda: dist.run_tasks(tasks, 2, backend="process"))
            assert counters.get("dist.shm.segments") == 1
            assert not columnar._ATTACHED

    def test_shm_disabled_leaves_counters_silent(self):
        domain = self._big_domain(1000)
        tasks = [_task(domain, pfsm=self._record_pfsm(), limit=5)]
        previous = dist.set_shm_enabled(False)
        sink = obs.MemorySink()
        registry = obs.get_registry()
        registry.reset()
        registry.enable(sink)
        try:
            results = dist.run_tasks(tasks, 2, backend="process")
            counters = registry.counters()
        finally:
            registry.disable()
            registry.clear_sinks()
            registry.reset()
            dist.set_shm_enabled(previous)
        assert results[0] is not None
        assert not any(k.startswith("dist.shm.") for k in counters)

    def test_small_domains_are_not_exported(self):
        domain = Domain([{"size": 50 + i, "name": "y"} for i in range(10)])
        tasks = [_task(domain, pfsm=self._record_pfsm(), limit=5)]
        sink = obs.MemorySink()
        registry = obs.get_registry()
        registry.reset()
        registry.enable(sink)
        try:
            results = dist.run_tasks(tasks, 2, backend="process")
            counters = registry.counters()
        finally:
            registry.disable()
            registry.clear_sinks()
            registry.reset()
        assert results[0] is not None
        assert "dist.shm.segments" not in counters
