"""The server's result cache is the scheduler's own: reads go through
``dist.memo_lookup``, each batch's writes through ``dist.record_results``
(the memo plus an optional JSONL store shared with ``repro sweep``)."""

import gc

import pytest

from repro.core import dist
from repro.core.sweep import SweepFinding, sweep_models
from repro.serve import MicroBatcher, ServeClient, ServeConfig, ServerThread
from repro.serve.corpus import AnalysisCorpus
from repro.serve.stats import ServeStats


@pytest.fixture(autouse=True)
def _fresh_scheduler():
    dist.clear_memo()
    yield
    dist.clear_memo()


def _one_model_corpus():
    """``(corpus, spec)``: one model whose pFSM checks ``spec``."""
    from repro.core import (Domain, Operation, PrimitiveFSM,
                            VulnerabilityModel, in_range, less_equal)

    spec = in_range(0, 5)
    pfsm = PrimitiveFSM("p", "scan", "x", spec_accepts=spec,
                        impl_accepts=less_equal(10))
    model = VulnerabilityModel("m", [Operation("op", "x", [pfsm])])
    corpus = AnalysisCorpus(
        models={"m-label": model},
        domains={"m-label": {"p": Domain.integers(-5, 15)}},
        keys={"m": "m-label"},
    )
    return corpus, spec


def _finding(tag="w"):
    return SweepFinding(model_name="M", operation_name="op",
                        pfsm_name="p", activity="scan", witnesses=(tag,))


def _live_findings():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, SweepFinding))


class TestResultMemo:
    def test_none_finding_is_a_hit_not_a_miss(self):
        # "Scanned, clean" must be cacheable — a None result is not
        # the same as never having computed.
        dist.record_results([("clean", 5, None)])
        assert dist.memo_lookup("clean", 5) == (True, None)

    def test_shared_between_serve_and_sweep(self):
        # A batch's results are the scheduler's memo entries, and a
        # result the scheduler memoized answers the server's fast path.
        corpus, _spec = _one_model_corpus()
        stats = ServeStats()
        batcher = MicroBatcher(stats)
        computed = batcher.submit(corpus.expand("m", 5))
        assert computed["cached"] is False and computed["vulnerable"]
        key = corpus.expand("m", 5).task_keys[0]
        hit, finding = dist.memo_lookup(key, 5)
        assert hit and finding.witnesses

        other = corpus.expand("m", 6)
        assert other.task_keys[0] == key  # one key at every limit
        dist.clear_memo()
        dist.record_results([(key, 6, _finding("sweep"))])
        answered = batcher.submit(other)
        assert answered["cached"] is True
        assert answered["findings"][0]["witnesses"] == {
            "values": ["sweep"], "codes": [0]}
        counters = stats.snapshot()["counters"]
        assert counters["cache.memo_hits"] == 1
        assert counters["batches"] == 1


class TestStoreWrites:
    def test_batch_appends_its_results_to_the_store(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        corpus, _spec = _one_model_corpus()
        batcher = MicroBatcher(ServeStats(), store=dist.ResultStore(path))
        query = corpus.expand("m", 5)
        batcher.submit(query)
        loaded = dist.ResultStore(path).load()
        assert set(loaded) == set(query.task_keys)
        assert loaded[query.task_keys[0]] == (5, dist.memo_lookup(
            query.task_keys[0], 5)[1])

    def test_duplicate_write_is_harmless(self, tmp_path):
        # A key evicted from the memo is recomputed and appended again:
        # of records that answer the same limits, the store keeps the
        # last one per key.
        path = str(tmp_path / "results.jsonl")
        store = dist.ResultStore(path)
        dist.record_results([("k1", 1, _finding("old"))], store)
        dist.record_results([("k1", 1, _finding("new"))], store)
        assert dist.memo_lookup("k1", 1) == (True, _finding("new"))
        loaded = store.load()
        assert set(loaded) == {"k1"}
        assert loaded["k1"] == (1, _finding("new"))

    def test_server_loads_the_store_into_the_memo(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        dist.record_results([("k1", 1, _finding()), ("k2", 1, None)],
                            dist.ResultStore(path))
        dist.clear_memo()
        handle = ServerThread(ServeConfig(port=0, store_path=path)).start()
        try:
            assert dist.memo_lookup("k1", 1)[1].witnesses == ("w",)
            assert dist.memo_lookup("k2", 1) == (True, None)
        finally:
            handle.shutdown()

    def test_store_larger_than_the_memo_loads_its_latest_keys(
            self, tmp_path):
        # The memo is the only in-process tier: a store holding more
        # keys than the memo bound answers only its most recent ones.
        path = str(tmp_path / "results.jsonl")
        extra = 16
        keys = [f"k{i}" for i in range(dist._MEMO_MAX + extra)]
        dist.record_results([(key, 1, None) for key in keys],
                            dist.ResultStore(path))
        dist.clear_memo()
        handle = ServerThread(ServeConfig(port=0, store_path=path)).start()
        try:
            assert len(dist._RESULT_MEMO) == dist._MEMO_MAX
            assert all(dist.memo_lookup(key, 1) == (False, None)
                       for key in keys[:extra])
            assert all(dist.memo_lookup(key, 1) == (True, None)
                       for key in keys[extra:])
        finally:
            handle.shutdown()
        assert set(dist.ResultStore(path).load()) == set(keys)

    def test_results_reach_the_store_before_drain(self, tmp_path):
        # Each batch appends as it lands, so a running server's store
        # already answers a restarted server without any batch.
        path = str(tmp_path / "results.jsonl")
        first = ServerThread(ServeConfig(port=0, store_path=path)).start()
        try:
            with ServeClient(first.host, first.port) as client:
                computed = client.query("sendmail", limit=5)
            assert computed["status"] == "ok" and not computed["cached"]
            stored = dist.ResultStore(path).load()
            assert stored
            # Appends go through one held handle, closed on drain.
            assert first.server.store._handle is not None
        finally:
            first.shutdown()
        assert first.server.store._handle is None
        assert dist.ResultStore(path).load() == stored

        dist.clear_memo()
        second = ServerThread(ServeConfig(port=0, store_path=path)).start()
        try:
            with ServeClient(second.host, second.port) as client:
                answered = client.query("sendmail", limit=5)
                counters = client.metrics()["counters"]
        finally:
            second.shutdown()
        assert answered["cached"] is True
        assert answered["findings"] == computed["findings"]
        assert "batches" not in counters

    def test_keyless_tasks_compute_and_are_never_stored(self, tmp_path):
        # A task with no stable identity has no key to look up or to
        # write: it computes on every request and never reaches the
        # memo or the store.
        corpus, spec = _one_model_corpus()
        spec.rebind(lambda x: x <= 5)  # opaque: no cache key
        query = corpus.expand("m", 5)
        assert list(query.task_keys) == [None]
        path = str(tmp_path / "results.jsonl")
        stats = ServeStats()
        batcher = MicroBatcher(stats, store=dist.ResultStore(path))
        for _ in range(2):
            response = batcher.submit(query)
            assert response["status"] == "ok" and not response["cached"]
        counters = stats.snapshot()["counters"]
        assert counters["batches"] == 2
        assert "cache.memo_hits" not in counters
        assert "cache.misses" not in counters
        assert len(dist._RESULT_MEMO) == 0
        assert dist.ResultStore(path).load() == {}


class TestMemoBound:
    def test_store_backed_batcher_keeps_one_answer_for_every_limit(
            self, tmp_path):
        # Every limit is the same task key: one held answer serves them
        # all, and no finding cut for a response outlives it.
        corpus, _spec = _one_model_corpus()
        stats = ServeStats()
        batcher = MicroBatcher(
            stats, store=dist.ResultStore(str(tmp_path / "r.jsonl")))
        before = _live_findings()
        for limit in range(1, dist._MEMO_MAX + 512 + 1):
            response = batcher.submit(corpus.expand("m", limit))
            assert response["vulnerable"], response
        assert len(dist._RESULT_MEMO) == 1
        assert _live_findings() - before <= 1
        # The domain holds 10 witnesses: limits 1 to 11 compute (11 is
        # the first exhaustive answer), every later one is cut from it.
        assert stats.snapshot()["counters"]["batches"] == 11


class TestMutatedModelStaleness:
    """A model mutated in place must not keep serving pre-mutation
    results through the expansion memo and the result memo."""

    def test_rebind_changes_fingerprint_and_task_keys(self):
        corpus, spec = _one_model_corpus()
        first = corpus.expand("m", 5)
        # memoized while unchanged
        assert first.task_keys is corpus.expand("m", 5).task_keys
        assert first.task_keys[0] is not None

        from repro.core.sweep import _scan_task
        stale = _scan_task(first.tasks[0])
        assert stale is not None  # (0..5 spec) x (<=10 impl): hidden
        dist.record_results([(first.task_keys[0], 5, stale)])

        spec.rebind(lambda x: True)  # secure the check: spec = accept all
        second = corpus.expand("m", 5)
        assert second.task_keys is not first.task_keys
        assert second.fingerprint != first.fingerprint
        # The rebound predicate is opaque: no stable identity, so the
        # stale cached finding is unreachable and the task recomputes.
        assert second.task_keys[0] is None
        assert _scan_task(second.tasks[0]) is None  # nothing hidden now



class TestExpansionMemo:
    def test_one_expansion_per_model_serves_every_limit(self):
        corpus, _spec = _one_model_corpus()
        first = corpus.expand("m", 5)
        for limit in range(0, 2_000):
            query = corpus.expand("m", limit)
            assert query.limit == limit
            assert [task[4] for task in query.tasks] == [limit]
            assert query.task_keys is first.task_keys
            assert query.fingerprint == ("m", limit, first.fingerprint[2])
        assert list(corpus._expanded) == ["m"]

    def test_concurrent_expansions_agree(self):
        import sys
        import threading

        corpus, _spec = _one_model_corpus()
        keys = corpus.expand("m", 1).task_keys
        errors = []

        def hammer(offset):
            try:
                for i in range(1_000):
                    limit = 1 + (offset * 97 + i) % 2_000
                    query = corpus.expand("m", limit)
                    assert query.limit == limit
                    assert query.task_keys == keys
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert list(corpus._expanded) == ["m"]


class TestCorpusKeys:
    @pytest.mark.parametrize("limit", [0, 1, 7, 1000])
    def test_task_keys_equal_dist_task_key_for_every_bundled_model(
            self, limit):
        # The server's store is resumed by `repro sweep`, which keys
        # tasks with dist.task_key: the two must agree everywhere.
        from repro.serve import MODEL_KEYS
        from repro.serve.corpus import AnalysisCorpus

        corpus = AnalysisCorpus()
        for key, label in MODEL_KEYS.items():
            query = corpus.expand(key, limit)
            model = corpus._models[label]
            assert query.tasks, key
            assert list(query.task_keys) == \
                [dist.task_key(model, task) for task in query.tasks], key
            assert all(task[4] == limit for task in query.tasks)


class TestStoreInterop:
    def test_stored_lines_resume_a_sweep(self, tmp_path):
        # A store the server wrote is a valid --resume-from store.
        path = str(tmp_path / "results.jsonl")
        handle = ServerThread(ServeConfig(port=0, store_path=path)).start()
        try:
            with ServeClient(handle.host, handle.port) as client:
                assert client.query("sendmail", limit=5)["status"] == "ok"
        finally:
            handle.shutdown()
        stored = dist.ResultStore(path).load()
        assert stored

        from repro import obs
        from repro.models import (all_extended_models,
                                  all_extended_pfsm_domains)

        dist.clear_memo()
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            resumed = sweep_models(all_extended_models(),
                                   all_extended_pfsm_domains(), limit=5,
                                   resume_from=path)
            counters = registry.counters()
        finally:
            registry.disable()
            registry.reset()
        assert counters["dist.resume.skips"] == len(stored)
        fresh = sweep_models(all_extended_models(),
                             all_extended_pfsm_domains(), limit=5)
        assert resumed == fresh

    def test_sweep_store_answers_a_fresh_server_from_the_memo(
            self, tmp_path):
        # The reverse direction: a `repro sweep --resume-from` store
        # answers every query of a fresh server without a batch.
        from repro.models import (all_extended_models,
                                  all_extended_pfsm_domains)
        from repro.serve import MODEL_KEYS

        path = str(tmp_path / "sweep.jsonl")
        sweep_models(all_extended_models(), all_extended_pfsm_domains(),
                     limit=5, resume_from=path)
        dist.clear_memo()
        handle = ServerThread(ServeConfig(port=0, store_path=path)).start()
        try:
            with ServeClient(handle.host, handle.port) as client:
                for key in MODEL_KEYS:
                    response = client.query(key, limit=5)
                    assert response["status"] == "ok", response
                    assert response["cached"] is True, response
                counters = client.metrics()["counters"]
        finally:
            handle.shutdown()
        assert counters["cache.memo_hits"] == 28
        assert "batches" not in counters
        assert counters["requests.cached"] == len(MODEL_KEYS)
