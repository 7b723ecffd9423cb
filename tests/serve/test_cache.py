"""The tiered result cache: memo over JSONL store, shared with dist."""

import pytest

from repro.core import dist
from repro.core.sweep import SweepFinding
from repro.serve import TieredResultCache
from repro.serve.stats import ServeStats


@pytest.fixture(autouse=True)
def _fresh_scheduler():
    dist.reset()
    yield
    dist.reset()


def _finding(tag="w"):
    return SweepFinding(model_name="M", operation_name="op",
                        pfsm_name="p", activity="scan", witnesses=(tag,))


class TestMemoTier:
    def test_insert_then_memo_hit(self):
        cache = TieredResultCache()
        assert cache.lookup("k1") == (None, None)
        finding = _finding()
        cache.insert("k1", finding)
        assert cache.lookup("k1") == ("memo", finding)

    def test_none_finding_is_a_hit_not_a_miss(self):
        # "Scanned, clean" must be cacheable — a None result is not
        # the same as never having computed.
        cache = TieredResultCache()
        cache.insert("clean", None)
        assert cache.lookup("clean") == ("memo", None)

    def test_shared_with_dist_memo(self):
        # The warm tier IS the scheduler's memo: results installed by
        # either side are visible to the other.
        cache = TieredResultCache()
        finding = _finding()
        dist.memo_store("shared", finding)
        assert cache.lookup("shared") == ("memo", finding)
        cache.insert("mine", finding)
        assert dist.memo_lookup("mine") == (True, finding)

    def test_none_key_misses(self):
        assert TieredResultCache().lookup(None) == (None, None)


class TestStoreTier:
    def test_flush_persists_and_reloads(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        cache = TieredResultCache(path)
        finding = _finding()
        cache.insert("k1", finding)
        cache.insert("k2", None)
        assert cache.flush() == 2
        assert cache.flush() == 0  # buffer drained

        dist.clear_memo()
        reloaded = TieredResultCache(path)
        assert reloaded.store_keys == 2
        tier, got = reloaded.lookup("k1")
        assert tier == "store"
        assert got.witnesses == finding.witnesses

    def test_store_hit_promotes_to_memo(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        cache = TieredResultCache(path)
        cache.insert("k1", _finding())
        cache.flush()

        dist.clear_memo()
        warm = TieredResultCache(path)
        assert warm.lookup("k1")[0] == "store"
        assert warm.lookup("k1")[0] == "memo"  # promoted

    def test_duplicate_insert_not_rewritten(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        cache = TieredResultCache(path)
        cache.insert("k1", _finding())
        cache.insert("k1", _finding())
        assert cache.flush() == 1

    def test_flush_counts_to_stats(self, tmp_path):
        stats = ServeStats()
        cache = TieredResultCache(str(tmp_path / "r.jsonl"), stats=stats)
        cache.insert("k1", _finding())
        cache.flush()
        assert stats.snapshot()["counters"]["cache.flushed"] == 1

    def test_storeless_cache_flush_is_noop(self):
        cache = TieredResultCache()
        cache.insert("k1", _finding())
        assert cache.flush() == 0
        assert cache.store_keys == 0

class TestInvalidation:
    def test_invalidate_evicts_registered_keys(self):
        cache = TieredResultCache()
        cache.register("m", ("k1", None, "k2"))
        cache.insert("k1", _finding())
        cache.insert("k2", None)
        assert cache.invalidate("m") == 2
        assert cache.lookup("k1") == (None, None)
        assert cache.lookup("k2") == (None, None)
        assert cache.invalidate("m") == 0  # registration consumed

    def test_invalidate_drops_buffered_store_appends(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        cache = TieredResultCache(path)
        cache.register("m", ("k1",))
        cache.insert("k1", _finding())
        cache.insert("other", _finding("o"))
        assert cache.invalidate("m") == 1
        assert cache.flush() == 1  # only the unaffected record persists
        assert set(dist.ResultStore(path).load()) == {"other"}

    def test_invalidate_counts_to_stats(self):
        stats = ServeStats()
        cache = TieredResultCache(stats=stats)
        cache.register("m", ("k1",))
        cache.insert("k1", _finding())
        cache.invalidate("m")
        assert stats.snapshot()["counters"]["cache.invalidated"] == 1


class TestMutatedModelStaleness:
    """A model mutated in place must not keep serving pre-mutation
    results through the expansion memo and the tiered cache."""

    def _corpus_and_model(self):
        from repro.core import (Domain, Operation, PrimitiveFSM,
                                VulnerabilityModel, in_range, less_equal)
        from repro.serve.corpus import AnalysisCorpus

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

    def test_rebind_changes_fingerprint_and_task_keys(self):
        corpus, spec = self._corpus_and_model()
        first = corpus.expand("m", 5)
        assert first is corpus.expand("m", 5)  # memoized while unchanged
        assert first.task_keys[0] is not None

        from repro.core.sweep import _scan_task
        cache = TieredResultCache()
        cache.register("m", first.task_keys)
        stale = _scan_task(first.tasks[0])
        assert stale is not None  # (0..5 spec) x (<=10 impl): hidden
        cache.insert(first.task_keys[0], stale)

        spec.rebind(lambda x: True)  # secure the check: spec = accept all
        second = corpus.expand("m", 5)
        assert second is not first
        assert second.fingerprint != first.fingerprint
        # The rebound predicate is opaque: no stable identity, so the
        # stale cached finding is unreachable and the task recomputes.
        assert second.task_keys[0] is None
        assert _scan_task(second.tasks[0]) is None  # nothing hidden now

    def test_corpus_invalidate_drops_memoized_expansions(self):
        corpus, _spec = self._corpus_and_model()
        corpus.expand("m", 5)
        corpus.expand("m", 9)
        assert corpus.invalidate("m") == 2
        assert corpus.invalidate("m") == 0

    def test_invalidate_drops_the_key_stems_too(self):
        # A replaced domain leaves the mutation stamp as it was: only
        # invalidate() makes a new limit see it.
        from repro.core import Domain

        corpus, _spec = self._corpus_and_model()
        first = corpus.expand("m", 5)
        domain = Domain.integers(-9, 30)
        corpus._domains["m-label"]["p"] = domain
        assert corpus.invalidate("m") == 1
        second = corpus.expand("m", 5)
        assert second.tasks[0][3] is domain
        assert second.task_keys != first.task_keys
        assert second.task_keys[0] == dist.task_key(
            corpus._models["m-label"], second.tasks[0])


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
    def test_interoperates_with_sweep_resume_store(self, tmp_path):
        # A store the server wrote is a valid --resume-from store.
        path = str(tmp_path / "results.jsonl")
        cache = TieredResultCache(path)
        cache.insert("k1", _finding())
        cache.flush()
        loaded = dist.ResultStore(path).load()
        assert set(loaded) == {"k1"}
        assert loaded["k1"].witnesses == ("w",)
