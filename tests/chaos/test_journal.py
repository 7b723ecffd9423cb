"""The sweep's crash-safe journal is the ``ResultStore``: a record/load
round trip of real sweep results, key scoping (a store written by
another workload resumes nothing), truncation healing, malformed-line
tolerance, and cluster-coordinator resume from the same store."""

import pytest

from repro import faults, obs
from repro.cluster import ClusterCoordinator, coordinating
from repro.core import Domain, ResultStore, dist, task_key
from repro.core.sweep import sweep_models
from repro.models import nullhttpd_model, sendmail_model, xterm_model


@pytest.fixture(autouse=True)
def _fresh_state():
    previous = faults.install(None)
    dist.clear_memo()
    yield
    faults.install(previous)
    dist.clear_memo()


def _models(*names):
    builders = {"nullhttpd": nullhttpd_model, "xterm": xterm_model}
    return ({name: builders[name].build_model() for name in names},
            {name: builders[name].pfsm_domains() for name in names})


def _flat(sweeps):
    return [(s.model_name, f.pfsm_name, tuple(f.witnesses))
            for s in sweeps for f in s.findings]


def _sweep(store, names=("nullhttpd", "xterm"), limit=4, mode="thread"):
    """One sweep resuming from ``store``; returns (flat results, counters).

    The memo is cleared first, so any reuse comes from the store."""
    models, domains = _models(*names)
    dist.clear_memo()
    registry = obs.get_registry()
    registry.reset()
    registry.enable()
    try:
        if mode == "cluster":
            # No workers join: the coordinator hands every chunk back
            # and the scheduler runs it inline.
            with ClusterCoordinator() as coordinator, \
                    coordinating(coordinator):
                sweeps = sweep_models(models, domains, limit=limit,
                                      mode="cluster", workers=2,
                                      resume_from=store)
        else:
            sweeps = sweep_models(models, domains, limit=limit, mode=mode,
                                  resume_from=store)
        counters = registry.counters()
    finally:
        registry.disable()
        registry.reset()
    return _flat(sweeps), counters


def _baseline(names=("nullhttpd", "xterm"), limit=4):
    models, domains = _models(*names)
    return _flat(sweep_models(models, domains, limit=limit))


class TestJobDigest:
    def test_digest_is_stable_and_content_sensitive(self):
        model = sendmail_model.build_model()
        domains = sendmail_model.pfsm_domains()
        operation = model.operations[0]
        pfsm = operation.pfsms[0]
        task = (model.name, operation.name, pfsm, domains[pfsm.name], 5)
        key = task_key(model, task)
        # Stable over the same workload (what a restarted sweep
        # recomputes from identical inputs) ...
        assert key is not None
        assert key == task_key(model, tuple(task))
        # ... and sensitive to the scanned domain's contents.
        wider = (model.name, operation.name, pfsm,
                 Domain.integers(0, 20), 5)
        narrower = (model.name, operation.name, pfsm,
                    Domain.integers(0, 25), 5)
        assert task_key(model, wider) != task_key(model, narrower)
        assert key not in {task_key(model, wider),
                           task_key(model, narrower)}


class TestRecordLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        expected = _baseline()
        got, counters = _sweep(str(path))
        assert got == expected
        stored = ResultStore(path).load()
        assert len(stored) == counters["sweep.tasks.completed"]
        findings = [(f.model_name, f.pfsm_name, tuple(f.witnesses))
                    for _limit, f in stored.values() if f is not None]
        # Witnesses may be unhashable records: compare as sorted reprs.
        assert sorted(map(repr, findings)) == sorted(map(repr, expected))

    def test_load_missing_file_is_empty(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        assert ResultStore(path).load() == {}
        assert not path.exists()  # loading never creates the file

    def test_other_jobs_records_are_ignored(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        _, first = _sweep(path, names=("nullhttpd",))
        _, second = _sweep(path, names=("xterm",))
        # Each workload's records are invisible to the other ...
        assert "dist.resume.skips" not in second
        # ... and each resumes exactly its own from the shared store.
        _, again_first = _sweep(path, names=("nullhttpd",))
        _, again_second = _sweep(path, names=("xterm",))
        assert again_first["dist.resume.skips"] == \
            first["sweep.tasks.completed"]
        assert again_second["dist.resume.skips"] == \
            second["sweep.tasks.completed"]

    def test_truncated_tail_is_skipped_and_healed(self, tmp_path):
        path = tmp_path / "j.jsonl"
        expected = _baseline()
        _, first = _sweep(str(path))
        total = first["sweep.tasks.completed"]
        # A crash mid-append: the last record loses its second half.
        raw = path.read_text()
        last_start = raw.rstrip("\n").rfind("\n") + 1
        path.write_text(raw[:last_start + (len(raw) - last_start) // 2])
        assert len(ResultStore(path).load()) == total - 1
        got, counters = _sweep(str(path))
        assert got == expected
        assert counters["dist.resume.skips"] == total - 1
        assert counters["sweep.tasks.completed"] == 1
        # The append healed the file; everything is then readable.
        assert path.read_text().endswith("\n")
        assert len(ResultStore(path).load()) == total

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        expected = _baseline()
        _, first = _sweep(str(path))
        total = first["sweep.tasks.completed"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
            handle.write('{"finding": null}\n')
            handle.write('{"key": "k", "finding": {"model_name": "m"}}\n')
        assert len(ResultStore(path).load()) == total
        got, counters = _sweep(str(path))
        assert got == expected
        assert counters["dist.resume.skips"] == total
        assert "sweep.tasks.completed" not in counters


class TestCoordinatorResume:
    def test_journal_of_different_job_is_ignored(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        _sweep(path, names=("nullhttpd",), mode="cluster")
        got, counters = _sweep(path, names=("xterm",), mode="cluster")
        assert got == _baseline(names=("xterm",))
        assert "dist.resume.skips" not in counters
        assert counters["dist.inline.unplaced"] >= 1
        assert counters["dist.store.appended"] == \
            counters["sweep.tasks.completed"]
