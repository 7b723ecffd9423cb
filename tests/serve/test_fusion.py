"""Sub-predicate batch fusion in the micro-batcher's thread dispatch:
same-domain compiled tasks share one pass and one CSE memo, and the
fused results are exactly what per-task dispatch would produce."""

import threading

import pytest

from repro import obs
from repro.core import (
    Domain,
    Predicate,
    PrimitiveFSM,
    contains,
    in_range,
    is_instance,
    length_le,
    less_equal,
    not_contains,
    satisfies_all,
)
from repro.core import plan
from repro.core.sweep import _run_tasks
from repro.serve.batcher import _engine_compute, _fusion_groups


@pytest.fixture(autouse=True)
def _fresh_planner():
    plan.reset()
    yield
    plan.reset()


def _witnesses(results):
    return [tuple(r.witnesses) if r is not None else None for r in results]


def _string_tasks(domain, limit=5):
    def shared():
        return satisfies_all(is_instance(str), length_le(64),
                             not_contains("%n"))

    pfsms = [
        PrimitiveFSM("pa", "scan", "x",
                     spec_accepts=satisfies_all(shared(),
                                                not_contains("%s")),
                     impl_accepts=length_le(200)),
        PrimitiveFSM("pb", "scan", "x",
                     spec_accepts=satisfies_all(shared(), contains("/")),
                     impl_accepts=length_le(200)),
        PrimitiveFSM("pc", "scan", "x", spec_accepts=shared(),
                     impl_accepts=length_le(120)),
    ]
    return [("m", "op", p, domain, limit) for p in pfsms]


class TestFusionGrouping:
    def test_same_domain_compiled_tasks_group(self):
        domain = Domain(["ok", "%n" * 40, "x" * 100, "a/b"] * 5)
        tasks = _string_tasks(domain)
        groups, programs = _fusion_groups(tasks)
        assert groups == [[0, 1, 2]]
        assert set(programs) == {0, 1, 2}

    def test_distinct_domains_do_not_group(self):
        d1 = Domain(["ok", "%n" * 40])
        d2 = Domain(["a/b", "x" * 100])
        tasks = _string_tasks(d1)[:1] + _string_tasks(d2)[1:2]
        groups, _programs = _fusion_groups(tasks)
        assert groups == []  # singleton digests never fuse

    def test_interval_fastpath_tasks_stay_out(self):
        pfsm = PrimitiveFSM("pi", "scan", "x", spec_accepts=in_range(0, 5),
                            impl_accepts=less_equal(10))
        domain = Domain.integers(-5, 15)
        tasks = [("m", "op", pfsm, domain, 5)] * 2
        groups, _programs = _fusion_groups(tasks)
        assert groups == []

    def test_disabled_planner_never_fuses(self):
        domain = Domain(["ok", "%n" * 40] * 3)
        with plan.disabled():
            groups, programs = _fusion_groups(_string_tasks(domain))
        assert groups == [] and programs == {}


class TestFusedCompute:
    def test_fused_results_match_per_task_dispatch(self):
        domain = Domain(
            ["a" * 10, "%n" * 40, "x" * 100, "ok", "%s%s", "a/b"] * 30)
        tasks = _string_tasks(domain, limit=7)
        fused = _engine_compute(tasks, [None] * len(tasks))
        plan.reset()  # recompile from scratch for the baseline
        baseline = _run_tasks(tasks, 2, "thread")
        assert _witnesses(fused) == _witnesses(baseline)

    def test_per_member_limits_are_respected(self):
        domain = Domain(["%n" * 40] * 50)  # every object is a witness
        tasks = _string_tasks(domain, limit=3)
        fused = _engine_compute(tasks, [None] * len(tasks))
        for finding in fused:
            assert finding is not None and len(finding.witnesses) == 3

    def test_fusion_counters_emitted(self):
        domain = Domain(["ok", "%n" * 40, "a/b"] * 10)
        tasks = _string_tasks(domain)
        sink = obs.MemorySink()
        registry = obs.get_registry()
        registry.reset()
        registry.enable(sink)
        try:
            _engine_compute(tasks, [None] * len(tasks))
            counters = registry.counters()
        finally:
            registry.disable()
            registry.clear_sinks()
            registry.reset()
        assert counters.get("serve.batch.fused_groups") == 1
        assert counters.get("serve.batch.fused_tasks") == 3
        assert counters.get("sweep.scans.compiled") == 3
        # accounting parity with the per-task dispatch path
        assert counters.get("sweep.tasks.queued") == \
            counters.get("sweep.tasks.completed") == 3
        assert len(sink.spans("sweep.task")) == 3

    def test_mixed_batch_leftovers_still_computed(self):
        str_domain = Domain(["ok", "%n" * 40, "a/b"] * 10)
        pfsm = PrimitiveFSM("pi", "scan", "x", spec_accepts=in_range(0, 5),
                            impl_accepts=less_equal(10))
        tasks = _string_tasks(str_domain) + \
            [("m", "op", pfsm, Domain.integers(-5, 15), 5)]
        fused = _engine_compute(tasks, [None] * len(tasks))
        plan.reset()
        baseline = _run_tasks(tasks, 2, "thread")
        assert _witnesses(fused) == _witnesses(baseline)

    def test_thread_batches_run_inline_without_a_pool(self):
        str_domain = Domain(["ok", "%n" * 40, "a/b"] * 10)
        pfsms = [PrimitiveFSM(f"p{bound}", "scan", "x",
                              spec_accepts=in_range(0, 5),
                              impl_accepts=less_equal(bound))
                 for bound in (8, 10, 12)]
        unfused = [("m", "op", p, Domain.integers(-5, 15), 5)
                   for p in pfsms]
        mixed = _string_tasks(str_domain) + unfused[:1]
        baselines = [_run_tasks(tasks, 2, "thread")
                     for tasks in (unfused, mixed)]
        plan.reset()

        threads = set()

        def judged_here(obj):
            threads.add(threading.get_ident())
            return obj >= 0

        opaque = [("m", "op", PrimitiveFSM(
                       f"q{i}", "scan", "x",
                       spec_accepts=Predicate(judged_here, "judged here"),
                       impl_accepts=None),
                   Domain.of(-2, -1, 0, 1), 5)
                  for i in range(4)]
        _run_tasks(opaque, 4, "thread")
        assert threads == {threading.get_ident()}
        for tasks, baseline in zip((unfused, mixed), baselines):
            computed = _engine_compute(tasks, [None] * len(tasks))
            assert _witnesses(computed) == _witnesses(baseline)
