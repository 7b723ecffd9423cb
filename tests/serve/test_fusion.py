"""Batched dispatch in the micro-batcher: requests batched together over
one domain each get exactly what their own scan would produce, at their
own witness limit, and the thread dispatch runs inline."""

import threading
import time

import pytest

from repro import obs
from repro.core import (
    Domain,
    Operation,
    Predicate,
    PrimitiveFSM,
    VulnerabilityModel,
    contains,
    in_range,
    is_instance,
    length_le,
    less_equal,
    not_contains,
    satisfies_all,
)
from repro.core import dist, plan
from repro.core.predspec import decode_value
from repro.core.sweep import _run_tasks
from repro.serve import AnalysisCorpus
from repro.serve.batcher import MicroBatcher, _engine_compute
from repro.serve.cache import TieredResultCache
from repro.serve.stats import ServeStats


@pytest.fixture(autouse=True)
def _fresh_memo():
    dist.reset()  # no result memo: every blocker request computes
    yield
    dist.reset()


def _witnesses(results):
    return [tuple(r.witnesses) if r is not None else None for r in results]


def _string_pfsms():
    def shared():
        return satisfies_all(is_instance(str), length_le(64),
                             not_contains("%n"))

    return [
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


def _string_tasks(domain, limit=5):
    return [("m", "op", p, domain, limit) for p in _string_pfsms()]


def _reference_scan(pfsm, domain, limit):
    """The seed loop: every object judged by the predicates themselves,
    stopping at ``limit`` witnesses."""
    found = []
    for candidate in domain:
        if pfsm.takes_hidden_path(candidate):
            found.append(candidate)
            if len(found) >= limit:
                break
    return found


def _batch_two_queries(domain, limits, pfsms=None):
    """Serve one model of ``pfsms`` (default: the three string pFSMs)
    to one request per limit, all queued while a blocker request holds
    the engine, so they dispatch as one batch.  ``domain`` is one
    domain for every pFSM or a dict of them by pFSM name.  Returns
    ``(pfsms, responses, batch task counts)``; the blocker's own batch
    is not counted."""
    pfsms = pfsms or _string_pfsms()
    domains = domain if isinstance(domain, dict) else \
        {p.name: domain for p in pfsms}
    blocker = PrimitiveFSM("blocker", "scan", "x",
                           spec_accepts=in_range(0, 5),
                           impl_accepts=less_equal(8))
    models = {"M": VulnerabilityModel("M", [Operation("op", "scan", pfsms)]),
              "B": VulnerabilityModel("B", [Operation("op", "scan",
                                                      [blocker])])}
    corpus = AnalysisCorpus(
        models=models,
        domains={"M": domains, "B": {"blocker": Domain.integers(-5, 15)}},
        keys={"m": "M", "b": "B"})
    batches = []
    entered, release = threading.Event(), threading.Event()

    def compute(tasks, keys):
        if tasks[0][0] == "B":
            entered.set()
            assert release.wait(10.0), "blocker never released"
        else:
            batches.append(len(tasks))
        return _engine_compute(tasks, keys)

    stats = ServeStats()
    batcher = MicroBatcher(TieredResultCache(stats=stats), stats,
                           compute_fn=compute)
    responses = {}

    def submit(key, limit):
        responses[key, limit] = batcher.submit(corpus.expand(key, limit))

    threads = [threading.Thread(target=submit, args=("b", 5))]
    threads[0].start()
    assert entered.wait(10.0)
    threads += [threading.Thread(target=submit, args=("m", limit))
                for limit in limits]
    for thread in threads[1:]:
        thread.start()
    deadline = time.monotonic() + 10.0
    while batcher.queue_depth() < len(limits):  # every request is queued
        assert time.monotonic() < deadline, "requests never queued"
        time.sleep(0.005)
    release.set()
    for thread in threads:
        thread.join(10.0)
    batcher.stop()
    assert responses["b", 5]["status"] == "ok"
    return pfsms, [responses["m", limit] for limit in limits], batches


def _assert_reference_findings(pfsms, domain, limits, responses):
    """Each response holds, per pFSM with a witness, the reference scan
    of that pFSM's domain at the response's own limit."""
    domains = domain if isinstance(domain, dict) else \
        {p.name: domain for p in pfsms}
    for limit, response in zip(limits, responses):
        assert response["status"] == "ok"
        got = {f["pfsm"]: [decode_value(w) for w in f["witnesses"]]
               for f in response["findings"]}
        expected = {p.name: _reference_scan(p, domains[p.name], limit)
                    for p in pfsms}
        assert got == {name: found for name, found in expected.items()
                       if found}


class TestBatchedRequests:
    def test_batched_requests_match_their_own_reference_scans(self):
        domain = Domain(
            ["a" * 10, "%n" * 40, "x" * 100, "ok", "%s%s", "a/b"] * 30)
        limits = (3, 7)
        pfsms, responses, batches = _batch_two_queries(domain, limits)
        assert batches == [len(pfsms) * len(limits)]  # one batch
        _assert_reference_findings(pfsms, domain, limits, responses)

    def test_requests_over_distinct_domains_match_reference(self):
        pfsms = _string_pfsms()
        domains = {"pa": Domain(["ok", "%n" * 40, "%s"] * 4),
                   "pb": Domain(["a/b", "x" * 100, "/"] * 4),
                   "pc": Domain(["%n%n", "x" * 130, "fine"] * 4)}
        limits = (2, 6)
        pfsms, responses, batches = _batch_two_queries(domains, limits,
                                                       pfsms)
        assert batches == [len(pfsms) * len(limits)]
        _assert_reference_findings(pfsms, domains, limits, responses)

    def test_interval_fastpath_requests_match_reference(self):
        pfsms = [PrimitiveFSM(f"pi{bound}", "scan", "x",
                              spec_accepts=in_range(0, 5),
                              impl_accepts=less_equal(bound))
                 for bound in (8, 12)]
        domain = Domain.integers(-5, 15)
        limits = (3, 9)
        pfsms, responses, batches = _batch_two_queries(domain, limits,
                                                       pfsms)
        assert batches == [len(pfsms) * len(limits)]
        _assert_reference_findings(pfsms, domain, limits, responses)

    def test_disabled_planner_batches_match_reference(self):
        domain = Domain(["ok", "%n" * 40, "a/b", "x" * 100] * 6)
        limits = (4, 8)
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            with plan.disabled():
                pfsms, responses, batches = _batch_two_queries(domain,
                                                               limits)
            compiles = registry.counters().get("plan.compiles", 0)
        finally:
            registry.disable()
            registry.reset()
        assert compiles == 0  # no scan was compiled
        assert batches == [len(pfsms) * len(limits)]
        _assert_reference_findings(pfsms, domain, limits, responses)

    def test_per_request_limits_are_respected(self):
        domain = Domain(["%n" * 40] * 50)  # every object is a witness
        limits = (3, 5)
        pfsms, responses, batches = _batch_two_queries(domain, limits)
        assert batches == [len(pfsms) * len(limits)]
        for limit, response in zip(limits, responses):
            assert len(response["findings"]) == len(pfsms)
            for finding in response["findings"]:
                assert len(finding["witnesses"]) == limit


class TestEngineCompute:
    def test_thread_batches_run_inline_without_a_pool(self):
        str_domain = Domain(["ok", "%n" * 40, "a/b"] * 10)
        pfsms = [PrimitiveFSM(f"p{bound}", "scan", "x",
                              spec_accepts=in_range(0, 5),
                              impl_accepts=less_equal(bound))
                 for bound in (8, 10, 12)]
        interval = [("m", "op", p, Domain.integers(-5, 15), 5)
                    for p in pfsms]
        mixed = _string_tasks(str_domain) + interval[:1]
        baselines = [_run_tasks(tasks, 2, "thread")
                     for tasks in (interval, mixed)]

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
        for tasks, baseline in zip((interval, mixed), baselines):
            computed = _engine_compute(tasks, [None] * len(tasks))
            assert _witnesses(computed) == _witnesses(baseline)

    def test_every_task_is_counted_and_spanned_on_its_own(self):
        domain = Domain(["ok", "%n" * 40, "a/b"] * 10)
        tasks = _string_tasks(domain)
        sink = obs.MemorySink()
        registry = obs.get_registry()
        registry.reset()
        registry.enable(sink)
        try:
            computed = _engine_compute(tasks, [None] * len(tasks))
            counters = registry.counters()
        finally:
            registry.disable()
            registry.clear_sinks()
            registry.reset()
        assert _witnesses(computed) == \
            _witnesses(_run_tasks(tasks, None, "thread"))
        assert counters.get("sweep.scans.compiled") == 3
        assert counters.get("sweep.tasks.queued") == \
            counters.get("sweep.tasks.completed") == 3
        spans = sink.spans("sweep.task")
        assert sorted(s["attrs"]["pfsm"] for s in spans) == \
            ["pa", "pb", "pc"]
        assert not [name for name in counters
                    if name.startswith("serve.batch.fused")]
