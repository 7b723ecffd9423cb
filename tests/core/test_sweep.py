"""The batched, cached, parallel sweep engine (repro.core.sweep).

Four families of guarantees:

* **batch ≡ scalar** — ``Predicate.evaluate_batch`` (and the other
  closed-form domain queries) agree with per-object evaluation for
  every predicate constructor, over range-backed and list domains;
* **parallel ≡ serial** — ``sweep_models`` returns identical findings
  in identical order regardless of worker count or cache;
* **cache correctness** — memoized verdicts are never stale: rebinding
  a predicate invalidates its cached entries, unhashables pass through,
  and the LRU bound holds;
* **hot-path surgery** — probe memoization in ``probe_implementation``,
  the single-run ``minimal_foil_points`` fast path, bounded
  ``exploit_paths``, and lazy ``Domain`` backings keep their observable
  behaviour.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Domain,
    NO_CACHE,
    Predicate,
    PredicateCache,
    PrimitiveFSM,
    always,
    attr,
    build_state_space,
    cached_evaluate,
    contains,
    equals,
    greater_equal,
    hidden_witness_count,
    hidden_witness_scan,
    in_range,
    is_instance,
    length_le,
    less_equal,
    matches,
    minimal_foil_points,
    never,
    not_contains,
    predicate,
    probe_implementation,
    satisfies_all,
    satisfies_any,
    sweep_models,
)
from repro.core import sweep as sweep_module
from repro.core.sweep import SweepFinding
from repro.models import (
    all_extended_exploit_inputs,
    all_extended_models,
    all_extended_pfsm_domains,
)

# ---------------------------------------------------------------------------
# batch ≡ scalar, for every constructor
# ---------------------------------------------------------------------------

bounds = st.integers(min_value=-50, max_value=50)
interval = st.tuples(bounds, bounds).map(lambda p: (min(p), max(p)))

#: Every closed-form (interval-carrying) constructor, parameterized.
closed_form = st.one_of(
    st.just(always),
    st.just(never),
    bounds.map(equals),
    interval.map(lambda iv: in_range(*iv)),
    bounds.map(less_equal),
    bounds.map(greater_equal),
)

#: Arbitrary stepped/descending integer ranges.
ranges = st.tuples(
    bounds, bounds, st.integers(min_value=-4, max_value=4).filter(bool)
).map(lambda t: range(t[0], t[1], t[2]))


def _scalar_batch(pred, objects):
    return [pred.evaluate(obj) for obj in objects]


class TestBatchEqualsScalar:
    @given(closed_form, ranges)
    @settings(max_examples=120)
    def test_closed_form_over_range_domain(self, pred, backing):
        domain = Domain(backing, description="r")
        assert pred.evaluate_batch(domain) == _scalar_batch(pred, domain)
        assert pred.evaluate_batch(backing) == _scalar_batch(pred, backing)

    @given(closed_form, st.lists(bounds, max_size=30))
    @settings(max_examples=80)
    def test_closed_form_over_list_domain(self, pred, items):
        assert pred.evaluate_batch(items) == _scalar_batch(pred, items)

    @given(closed_form, closed_form, ranges)
    @settings(max_examples=80)
    def test_combinators_compose_closed_forms(self, p, q, backing):
        for combined in (p & q, p | q, ~p, p.implies(q), p.renamed("x")):
            assert combined.evaluate_batch(backing) == \
                _scalar_batch(combined, backing)

    @given(closed_form, ranges)
    @settings(max_examples=80)
    def test_count_witnesses_holds_over_agree(self, pred, backing):
        domain = Domain(backing, description="r")
        verdicts = _scalar_batch(pred, domain)
        assert pred.count_over(domain) == sum(verdicts)
        assert pred.holds_over(domain) == all(verdicts)
        expected = [obj for obj, v in zip(domain, verdicts) if v]
        assert pred.witnesses(domain, limit=7) == expected[:7]

    def test_opaque_constructors_over_object_domains(self):
        strings = ["", "a", "ab", "../x", "%n%n", "abc", 7, None]
        records = [{"n": i} for i in range(-3, 4)]
        cases = [
            (length_le(2), strings),
            (contains("../"), strings),
            (not_contains("%n"), strings),
            (matches(r"%[ns]"), strings),
            (is_instance(str), strings),
            (equals("ab"), strings),
            (attr("n", in_range(0, 2)), records),
            (satisfies_all(is_instance(str), length_le(2)), strings),
            (satisfies_any(contains("a"), contains("%")), strings),
            (predicate("short")(lambda s: len(s) < 2), strings),
            (satisfies_all(), strings),   # vacuous -> always
            (satisfies_any(), strings),   # vacuous -> never
        ]
        for pred, objects in cases:
            assert pred.evaluate_batch(objects) == \
                _scalar_batch(pred, objects), pred.description


# ---------------------------------------------------------------------------
# hidden-path scans: closed form ≡ cached ≡ plain scalar
# ---------------------------------------------------------------------------

def _seed_scan(pfsm, domain, limit):
    found = []
    for candidate in domain:
        if pfsm.takes_hidden_path(candidate):
            found.append(candidate)
            if len(found) >= limit:
                break
    return found


class TestHiddenWitnessScan:
    @given(closed_form, st.one_of(st.none(), closed_form), ranges,
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=120)
    def test_all_strategies_match_seed_scan(self, spec, impl, backing, limit):
        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=spec,
                            impl_accepts=impl)
        domain = Domain(backing, description="r")
        expected = _seed_scan(pfsm, domain, limit)
        assert hidden_witness_scan(pfsm, domain, limit=limit) == expected
        assert hidden_witness_scan(pfsm, domain, limit=limit,
                                   cache=PredicateCache()) == expected
        assert hidden_witness_scan(pfsm, domain, limit=limit,
                                   cache=NO_CACHE) == expected

    @given(closed_form, st.one_of(st.none(), closed_form), ranges)
    @settings(max_examples=100)
    def test_count_matches_brute_force(self, spec, impl, backing):
        pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=spec,
                            impl_accepts=impl)
        expected = sum(1 for obj in backing if pfsm.takes_hidden_path(obj))
        assert hidden_witness_count(pfsm, Domain(backing, description="r")) \
            == expected

    def test_identity_memo_judges_each_object_once(self):
        calls = {"n": 0}

        def spec_fn(record):
            calls["n"] += 1
            return record["n"] >= 0

        pfsm = PrimitiveFSM(
            "p", "a", "x",
            spec_accepts=Predicate(spec_fn, "n >= 0"),
            impl_accepts=None,
        )
        bad, good = {"n": -1}, {"n": 1}
        domain = Domain([bad, good] * 40, description="tiled")
        found = hidden_witness_scan(pfsm, domain, limit=10**9,
                                    cache=PredicateCache())
        # Each repeated occurrence of the witness is reported...
        assert found == [bad] * 40
        # ...but each distinct object was judged exactly once.
        assert calls["n"] == 2

    def test_cached_scan_matches_on_record_domains(self):
        label = "NULL HTTPD Heap Overflow"
        model = all_extended_models()[label]
        domains = all_extended_pfsm_domains()[label]
        for _operation, pfsm in model.all_pfsms():
            domain = domains[pfsm.name]
            assert hidden_witness_scan(pfsm, domain, limit=100,
                                       cache=PredicateCache()) \
                == _seed_scan(pfsm, domain, 100)


# ---------------------------------------------------------------------------
# parallel ≡ serial sweeps
# ---------------------------------------------------------------------------

def _flat(sweeps):
    return [
        (f.model_name, f.operation_name, f.pfsm_name, f.activity, f.witnesses)
        for sweep in sweeps for f in sweep.findings
    ]


class TestSweepDeterminism:
    def _corpus(self):
        models = all_extended_models()
        domains = all_extended_pfsm_domains()
        keep = ["Sendmail Signed Integer Overflow", "NULL HTTPD Heap Overflow"]
        return ({k: models[k] for k in keep}, {k: domains[k] for k in keep})

    def test_parallel_equals_serial_on_sendmail_and_nullhttpd(self):
        models, domains = self._corpus()
        serial = sweep_models(models, domains, cache=NO_CACHE)
        for workers in (2, 4):
            for cache in (None, NO_CACHE, PredicateCache()):
                parallel = sweep_models(models, domains, workers=workers,
                                        cache=cache)
                assert _flat(parallel) == _flat(serial)
                assert [s.model_name for s in parallel] == \
                    [s.model_name for s in serial]

    def test_sweep_covers_whole_corpus_in_model_order(self):
        models = all_extended_models()
        domains = all_extended_pfsm_domains()
        sweeps = sweep_models(models, domains, workers=4)
        assert [s.model_name for s in sweeps] == \
            [m.name for m in models.values()]
        assert any(s.vulnerable for s in sweeps)

    def test_finding_str_names_the_location(self):
        models, domains = self._corpus()
        finding = _flat(sweep_models(models, domains))[0]
        sweeps = sweep_models(models, domains)
        text = str(sweeps[0].findings[0])
        assert finding[2] in text and finding[0] in text

    def test_wire_witnesses_encode_each_distinct_object_once(
            self, monkeypatch):
        calls = []

        def recording(value):
            calls.append(value)
            return value

        monkeypatch.setattr(sweep_module, "encode_value", recording)
        tile = ["a", "b"]
        finding = SweepFinding("m", "op", "p", "scan", tuple(tile * 40))
        assert finding.wire_witnesses == tile * 40
        assert calls == tile
        assert finding.wire_witnesses is finding.wire_witnesses
        assert len(calls) == 2

    def test_wire_witnesses_are_not_a_field(self):
        finding = SweepFinding("m", "op", "p", "scan", ((1, 2),))
        twin = SweepFinding("m", "op", "p", "scan", ((1, 2),))
        assert finding.wire_witnesses == [{"__tuple__": [1, 2]}]
        assert finding == twin and hash(finding) == hash(twin)
        assert "wire_witnesses" not in vars(
            dataclasses.replace(finding, pfsm_name="q"))


# ---------------------------------------------------------------------------
# cache correctness
# ---------------------------------------------------------------------------

class TestPredicateCache:
    def test_rebound_predicate_is_not_served_stale_verdicts(self):
        cache = PredicateCache()
        pred = Predicate(lambda x: x < 0, "negative")
        assert cache.evaluate(pred, 5) is False
        assert cache.evaluate(pred, 5) is False  # memoized
        pred.rebind(lambda x: x > 0, "positive")
        assert cache.evaluate(pred, 5) is True
        assert cached_evaluate(pred, 5, cache=cache) is True

    def test_hits_and_misses_are_counted(self):
        cache = PredicateCache()
        pred = in_range(0, 10)
        cache.evaluate(pred, 3)
        cache.evaluate(pred, 3)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_unhashable_objects_pass_through_uncached(self):
        cache = PredicateCache()
        pred = attr("n", greater_equal(0))
        assert cache.evaluate(pred, {"n": 1}) is True
        assert len(cache) == 0

    def test_lru_bound_evicts_oldest(self):
        cache = PredicateCache(maxsize=2)
        pred = in_range(0, 10)
        for value in (1, 2, 3):
            cache.evaluate(pred, value)
        assert len(cache) == 2
        cache.evaluate(pred, 1)  # evicted above -> recomputed
        assert cache.misses == 4

    def test_distinct_predicates_do_not_collide(self):
        cache = PredicateCache()
        assert cache.evaluate(less_equal(0), 0) is True
        assert cache.evaluate(greater_equal(1), 0) is False

    def test_no_cache_sentinel_disables_memoization(self):
        calls = {"n": 0}

        def fn(x):
            calls["n"] += 1
            return True

        pred = Predicate(fn, "counting")
        cached_evaluate(pred, 1, cache=NO_CACHE)
        cached_evaluate(pred, 1, cache=NO_CACHE)
        assert calls["n"] == 2


class TestEvaluateDigestMany:
    """The bulk digest protocol behind chunked compiled scans."""

    @staticmethod
    def _odd(obj, memo=None):
        return obj % 2 == 1

    def test_verdicts_match_chunk_order(self):
        cache = PredicateCache()
        chunk = [1, 2, 3, 4, 5]
        verdicts, computed = cache.evaluate_digest_many(
            "d", chunk, self._odd)
        assert verdicts == [True, False, True, False, True]
        assert computed == 5

    def test_equal_objects_within_chunk_judged_once(self):
        cache = PredicateCache()
        calls = {"n": 0}

        def odd(obj, memo=None):
            calls["n"] += 1
            return obj % 2 == 1

        verdicts, computed = cache.evaluate_digest_many(
            "d", [7, 7, 7, 8], odd)
        assert verdicts == [True, True, True, False]
        assert (computed, calls["n"]) == (2, 2)

    def test_warm_across_calls_and_with_scalar_twin(self):
        cache = PredicateCache()
        cache.evaluate_digest_many("d", [1, 2], self._odd)
        _verdicts, computed = cache.evaluate_digest_many(
            "d", [1, 2, 3], self._odd)
        assert computed == 1  # only 3 is new
        assert cache.evaluate_digest("d", 2, self._odd) is False
        assert cache.hits == 3

    def test_unhashable_objects_bypass_and_still_judge(self):
        cache = PredicateCache()
        verdicts, computed = cache.evaluate_digest_many(
            "d", [[1], [1]], lambda obj, memo=None: bool(obj))
        assert verdicts == [True, True]
        assert computed == 2  # no key, so no dedup and no table entry
        assert len(cache) == 0

    def test_lru_bound_holds_under_bulk_store(self):
        cache = PredicateCache(maxsize=3)
        cache.evaluate_digest_many("d", list(range(10)), self._odd)
        assert len(cache) == 3
        assert cache.evictions == 7


# ---------------------------------------------------------------------------
# hot-path surgery keeps observable behaviour
# ---------------------------------------------------------------------------

class TestProbeMemoization:
    def test_probe_predicate_replays_recorded_verdicts(self):
        calls = {"n": 0}

        def accepts(n):
            calls["n"] += 1
            return n <= 100

        domain = Domain.of(-5, 50, 200)
        result = probe_implementation(accepts, domain)
        assert calls["n"] == 3
        assert result.predicate(50) is True
        assert result.predicate(200) is False
        assert calls["n"] == 3  # recorded verdicts, no re-probe
        assert result.predicate(999) is False  # unseen -> live probe
        assert calls["n"] == 4

    def test_unhashable_probes_memoize_by_identity(self):
        calls = {"n": 0}

        def accepts(record):
            calls["n"] += 1
            return record["n"] >= 0

        good, bad = {"n": 7}, {"n": -7}
        result = probe_implementation(accepts, Domain([good, bad]))
        assert calls["n"] == 2
        assert result.predicate(good) is True
        assert result.predicate(bad) is False
        assert calls["n"] == 2
        assert result.checks_anything


class TestMinimalFoilPointsFastPath:
    def test_fast_path_matches_exhaustive_on_every_bundled_model(self):
        models = all_extended_models()
        exploits = all_extended_exploit_inputs()
        for label, model in models.items():
            fast = minimal_foil_points(model, exploits[label])
            slow = minimal_foil_points(model, exploits[label],
                                       exhaustive=True)
            assert fast == slow, label
            assert fast, f"{label}: exploit should be foilable"


class TestBoundedStateSpaceQueries:
    def _space(self):
        label = "NULL HTTPD Heap Overflow"
        return build_state_space(all_extended_models()[label],
                                 all_extended_pfsm_domains()[label])

    def test_cutoff_bounds_path_length(self):
        space = self._space()
        unbounded = space.exploit_paths(limit=64)
        assert unbounded
        cutoff = max(len(p) for p in unbounded) - 1
        bounded = space.exploit_paths(limit=64, cutoff=cutoff)
        assert bounded == unbounded
        short = space.exploit_paths(limit=64, cutoff=2)
        assert all(len(path) <= 3 for path in short)

    def test_max_paths_caps_enumeration(self):
        space = self._space()
        capped = space.exploit_paths(limit=64, max_paths=1)
        assert len(capped) <= 1

    def test_cut_set_still_disconnects_the_exploit(self):
        space = self._space()
        cut = space.cut_set(cutoff=None, max_paths=None)
        assert cut
        survivor = space
        for edge in cut:
            operation, pfsm = space.edge_owner(edge)
            survivor = survivor.without_hidden_edge(operation, pfsm)
        assert not survivor.compromise_reachable()


class TestLazyDomains:
    def test_integer_domain_stays_range_backed(self):
        domain = Domain.integers(-10**6, 10**6)
        assert isinstance(domain.backing, range)
        assert len(domain) == 2 * 10**6 + 1
        assert 123456 in domain
        assert 10**6 + 1 not in domain
        assert "nope" not in domain

    def test_record_domain_has_len_without_materializing(self):
        domain = Domain.records(a=Domain.of(1, 2, 3), b=Domain.of(4, 5))
        assert len(domain) == 6
        assert {"a": 1, "b": 5} in domain
        assert {"a": 9, "b": 4} not in domain
        # Re-iterable: two passes see the same records.
        assert list(domain) == list(domain)

    def test_membership_on_list_domain(self):
        domain = Domain.of("x", "y")
        assert "x" in domain
        assert "z" not in domain


class TestScanWindow:
    """The bulk-evaluation window is a tunable, not a constant."""

    def test_cache_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            PredicateCache(scan_window=0)
        with pytest.raises(ValueError):
            PredicateCache(scan_window=-8)

    def test_default_window_is_512(self):
        assert PredicateCache().scan_window == 512

    def test_window_size_does_not_change_witnesses(self):
        from repro.core import columnar

        domain = Domain([f"{'%n' * (i % 9)}{i}" for i in range(700)])
        pfsm = PrimitiveFSM(
            "p", "scan", "x",
            spec_accepts=satisfies_all(not_contains("%n"), length_le(6)),
            impl_accepts=length_le(40))
        with columnar.disabled():
            reference = hidden_witness_scan(pfsm, domain, limit=50)
            for window in (1, 3, 64, 512, 10_000):
                cache = PredicateCache(scan_window=window)
                assert hidden_witness_scan(
                    pfsm, domain, limit=50, cache=cache) == reference
                # Explicit argument overrides the cache's own window.
                assert hidden_witness_scan(
                    pfsm, domain, limit=50, cache=cache,
                    scan_window=7) == reference
