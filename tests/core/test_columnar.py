"""The columnar domain engine (repro.core.columnar).

The engine's contract is *bit-for-bit equivalence*: whenever
``scan_program`` takes a task, its witnesses must match the compiled
scalar scan exactly — same objects, same domain iteration order, same
per-occurrence duplicates, same ``limit`` truncation.  The property
tests here drive that claim over generated integer, text, and record
domains, under both mask backends (numpy, forced onto these small
domains by patching ``_NUMPY_MIN_ROWS``, and the pure-stdlib big-int
kernels via ``force_fallback``), and in the forked workers of a
process-backend sweep, which scan the domain they inherit.

The unit tests pin the supporting machinery: the per-domain encoding
memo, kernels shared by program digest, kernel bail-outs (named predicates, nested ``attr``,
mixed-type columns) and ``spec_fields`` pre-flight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    Domain,
    PrimitiveFSM,
    always,
    attr,
    contains,
    equals,
    greater_equal,
    hidden_witness_scan,
    in_range,
    is_instance,
    length_le,
    less_equal,
    matches,
    never,
    not_contains,
    plan_scan,
    predicate,
    program_for,
    satisfies_all,
    satisfies_any,
    truthy,
)
from repro.core import columnar
from repro.core.predspec import named_predicate, spec_fields, to_spec


@pytest.fixture(scope="module", autouse=True)
def _tiny_threshold():
    """Drop the row floor so generated micro-domains take the columnar
    path, and leave the module state pristine afterwards."""
    previous = columnar.set_min_rows(1)
    yield
    columnar.set_min_rows(previous)
    _drop_encodings()


def _drop_encodings():
    columnar._DOMAIN_MEMO.clear()


def _counted(fn):
    """``(fn(), the telemetry counters it bumped)``."""
    registry = obs.get_registry()
    registry.reset()
    registry.enable()
    try:
        result = fn()
        counters = registry.counters()
    finally:
        registry.disable()
        registry.reset()
    return result, counters


def _patch_numpy_masks(patch):
    """Give every encoding numpy masks, whatever its row count, by
    dropping ``_NUMPY_MIN_ROWS`` to 0 (a test-only patch: the constant
    has no setter).  Returns the backend encodings then get —
    ``"stdlib"`` where numpy is missing or bypassed."""
    patch.setattr(columnar, "_NUMPY_MIN_ROWS", 0)
    _drop_encodings()
    return columnar._make_ops(0).name


@pytest.fixture
def numpy_masks(monkeypatch):
    yield _patch_numpy_masks(monkeypatch)
    _drop_encodings()


@pytest.fixture(scope="class", params=["numpy", "stdlib"],
                ids=["numpy-or-default", "stdlib"])
def backend(request):
    """Run a test class once per mask backend; yields the backend the
    class's encodings get."""
    if request.param == "stdlib":
        with columnar.force_fallback():
            yield "stdlib"
        return
    with pytest.MonkeyPatch.context() as patch:
        yield _patch_numpy_masks(patch)
    _drop_encodings()


def _pfsm(spec, impl):
    return PrimitiveFSM("p", "scan", "x", spec_accepts=spec,
                        impl_accepts=impl)


def _scalar(pfsm, domain, limit):
    """The reference answer: the same scan with columnar bypassed."""
    with columnar.disabled():
        return hidden_witness_scan(pfsm, domain, limit=limit)


def _columnar_witnesses(pfsm, domain, limit):
    """Witnesses via the columnar kernel itself (not the sweep
    dispatcher), so tests fail loudly if the kernel declines."""
    found = columnar.scan_program(program_for(pfsm), domain, limit)
    assert found is not None, "columnar kernel unexpectedly declined"
    return found


# ---------------------------------------------------------------------------
# Property: columnar ≡ scalar, integer domains.
# ---------------------------------------------------------------------------

bounds = st.integers(min_value=-30, max_value=30)
interval = st.tuples(bounds, bounds).map(lambda p: (min(p), max(p)))

int_leaf = st.one_of(
    st.just(always),
    st.just(never),
    bounds.map(equals),
    interval.map(lambda iv: in_range(*iv)),
    bounds.map(less_equal),
    bounds.map(greater_equal),
    st.builds(truthy),
)
int_pred = st.one_of(
    int_leaf,
    st.builds(satisfies_all, int_leaf, int_leaf),
    st.builds(satisfies_any, int_leaf, int_leaf),
)

#: Lists drawn from a narrow pool so duplicates are common, not rare.
int_rows = st.lists(st.integers(min_value=-12, max_value=12),
                    min_size=1, max_size=48)
limits = st.integers(min_value=1, max_value=60)


class TestEquivalence:
    """columnar ≡ scalar over generated domains, both backends."""

    def _check(self, spec, impl, rows, limit, backend):
        domain = Domain(list(rows))
        pfsm = _pfsm(spec, impl)
        expected = _scalar(pfsm, domain, limit)
        assert _columnar_witnesses(pfsm, domain, limit) == expected
        assert columnar.encoding_for(domain).ops.name == backend

    @given(spec=int_pred, impl=int_pred, rows=int_rows, limit=limits)
    @settings(max_examples=60, deadline=None)
    def test_integers(self, backend, spec, impl, rows, limit):
        self._check(spec, impl, rows, limit, backend)

    @given(
        spec=st.one_of(
            st.integers(min_value=0, max_value=6).map(length_le),
            st.sampled_from(["a", "b", "%n", ""]).map(contains),
            st.sampled_from(["a", "b", "%n"]).map(not_contains),
            st.sampled_from(["^a", "b$", "%n"]).map(matches),
            st.sampled_from(["a", "ab", ""]).map(equals),
            st.builds(truthy),
        ),
        impl=st.one_of(
            st.integers(min_value=0, max_value=8).map(length_le),
            st.just(always),
        ),
        rows=st.lists(
            st.text(alphabet="ab%n", min_size=0, max_size=6),
            min_size=1, max_size=40),
        limit=limits,
    )
    @settings(max_examples=60, deadline=None)
    def test_text(self, backend, spec, impl, rows, limit):
        self._check(spec, impl, rows, limit, backend)

    @given(
        low=bounds, high=bounds,
        cap=st.integers(min_value=0, max_value=5),
        rows=st.lists(
            st.tuples(st.integers(min_value=-12, max_value=12),
                      st.text(alphabet="xyz", min_size=0, max_size=5)),
            min_size=1, max_size=40),
        limit=limits,
    )
    @settings(max_examples=60, deadline=None)
    def test_records(self, backend, low, high, cap, rows, limit):
        lo, hi = min(low, high), max(low, high)
        spec = satisfies_all(attr("size", in_range(lo, hi)),
                             attr("name", length_le(cap)))
        impl = satisfies_any(attr("size", less_equal(hi + 3)),
                             attr("name", truthy()))
        records = [{"size": s, "name": n} for s, n in rows]
        self._check(spec, impl, records, limit, backend)

    def test_duplicates_reported_per_occurrence(self, backend):
        domain = Domain([5, 5, 1, 5, 2, 5])
        pfsm = _pfsm(less_equal(2), always)  # hidden: every 5
        expected = [5, 5, 5, 5]
        assert _scalar(pfsm, domain, 10) == expected
        assert _columnar_witnesses(pfsm, domain, 10) == expected
        assert _columnar_witnesses(pfsm, domain, 3) == [5, 5, 5]


def test_range_domain_equivalence():
    domain = Domain.integers(-40, 120)
    pfsm = _pfsm(satisfies_all(in_range(0, 50), truthy()),
                 less_equal(80))
    for limit in (1, 7, 200):
        assert _columnar_witnesses(pfsm, domain, limit) == \
            _scalar(pfsm, domain, limit)


def test_product_domain_equivalence():
    domain = Domain.records(size=Domain.integers(-5, 25),
                            name=Domain.of("", "ok", "%n%n", "abc"))
    spec = satisfies_all(attr("size", in_range(0, 10)),
                         attr("name", length_le(2)))
    impl = attr("size", less_equal(20))
    pfsm = _pfsm(spec, impl)
    for limit in (1, 5, 1000):
        assert _columnar_witnesses(pfsm, domain, limit) == \
            _scalar(pfsm, domain, limit)


# ---------------------------------------------------------------------------
# Kernel bail-outs: decline, never guess.
# ---------------------------------------------------------------------------

_IS_EVEN = named_predicate("columnar_test_is_even", lambda obj: obj % 2 == 0)


class TestBailouts:
    def test_named_predicate_declines(self):
        domain = Domain(list(range(20)))
        pfsm = _pfsm(_IS_EVEN, always)
        program = program_for(pfsm)
        assert program is not None
        assert columnar.scan_program(program, domain, 10) is None
        assert columnar.kernel_backend(program, domain) is None
        # The sweep still answers, via the scalar path.
        assert hidden_witness_scan(pfsm, domain, limit=4) == [1, 3, 5, 7]

    def test_opaque_callable_has_no_program(self):
        domain = Domain(list(range(10)))
        pfsm = _pfsm(predicate("opaque")(lambda obj: obj < 5), always)
        assert program_for(pfsm) is None
        assert columnar.scan_program(None, domain, 10) is None

    def test_mixed_type_column_declines(self):
        rows = [{"size": 1, "name": "a"}, {"size": "two", "name": "b"}] * 8
        domain = Domain(rows)
        needs_mixed = _pfsm(attr("size", less_equal(3)), always)
        program = program_for(needs_mixed)
        assert program is not None
        assert columnar.kernel_backend(program, domain) is None
        # A spec touching only the clean column still vectorizes.
        clean = _pfsm(attr("name", equals("a")), always)
        assert columnar.kernel_backend(program_for(clean), domain) \
            == "stdlib"
        assert _columnar_witnesses(clean, domain, 50) == \
            _scalar(clean, domain, 50)

    def test_nested_attr_declines(self):
        rows = [{"outer": {"inner": i}} for i in range(12)]
        domain = Domain(rows)
        pfsm = _pfsm(attr("outer", attr("inner", less_equal(5))), always)
        program = program_for(pfsm)
        if program is None:
            pytest.skip("planner does not compile nested attr")
        assert columnar.scan_program(program, domain, 10) is None

    def test_isinstance_spec_vectorizes(self):
        domain = Domain(["a", "bb", "ccc"] * 6)
        pfsm = _pfsm(satisfies_all(is_instance(str), length_le(1)), always)
        assert _columnar_witnesses(pfsm, domain, 50) == \
            _scalar(pfsm, domain, 50)

    def test_bool_rows_do_not_take_int_kernels(self):
        # bool is an int subclass with different str()/repr() semantics;
        # the encoder must classify such columns "obj" and decline.
        domain = Domain([True, False] * 10)
        pfsm = _pfsm(less_equal(0), always)
        program = program_for(pfsm)
        assert columnar.scan_program(program, domain, 10) is None
        assert hidden_witness_scan(pfsm, domain, limit=4) == \
            _scalar(pfsm, domain, 4)


# ---------------------------------------------------------------------------
# spec_fields: the pre-flight column census.
# ---------------------------------------------------------------------------

class TestSpecFields:
    def test_collects_in_first_reference_order(self):
        spec = to_spec(satisfies_all(attr("size", in_range(0, 9)),
                                     attr("name", length_le(4)),
                                     attr("size", truthy())))
        assert spec_fields(spec) == ("size", "name")

    def test_walks_or_and_not(self):
        spec = to_spec(satisfies_any(
            attr("a", truthy()),
            satisfies_all(attr("b", truthy()), attr("a", truthy()))))
        assert spec_fields(spec) == ("a", "b")

    def test_leaf_and_malformed_specs(self):
        assert spec_fields(to_spec(less_equal(3))) == ()
        assert spec_fields(None) == ()
        assert spec_fields(["attr"]) == ()
        assert spec_fields(42) == ()


# ---------------------------------------------------------------------------
# Encoding memo: one encoding per domain object, invalidated by config.
# ---------------------------------------------------------------------------

class TestEncodingMemo:
    def test_per_domain_memo_encodes_once(self):
        domain = Domain(list(range(32)))
        e1, counters = _counted(lambda: columnar.encoding_for(domain))
        assert e1 is not None
        assert counters.get(f"columnar.encodings.{e1.ops.name}") == 1
        again, counters = _counted(lambda: columnar.encoding_for(domain))
        assert again is e1
        assert not [name for name in counters
                    if name.startswith("columnar.encodings")]

    def test_equal_content_domains_encode_their_own(self):
        d1 = Domain(list(range(64)))
        d2 = Domain(list(range(64)))
        e1 = columnar.encoding_for(d1)
        e2 = columnar.encoding_for(d2)
        assert e1 is not None and e2 is not None and e1 is not e2

    def test_encoding_computes_no_domain_digest(self):
        domain = Domain([f"row {i}" for i in range(300)])
        assert columnar.encoding_for(domain) is not None
        assert not hasattr(domain, "_dist_digest")

    def test_memo_does_not_keep_domains_alive(self):
        import gc

        domain = Domain(list(range(40)))
        assert columnar.encoding_for(domain) is not None
        assert domain in columnar._DOMAIN_MEMO
        entries = len(columnar._DOMAIN_MEMO)
        del domain
        gc.collect()
        assert len(columnar._DOMAIN_MEMO) == entries - 1

    def test_unreferenceable_domains_encode_on_every_call(self):
        rows = list(range(50))  # a bare list takes no weak reference
        first = columnar.encoding_for(rows)
        second = columnar.encoding_for(rows)
        assert first is not None and second is not None
        assert first is not second
        assert first.rows([3, 7]) == second.rows([3, 7]) == [3, 7]

    def test_structural_twins_share_one_kernel(self):
        domain = Domain(list(range(80)))

        def twin():
            return _pfsm(satisfies_all(in_range(0, 9), truthy()),
                         less_equal(40))

        first, second = program_for(twin()), program_for(twin())
        assert first is not second and first.digest == second.digest
        encoding = columnar.encoding_for(domain)
        kernels, counters = _counted(
            lambda: (encoding.kernel(first), encoding.kernel(second)))
        assert kernels[0] is not None and kernels[0] is kernels[1]
        assert counters.get("columnar.kernels") == 1

    def test_backend_switch_invalidates(self, numpy_masks):
        if numpy_masks != "numpy":
            pytest.skip("numpy missing or bypassed: no numpy encoding")
        domain = Domain(list(range(48)))
        e1 = columnar.encoding_for(domain)
        assert e1 is not None and e1.ops.name == "numpy"
        with columnar.force_fallback():
            e2 = columnar.encoding_for(domain)
            assert e2 is not None and e2 is not e1
            assert e2.ops.name == "stdlib"

    def test_min_rows_threshold_gates(self):
        previous = columnar.set_min_rows(100)
        try:
            assert columnar.encoding_for(Domain(list(range(10)))) is None
            assert columnar.encoding_for(Domain(list(range(200)))) \
                is not None
        finally:
            columnar.set_min_rows(previous)


def test_planner_reports_columnar_strategy():
    domain = Domain(list(range(600)))
    pfsm = _pfsm(satisfies_all(in_range(0, 99), truthy()), less_equal(400))
    plan = plan_scan(pfsm, domain)
    assert plan.strategy == "columnar"
    assert "(stdlib kernels" in plan.reason  # 600 rows: stdlib masks
    with columnar.disabled():
        assert plan_scan(pfsm, domain).strategy != "columnar"


def test_reporting_follows_the_encoding_backend(numpy_masks):
    if numpy_masks != "numpy":
        pytest.skip("numpy missing or bypassed: no numpy encoding")
    domain = Domain(list(range(600)))
    pfsm = _pfsm(satisfies_all(in_range(0, 99), truthy()), less_equal(400))
    plan, counters = _counted(lambda: plan_scan(pfsm, domain))
    assert plan.strategy == "columnar"
    assert "(numpy kernels" in plan.reason
    assert counters.get("columnar.encodings.numpy") == 1
    with columnar.force_fallback():
        stdlib_plan, counters = _counted(lambda: plan_scan(pfsm, domain))
    assert "(stdlib kernels" in stdlib_plan.reason
    assert counters.get("columnar.encodings.stdlib") == 1
    assert plan.est_cost < stdlib_plan.est_cost


def test_sweep_counters_tag_columnar_scans():
    domain = Domain(list(range(300)))
    pfsm = _pfsm(satisfies_all(in_range(0, 9), truthy()), always)
    sink = obs.MemorySink()
    registry = obs.get_registry()
    registry.reset()
    registry.enable(sink)
    try:
        hidden_witness_scan(pfsm, domain, limit=5)
        counters = registry.counters()
    finally:
        registry.disable()
        registry.clear_sinks()
        registry.reset()
    assert counters.get("sweep.scans.columnar") == 1
    assert counters.get("plan.strategy.columnar") == 1
    assert "sweep.scans.compiled" not in counters


# ---------------------------------------------------------------------------
# Process sweeps: forked workers scan the record domain they inherit.
# ---------------------------------------------------------------------------

def _record_pfsm():
    return _pfsm(
        satisfies_all(attr("size", in_range(0, 40)),
                      attr("name", length_le(3))),
        attr("size", less_equal(90)),
    )


def _record_rows(sizes):
    return [{"size": s, "name": "x" * (abs(s) % 5)} for s in sizes]


class TestProcessSweep:
    """A process sweep's forked workers match the scalar scan."""

    @staticmethod
    def _check(pfsm, domain, limit):
        from repro.core import dist

        [finding] = dist.run_tasks([("m", "op", pfsm, domain, limit)], 1,
                                   backend="process")
        assert (list(finding.witnesses) if finding else []) == \
            _scalar(pfsm, domain, limit)

    @given(sizes=st.lists(st.integers(min_value=-50, max_value=99),
                          min_size=1, max_size=300),
           limit=st.integers(min_value=1, max_value=40))
    @settings(max_examples=8, deadline=None)
    def test_process_sweep_matches_scalar(self, sizes, limit):
        self._check(_record_pfsm(), Domain(_record_rows(sizes)), limit)

    @given(spec=int_pred, impl=int_pred, rows=int_rows, limit=limits)
    @settings(max_examples=8, deadline=None)
    def test_process_sweep_matches_scalar_on_integers(self, spec, impl,
                                                      rows, limit):
        self._check(_pfsm(spec, impl), Domain(list(rows)), limit)
