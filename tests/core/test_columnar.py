"""The columnar domain engine (repro.core.columnar).

The engine's contract is *bit-for-bit equivalence*: whenever the
columnar strategy takes a task, its witnesses must match the compiled
scalar scan exactly — same objects, same domain iteration order, same
per-occurrence duplicates, same ``limit`` truncation.  The property
tests here drive that claim over generated integer, text, and record
domains, with float arguments next to 2**53 (where float64 stops
holding every integer) among the integer specs, and in the forked
workers of a process-backend sweep, which scan the domain they
inherit.  The kernels run on numpy, so the module skips where it is
missing; there the planner never picks the columnar strategy
(``tests/test_imports.py`` checks that).

A repeat-heavy domain pins that a kernel masks each distinct object
once and that its findings are the compiled scan's, wire text included.
The unit tests pin the supporting machinery: the per-domain encoding
memo, kernels shared by program digest, and kernel bail-outs (named
predicates, nested ``attr``, mixed-type columns).
"""

import operator

import pytest
from hypothesis import example, given, settings
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
from repro.core.predspec import named_predicate

pytest.importorskip("numpy")


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


def _pfsm(spec, impl):
    return PrimitiveFSM("p", "scan", "x", spec_accepts=spec,
                        impl_accepts=impl)


def _scalar(pfsm, domain, limit):
    """The reference answer: the same scan with columnar bypassed, run by
    a twin pFSM.  The twin compiles its own program, so the reference
    neither reads nor leaves a verdict table the columnar scan of
    ``pfsm`` would answer from instead of running its kernel."""
    twin = _pfsm(pfsm.spec_accepts, pfsm.impl_accepts)
    with columnar.disabled():
        return hidden_witness_scan(twin, domain, limit=limit)


def _columnar_witnesses(pfsm, domain, limit):
    """Witnesses of a scan that must take the columnar strategy, so
    tests fail loudly if the kernel declines."""
    found, counters = _counted(
        lambda: hidden_witness_scan(pfsm, domain, limit=limit))
    assert counters.get("sweep.scans.columnar") == 1, \
        "columnar kernel unexpectedly declined"
    return found


# ---------------------------------------------------------------------------
# Property: columnar ≡ scalar, integer domains.
# ---------------------------------------------------------------------------

bounds = st.integers(min_value=-30, max_value=30)
interval = st.tuples(bounds, bounds).map(lambda p: (min(p), max(p)))

_P53 = 2 ** 53
#: Float arguments: fractional ones, the floats next to ±2**53 (2**53 + 1
#: has no float64, so numpy would round an int64 column onto them), and
#: the non-finite ones.
float_args = st.one_of(
    st.floats(min_value=-30, max_value=30),
    st.sampled_from([float(_P53), float(-_P53), float(_P53 - 1),
                     float(_P53 + 2), float("inf"), float("-inf"),
                     float("nan")]),
)

int_leaf = st.one_of(
    st.just(always),
    st.just(never),
    bounds.map(equals),
    interval.map(lambda iv: in_range(*iv)),
    bounds.map(less_equal),
    bounds.map(greater_equal),
    st.builds(truthy),
    float_args.map(equals),
    float_args.map(less_equal),
    float_args.map(greater_equal),
    st.tuples(float_args, float_args).map(lambda p: in_range(*p)),
)
int_pred = st.one_of(
    int_leaf,
    st.builds(satisfies_all, int_leaf, int_leaf),
    st.builds(satisfies_any, int_leaf, int_leaf),
)

#: Lists drawn from a narrow pool so duplicates are common, not rare,
#: plus the integers next to ±2**53.
int_rows = st.lists(
    st.one_of(st.integers(min_value=-12, max_value=12),
              st.sampled_from([_P53 - 1, _P53, _P53 + 1, -_P53 - 1])),
    min_size=1, max_size=48)
limits = st.integers(min_value=1, max_value=60)
#: The sequence a generated domain is backed by.
containers = st.sampled_from([list, tuple])


class TestEquivalence:
    """columnar ≡ scalar over generated domains."""

    def _check(self, spec, impl, rows, limit, container):
        domain = Domain(container(rows))
        pfsm = _pfsm(spec, impl)
        expected = _scalar(pfsm, domain, limit)
        found, counters = _counted(
            lambda: hidden_witness_scan(pfsm, domain, limit=limit))
        assert counters.get("sweep.scans.columnar") == 1, \
            "columnar kernel unexpectedly declined"
        # The kernel ran: a verdict table did not answer in its place
        # (a scan the table answers judges nothing).  The mask counters
        # cannot show it: a kernel of one cheap leaf caches no mask.
        assert counters.get("sweep.objects.judged", 0) > 0
        assert found == expected

    @given(spec=int_pred, impl=int_pred, rows=int_rows, limit=limits,
           container=containers)
    # float64 holds 2**53 but not 2**53 + 1: a widened column would
    # find both equal to 2.0**53, where Python finds only 2**53.
    @example(spec=never, impl=equals(float(_P53)),
             rows=[_P53 + 1, _P53, 5, 7], limit=10, container=list)
    @example(spec=never, impl=less_equal(float(_P53)),
             rows=[_P53 + 1, _P53, 5, 7], limit=10, container=list)
    @example(spec=never, impl=in_range(float(_P53), float(_P53)),
             rows=[_P53 + 1, _P53, 5, 7], limit=10, container=list)
    @settings(max_examples=60, deadline=None)
    def test_integers(self, spec, impl, rows, limit, container):
        self._check(spec, impl, rows, limit, container)

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
        container=containers,
    )
    @settings(max_examples=60, deadline=None)
    def test_text(self, spec, impl, rows, limit, container):
        self._check(spec, impl, rows, limit, container)

    @given(
        low=bounds, high=bounds,
        cap=st.integers(min_value=0, max_value=5),
        rows=st.lists(
            st.tuples(st.integers(min_value=-12, max_value=12),
                      st.text(alphabet="xyz", min_size=0, max_size=5)),
            min_size=1, max_size=40),
        limit=limits,
        container=containers,
    )
    @settings(max_examples=60, deadline=None)
    def test_records(self, low, high, cap, rows, limit, container):
        lo, hi = min(low, high), max(low, high)
        spec = satisfies_all(attr("size", in_range(lo, hi)),
                             attr("name", length_le(cap)))
        impl = satisfies_any(attr("size", less_equal(hi + 3)),
                             attr("name", truthy()))
        records = [{"size": s, "name": n} for s, n in rows]
        self._check(spec, impl, records, limit, container)

    @pytest.mark.parametrize("impl, edge", [
        (greater_equal(2 ** 63 - 1), 2 ** 63 - 1),
        (less_equal(-2 ** 63), -2 ** 63),
    ])
    def test_bounds_at_the_int64_edges_find_their_value(self, impl, edge):
        # A bound on the edge of int64 is still inside the column's
        # range: the kernel compares against it, and finds the edge.
        rows = [edge] + list(range(300))
        self._check(never, impl, rows, 10, list)
        assert _scalar(_pfsm(never, impl), Domain(rows), 10) == [edge]

    def test_duplicates_reported_per_occurrence(self):
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


def test_product_domain_rescans_read_cached_masks():
    # A record product has no distinct-row index and so no verdict
    # table: a repeat scan runs its kernel again, and the node masks the
    # first scan cached answer it.
    domain = Domain.records(size=Domain.integers(-5, 25),
                            name=Domain.of("", "ok", "%n%n", "abc"))
    pfsm = _pfsm(satisfies_all(attr("size", in_range(0, 10)),
                               attr("name", length_le(2))),
                 attr("size", less_equal(20)))
    first, cold = _counted(lambda: hidden_witness_scan(pfsm, domain, 5))
    again, warm = _counted(lambda: hidden_witness_scan(pfsm, domain, 5))
    assert first == again == _scalar(pfsm, domain, 5)
    assert cold["columnar.masks.misses"] > 0
    assert warm["sweep.scans.columnar"] == 1
    assert warm["columnar.masks.hits"] >= 1
    assert "columnar.masks.misses" not in warm


# ---------------------------------------------------------------------------
# Repeat-heavy domains: the kernels judge each distinct object once.
# ---------------------------------------------------------------------------

def _repeat_heavy(container):
    """8 distinct string objects, three of them equal-but-distinct
    twins of others, tiled 600 times by reference: 4,800 rows, past the
    4,096-row point where a columnar scan used to decline domains with
    this few distinct objects."""
    twin = "".join
    base = ["", "a", "%n", "ab%n%n", "xyz",
            twin(["%", "n"]), twin(["xy", "z"]), twin(["ab%n", "%n"])]
    assert len(set(map(id, base))) == 8
    return Domain(container(base * 600))


class TestRepeatHeavy:
    """columnar ≡ compiled on a repeat-heavy domain."""

    # hidden: the probes longer than 3 characters or carrying "%n"
    PFSM = _pfsm(satisfies_all(length_le(3), not_contains("%n")), truthy())

    @pytest.mark.parametrize("container", [list, tuple])
    def test_matches_the_compiled_scan(self, container):
        from repro.core.sweep import _scan_task
        from repro.core.witness import distinct_rows

        domain = _repeat_heavy(container)
        n = len(domain)
        encoding = columnar.encoding_for(domain)
        assert encoding.n == len(distinct_rows(domain).objects) == 8
        for limit in (0, 1, 7, n, n + 2):
            task = ("m", "op", self.PFSM, domain, limit)
            with columnar.disabled():
                expected = _scan_task(task)
            found, counters = _counted(lambda: _scan_task(task))
            if limit == 0:
                assert found is None and expected is None
                continue
            assert counters.get("sweep.scans.columnar") == 1
            # The first columnar scan masks all 8 objects and keeps
            # their verdicts; every later scan of the program, compiled
            # or columnar, reads them.
            assert counters.get("sweep.objects.judged") == \
                (8 if limit == 1 else 0)
            assert len(found.witnesses) == len(expected.witnesses)
            assert all(a is b for a, b in
                       zip(found.witnesses, expected.witnesses))
            # the same index and codes as the compiled finding carries
            index, codes = found.__dict__["_codes"]
            assert index is expected.__dict__["_codes"][0]
            assert codes == expected.__dict__["_codes"][1]
            assert found.wire_table == expected.wire_table
            table = found.wire_table
            assert [table.values[c] for c in table.codes] == \
                list(found.witnesses)


    def test_compiled_scan_reads_the_table_a_columnar_scan_filled(self):
        from repro.core.witness import distinct_rows

        domain = _repeat_heavy(list)
        pfsm = _pfsm(satisfies_all(length_le(3), not_contains("%n")),
                     truthy())
        found, counters = _counted(
            lambda: hidden_witness_scan(pfsm, domain, limit=1))
        assert counters["sweep.scans.columnar"] == 1
        assert counters["sweep.objects.judged"] == 8
        index = distinct_rows(domain)
        assert index.verdicts[program_for(pfsm)][1] == 8
        # A twin pFSM compiles its own program, which has no table yet.
        twin = _pfsm(satisfies_all(length_le(3), not_contains("%n")),
                     truthy())
        for limit in (1, 5, 2000, 10**9):
            expected = _scalar(twin, domain, limit)
            with columnar.disabled():
                found, counters = _counted(
                    lambda: hidden_witness_scan(pfsm, domain, limit=limit))
            assert counters["sweep.scans.compiled"] == 1
            assert counters["sweep.objects.judged"] == 0
            assert counters["sweep.objects.reused"] > 0
            assert len(found) == len(expected)
            assert all(map(operator.is_, found, expected))
        assert len(expected) == 4 * 600


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
        assert columnar.kernel_for(program, domain) is None
        # The sweep still answers, via the scalar path.
        assert hidden_witness_scan(pfsm, domain, limit=4) == [1, 3, 5, 7]

    def test_opaque_callable_has_no_program(self):
        domain = Domain(list(range(10)))
        pfsm = _pfsm(predicate("opaque")(lambda obj: obj < 5), always)
        assert program_for(pfsm) is None
        assert columnar.kernel_for(None, domain) is None

    def test_mixed_type_column_declines(self):
        rows = [{"size": 1, "name": "a"}, {"size": "two", "name": "b"}] * 8
        domain = Domain(rows)
        needs_mixed = _pfsm(attr("size", less_equal(3)), always)
        program = program_for(needs_mixed)
        assert program is not None
        assert columnar.kernel_for(program, domain) is None
        # A spec touching only the clean column still vectorizes.
        clean = _pfsm(attr("name", equals("a")), always)
        assert columnar.kernel_for(program_for(clean), domain) is not None
        assert _columnar_witnesses(clean, domain, 50) == \
            _scalar(clean, domain, 50)

    def test_nested_attr_declines(self):
        rows = [{"outer": {"inner": i}} for i in range(12)]
        domain = Domain(rows)
        pfsm = _pfsm(attr("outer", attr("inner", less_equal(5))), always)
        program = program_for(pfsm)
        if program is None:
            pytest.skip("planner does not compile nested attr")
        assert columnar.kernel_for(program, domain) is None

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
        assert columnar.kernel_for(program, domain) is None
        assert hidden_witness_scan(pfsm, domain, limit=4) == \
            _scalar(pfsm, domain, 4)


# ---------------------------------------------------------------------------
# Encoding memo: one encoding per domain object, invalidated by config.
# ---------------------------------------------------------------------------

class TestEncodingMemo:
    def test_per_domain_memo_encodes_once(self):
        domain = Domain(list(range(32)))
        e1, counters = _counted(lambda: columnar.encoding_for(domain))
        assert e1 is not None
        assert counters.get("columnar.encodings") == 1
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
        # each over a fresh distinct-row index of the same objects
        assert first.index is not second.index
        assert first.index.objects == second.index.objects == rows

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
    assert "(3 leaves)" in plan.reason
    with columnar.disabled():
        compiled = plan_scan(pfsm, domain)
    assert compiled.strategy == "compiled"
    assert plan.est_cost < compiled.est_cost


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
