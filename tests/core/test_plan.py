"""The predicate compiler and cost-based planner (``repro.core.plan``).

The load-bearing property is *equivalence*: a compiled scan program
must agree with interpretive ``Predicate.evaluate`` for every predspec
constructor and combinator, over randomized mixed-type domains — the
same exception-shielding, the same coercion asymmetries (``in_range``
coerces via ``int()``, ``equals`` does not), the same short-circuiting
verdicts — including after pickling across a process boundary.  The
rest covers the optimizer units: constant folding, order-insensitive
digests, interval lowering, the plan cache, and cost-based strategy
selection.
"""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Domain,
    Predicate,
    PrimitiveFSM,
    always,
    attr,
    contains,
    equals,
    greater_equal,
    in_range,
    is_instance,
    length_le,
    less_equal,
    matches,
    named_predicate,
    never,
    not_contains,
    satisfies_all,
    satisfies_any,
    to_spec,
    truthy,
)
from repro.core import plan
from repro.core.sweep import hidden_witness_scan

#: Module-scope named predicate: workers re-register it on import, so
#: ``["named", ...]`` nodes resolve inside pickled programs too.
plan_is_odd = named_predicate("plan_is_odd", lambda n: n % 2 == 1,
                              "the value is odd")


class Box:
    def __init__(self, value):
        self.value = value


ints = st.integers(min_value=-50, max_value=50)
texts = st.text(min_size=0, max_size=8)
#: Adversarial mixed-type values: every predicate sees every shape, so
#: shielding and coercion must line up between compiled and interp.
mixed = st.one_of(
    ints,
    texts,
    st.booleans(),
    st.floats(allow_nan=False, min_value=-50, max_value=50),
    st.none(),
    st.lists(ints, max_size=3),
)


@pytest.fixture(autouse=True)
def _fresh_planner():
    plan.reset()
    yield
    plan.reset()


def _constructors():
    """(label, predicate) for every spec-carrying shape."""
    return [
        ("always", always),
        ("never", never),
        ("truthy", truthy()),
        ("equals", equals(7)),
        ("equals_str", equals("abc")),
        ("in_range", in_range(-3, 9)),
        ("less_equal", less_equal(4)),
        ("greater_equal", greater_equal(-2)),
        ("length_le", length_le(3)),
        ("matches", matches(r"a+b")),
        ("contains", contains("a")),
        ("not_contains", not_contains("b")),
        ("is_instance", is_instance(int)),
        ("named", plan_is_odd),
        ("and", in_range(-3, 9) & plan_is_odd),
        ("or", less_equal(-10) | greater_equal(10)),
        ("not", ~in_range(0, 5)),
        ("satisfies_all", satisfies_all(greater_equal(-20), less_equal(20),
                                        plan_is_odd)),
        ("satisfies_any", satisfies_any(equals(1), equals(2), plan_is_odd)),
        ("attr", attr("value", in_range(0, 10))),
        ("renamed", in_range(0, 5).renamed("small")),
        ("deep", satisfies_all(is_instance(str), length_le(6),
                               not_contains("%n")) | equals("ok")),
    ]


def _wrap(label, value):
    return Box(value) if label == "attr" else value


class TestCompiledEquivalence:
    @given(st.data())
    @settings(max_examples=80)
    def test_every_constructor_agrees_on_mixed_domains(self, data):
        for label, pred in _constructors():
            program = plan.compile_spec(to_spec(pred))
            value = _wrap(label, data.draw(mixed, label=label))
            assert program.evaluate(value) == pred.evaluate(value), label

    @given(st.data())
    @settings(max_examples=40)
    def test_agreement_survives_pickle(self, data):
        for label, pred in _constructors():
            program = pickle.loads(pickle.dumps(
                plan.compile_spec(to_spec(pred))))
            value = _wrap(label, data.draw(mixed, label=label))
            assert program.evaluate(value) == pred.evaluate(value), label

    def test_coercion_asymmetry_is_preserved(self):
        # in_range coerces via int(); equals does not; bool is an int.
        rng = plan.compile_spec(to_spec(in_range(0, 9)))
        eq = plan.compile_spec(to_spec(equals(5)))
        for value in ("5", 5, 5.4, True, None, "x"):
            assert rng.evaluate(value) == in_range(0, 9).evaluate(value), \
                repr(value)
            assert eq.evaluate(value) == equals(5).evaluate(value), \
                repr(value)

    def test_exception_shielding_matches_interp(self):
        # length_le(3) over an int raises inside; both sides say False.
        pred = length_le(3) & contains("a")
        program = plan.compile_spec(to_spec(pred))
        assert program.evaluate(17) is False
        assert pred.evaluate(17) is False

    def test_hidden_scan_matches_naive_loop(self):
        domain = Domain(["ok", "%n" * 5, "aaab", 7, -3, "aab", None, 12,
                         "aaaaaaaab", True, 4.5] * 3)
        pfsm = PrimitiveFSM(
            "p", "scan", "x",
            spec_accepts=satisfies_all(is_instance(str), length_le(6),
                                       not_contains("%n")),
            impl_accepts=length_le(40))
        naive = []
        for obj in domain:
            if pfsm.takes_hidden_path(obj):
                naive.append(obj)
                if len(naive) >= 10:
                    break
        got = hidden_witness_scan(pfsm, domain, limit=10)
        assert got == naive


def _remote_program_eval(payload):
    blob, values = payload
    program = pickle.loads(blob)
    return [program.evaluate(value) for value in values]


class TestCrossProcessPrograms:
    def test_pickled_programs_agree_across_a_pool(self):
        values = [-7, 0, 3, "abc", "aab", True, None, 49]
        cases = [(label, pred) for label, pred in _constructors()
                 if label != "attr"]  # Box is test-local: not picklable
        payloads = [(pickle.dumps(plan.compile_spec(to_spec(pred))), values)
                    for _label, pred in cases]
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(_remote_program_eval, payloads))
        for (label, pred), verdicts in zip(cases, remote):
            assert verdicts == [pred.evaluate(v) for v in values], label

    def test_pickled_program_round_trips_its_verdicts(self):
        pred = satisfies_all(is_instance(str), length_le(6),
                             not_contains("%n")) & contains("/")
        b = plan.compile_spec(to_spec(pred))
        blob = pickle.dumps(b)
        plan.reset()  # the clone recompiles from its spec alone
        clone = pickle.loads(blob)
        assert clone is not b
        assert clone.digest == b.digest and clone.spec == b.spec
        for value in ("hello", "%n" * 4, "a/b", 9):
            assert clone.evaluate(value) == b.evaluate(value) \
                == pred.evaluate(value)

    def test_program_pickles_as_its_spec_alone(self):
        pred = satisfies_all(is_instance(str), length_le(6)) & contains("/")
        program = plan.compile_spec(to_spec(pred))
        rebuild, args = program.__reduce__()
        assert args == (program.spec,)
        compiles = plan.stats()["compiles"]
        # Unpickled where its spec is cached, it is the cached program.
        assert pickle.loads(pickle.dumps(program)) is program
        assert plan.stats()["compiles"] == compiles


class TestScanProgramCalls:
    def test_evaluate_is_call_and_takes_one_argument(self):
        pred = in_range(0, 100) & contains("x") | length_le(2)
        program = plan.compile_spec(to_spec(pred))
        for value in (5, "x", "abc", "ab", [1], None, 500):
            assert program.evaluate(value) == program(value) \
                == pred.evaluate(value), repr(value)
        with pytest.raises(TypeError):
            program.evaluate("x", {})


class TestSharedSubtrees:
    """Programs whose specs share a costly subtree each judge it
    themselves: no verdict passes from one program to another."""

    def _shared(self):
        return satisfies_all(is_instance(str), length_le(6),
                             not_contains("%n"))

    def test_programs_sharing_a_subtree_agree_with_the_interpreter(self):
        preds = [self._shared() & not_contains("%s"),
                 self._shared() & contains("/"),
                 self._shared()]
        programs = [plan.compile_spec(to_spec(p)) for p in preds]
        assert len({p.digest for p in programs}) == len(preds)
        values = ["hello", "%n%n", "a/b", "%s", "toolongvalue", "", 7, None]
        for value in values * 2:  # a repeat sees no carried-over verdict
            for pred, program in zip(preds, programs):
                assert program.evaluate(value) == pred.evaluate(value), \
                    (pred, value)

    def test_unhashable_objects_judge_through_a_shared_subtree(self):
        shared = satisfies_all(length_le(5), truthy())
        plan.compile_spec(to_spec(shared & contains("x")))
        pred = shared & length_le(9)
        program = plan.compile_spec(to_spec(pred))
        for value in ([1, 2, 3], [], {"x": 1}, [0] * 7):
            assert program.evaluate(value) == pred.evaluate(value), \
                repr(value)


class TestFolding:
    def _digest(self, spec):
        return plan._build(spec).digest

    def test_and_unit_and_absorbing_elements(self):
        rng = to_spec(in_range(0, 5))
        assert self._digest(["and", ["true"], rng]) == self._digest(rng)
        assert self._digest(["and", ["false"], rng]) == \
            self._digest(["false"])
        assert self._digest(["or", ["false"], rng]) == self._digest(rng)
        assert self._digest(["or", ["true"], rng]) == self._digest(["true"])

    def test_double_negation_eliminated(self):
        rng = to_spec(in_range(0, 5))
        assert self._digest(["not", ["not", rng]]) == self._digest(rng)

    def test_duplicate_conjuncts_deduped(self):
        rng = to_spec(in_range(0, 5))
        assert self._digest(["and", rng, rng]) == self._digest(rng)

    def test_junction_digests_are_order_insensitive(self):
        a, b = to_spec(in_range(0, 5)), to_spec(contains("x"))
        assert self._digest(["and", a, b]) == self._digest(["and", b, a])
        assert self._digest(["or", a, b]) == self._digest(["or", b, a])

    def test_nested_junctions_flatten(self):
        a, b, c = (to_spec(in_range(0, 5)), to_spec(contains("x")),
                   to_spec(length_le(3)))
        assert self._digest(["and", a, ["and", b, c]]) == \
            self._digest(["and", a, b, c])


class TestIntervalLowering:
    def test_closed_comparison_subtree_is_lowered(self):
        program = plan.compile_spec(
            ["and", to_spec(in_range(0, 100)), to_spec(less_equal(50))])
        assert program.lowered >= 1

    def test_lowered_subtree_guards_exact_int_type(self):
        pred = in_range(0, 100) & less_equal(50)
        program = plan.compile_spec(to_spec(pred))
        # "30" coerces through int() on the general path; True is an
        # int but not `type is int`; both must match interp exactly.
        for value in (30, "30", True, 30.5, 200, None):
            assert program.evaluate(value) == pred.evaluate(value), \
                repr(value)

    def test_eq_subtree_not_lowered_with_coercing_siblings(self):
        # equals does not coerce; the fused interval path must not
        # pretend it does.
        pred = equals(5) & in_range(0, 9)
        program = plan.compile_spec(to_spec(pred))
        assert program.evaluate("5") == pred.evaluate("5") == False  # noqa: E712


class TestPlanCache:
    def test_lru_eviction_and_stats(self):
        cache = plan.PlanCache(maxsize=2)
        for i in range(3):
            cache.put(f"d{i}", plan.compile_spec(to_spec(equals(i))))
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2 and stats["maxsize"] == 2
        assert cache.get("d0") is None  # evicted oldest
        assert cache.get("d2") is not None

    def test_compile_spec_reuses_the_module_cache(self):
        spec = to_spec(in_range(0, 5) & contains("x"))
        first = plan.compile_spec(spec)
        second = plan.compile_spec(spec)
        assert first is second
        assert plan.stats()["hits"] >= 1

    def test_malformed_spec_raises(self):
        with pytest.raises(Exception):
            plan.compile_spec(["no_such_op", 1, 2])

    def test_reset_invalidates_program_memos(self):
        pfsm = PrimitiveFSM("p", "scan", "x",
                            spec_accepts=in_range(0, 5) & contains("x"),
                            impl_accepts=length_le(9))
        first = plan.program_for(pfsm)
        assert plan.program_for(pfsm) is first
        plan.reset()
        second = plan.program_for(pfsm)
        assert second is not first and second.digest == first.digest
        assert plan.stats()["compiles"] == 1  # compiled into the new cache

    def test_shared_subtree_does_not_churn_other_programs(self):
        def shared():
            return satisfies_all(is_instance(str), length_le(64),
                                 not_contains("%n"))

        a = PrimitiveFSM("a", "scan", "x",
                         spec_accepts=shared() & not_contains("%s"),
                         impl_accepts=length_le(200))
        b = PrimitiveFSM("b", "scan", "x",
                         spec_accepts=shared() & contains("/"),
                         impl_accepts=length_le(200))
        first = plan.program_for(a)
        assert first is not None
        assert plan.program_for(b) is not None
        before = plan.stats()
        # Compiling b, which shares a costly subtree with a, neither
        # evicts a's program nor invalidates a's memo.
        assert plan.program_for(a) is first
        after = plan.stats()
        assert after["compiles"] == before["compiles"]
        assert after["evictions"] == before["evictions"]


class TestStrategySelection:
    def _pfsm(self, spec=None, impl=None):
        return PrimitiveFSM("p", "scan", "x",
                            spec_accepts=spec or in_range(0, 5),
                            impl_accepts=impl if impl is not None
                            else less_equal(10))

    def test_interval_beats_compiled_on_range_domains(self):
        chosen = plan.plan_scan(self._pfsm(), Domain.integers(-5, 10**6))
        assert chosen.strategy == "interval"
        assert chosen.est_cost <= 10

    def test_compiled_on_list_domains(self):
        chosen = plan.plan_scan(self._pfsm(), Domain.of(*range(50)))
        assert chosen.strategy == "compiled"
        assert chosen.program is not None

    def test_opaque_degrades_to_cached_then_plain(self):
        opaque = self._pfsm(spec=Predicate(lambda x: x > 0, "opaque"))
        domain = Domain.of(*range(50))
        assert plan.plan_scan(opaque, domain).strategy == "plain"

    def test_disabled_planner_compiles_nothing(self):
        pfsm = self._pfsm()
        with plan.disabled():
            assert not plan.is_enabled()
            assert plan.program_for(pfsm) is None
            assert plan.task_cost(("m", "op", pfsm,
                                   Domain.of(1, 2, 3), 5)) is None
        assert plan.is_enabled()

    def test_describe_plan_shape(self):
        info = plan.describe_plan(self._pfsm(), Domain.of(*range(20)))
        assert info["strategy"] == "compiled"
        for key in ("est_cost", "objects", "reason", "digest",
                    "program_cost", "leaves", "lowered_nodes"):
            assert key in info

    def test_rebind_invalidates_the_program_memo(self):
        spec = in_range(0, 5)
        pfsm = self._pfsm(spec=spec)
        assert plan.program_for(pfsm) is not None
        spec.rebind(lambda x: True)  # opaque now
        assert plan.program_for(pfsm) is None
