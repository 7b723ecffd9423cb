"""The predicate compiler and cost-based planner (``repro.core.plan``).

The load-bearing property is *equivalence*: a compiled scan program
must agree with interpretive ``Predicate.evaluate`` for every predspec
constructor and combinator, over randomized mixed-type domains — the
same exception-shielding, the same coercion asymmetries (``in_range``
coerces via ``int()``, ``equals`` does not), the same short-circuiting
verdicts — including after pickling across a process boundary.  The
rest covers the optimizer units: constant folding, order-insensitive
digests, interval lowering, the per-pFSM program memo, cost-based
strategy selection, and the one strategy decision the planner reports
and the scan runs.
"""

import json
import os
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
from repro import obs
from repro.core import columnar, plan
from repro.core.sweep import hidden_witness_count, hidden_witness_scan
from repro.core.witness import distinct_rows
from repro.models import all_extended_models, all_extended_pfsm_domains

#: Module-scope named predicate: workers re-register it on import, so
#: ``["named", ...]`` nodes resolve inside pickled programs too.
plan_is_odd = named_predicate("plan_is_odd", lambda n: n % 2 == 1,
                              "the value is odd")
#: A named leaf wrapping a comparison: opaque to the planner.
plan_named_range = named_predicate("plan_named_range", in_range(0, 9))


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


def _compiling(fn):
    """``(fn(), programs compiled while it ran)``."""
    registry = obs.get_registry()
    registry.reset()
    registry.enable()
    try:
        result = fn()
    finally:
        registry.disable()
        compiles = registry.counters().get("plan.compiles", 0)
        registry.reset()
    return result, compiles


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
        clone = pickle.loads(pickle.dumps(b))
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
        # Unpickled, it is compiled anew from its spec.
        clone, compiles = _compiling(
            lambda: pickle.loads(pickle.dumps(program)))
        assert compiles == 1
        assert clone is not program and clone.digest == program.digest

    def test_unrebuildable_program_unpickles_as_none(self):
        program = plan.compile_spec(to_spec(in_range(0, 5)))
        # An unknown operator (say, from a newer sender) fails to rebuild:
        # the task degrades to the interpretive scan.
        program.spec = ["no_such_op", 1]
        assert pickle.loads(pickle.dumps(program)) is None


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

    def test_folding_absorbs_opaque_parts_into_closed_forms(self):
        assert plan.compile_spec(
            to_spec(truthy() & never)).root.intervals == ()
        assert plan.compile_spec(
            to_spec(equals(True) | always)).root.intervals == ((None, None),)
        assert plan.compile_spec(
            to_spec(truthy() & always)).root.intervals is None


class TestProgramMemo:
    """A compiled program is memoized on its pFSM alone."""

    @staticmethod
    def _pfsm():
        return PrimitiveFSM("p", "scan", "x",
                            spec_accepts=in_range(0, 5) & contains("x"),
                            impl_accepts=length_le(9))

    def test_malformed_spec_raises(self):
        with pytest.raises(Exception):
            plan.compile_spec(["no_such_op", 1, 2])

    def test_memo_serves_the_same_pfsm_without_compiling(self):
        pfsm = self._pfsm()
        first, compiles = _compiling(lambda: plan.program_for(pfsm))
        assert first is not None and compiles == 1
        again, compiles = _compiling(lambda: plan.program_for(pfsm))
        assert again is first and compiles == 0

    def test_structural_twins_compile_their_own_programs(self):
        a, b = self._pfsm(), self._pfsm()
        (pa, pb), compiles = _compiling(
            lambda: (plan.program_for(a), plan.program_for(b)))
        assert compiles == 2
        assert pa is not pb and pa.digest == pb.digest

    def test_pickled_pfsm_compiles_once_in_the_receiver(self):
        pfsm = self._pfsm()
        domain = Domain.of("x", "xy", "abc", "x" * 8, "x" * 12, 3)
        found = hidden_witness_scan(pfsm, domain, limit=10)
        assert plan.program_for(pfsm) is not None  # the memo is warm
        blob = pickle.dumps(pfsm)
        clone = pickle.loads(blob)
        assert "_plan_program" not in vars(clone)

        def scan_twice():
            return [hidden_witness_scan(clone, domain, limit=10)
                    for _ in range(2)]

        scans, compiles = _compiling(scan_twice)
        assert compiles == 1
        assert scans == [found, found] and found

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_reuses_the_parents_program(self):
        pfsm = self._pfsm()
        program = plan.program_for(pfsm)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                child, compiles = _compiling(lambda: plan.program_for(pfsm))
                os.write(write_end, json.dumps(
                    [child is program, compiles]).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            reply = pipe.read()
        os.waitpid(pid, 0)
        assert json.loads(reply) == [True, 0]


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

    def test_named_leaf_is_opaque(self):
        pfsm = self._pfsm(spec=plan_named_range)
        domain = Domain.integers(-5, 20)
        assert plan.plan_scan(pfsm, domain).strategy == "compiled"
        assert hidden_witness_scan(pfsm, domain, limit=30) == \
            [-5, -4, -3, -2, -1, 10]

    def test_program_is_emitted_from_the_memoized_tree(self):
        pfsm = self._pfsm()
        with plan.disabled():
            root = plan._lowered(pfsm)[1]
            assert root is not None and root.intervals is not None
            assert plan.program_for(pfsm) is None
        program, compiles = _compiling(lambda: plan.program_for(pfsm))
        assert compiles == 1 and program.root is root

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

    def test_impl_rebind_invalidates_the_program_memo(self):
        impl = less_equal(10)
        pfsm = self._pfsm(impl=impl)
        assert plan.program_for(pfsm) is not None
        impl.rebind(lambda x: x <= 3)  # opaque now
        assert plan.program_for(pfsm) is None
        # the rebound check, not the compiled one, decides the witnesses
        assert hidden_witness_scan(pfsm, Domain.of(*range(-2, 12))) \
            == [-2, -1]


# ---------------------------------------------------------------------------
# One strategy decision: the strategy the planner reports is the one the
# scan runs.
# ---------------------------------------------------------------------------

#: ``sweep.scans.*`` counter suffix → the planner's strategy name.
_PLANNED = {"fastpath": "interval", "columnar": "columnar",
            "compiled": "compiled", "plain": "plain"}


def _scan_counted(pfsm, domain, limit):
    """``(witnesses, the strategy the scan counted, counters)``."""
    registry = obs.get_registry()
    registry.reset()
    registry.enable()
    try:
        found = hidden_witness_scan(pfsm, domain, limit=limit)
        counters = registry.counters()
    finally:
        registry.disable()
        registry.reset()
    ran = {_PLANNED[name[len("sweep.scans."):]]: count
           for name, count in counters.items()
           if name.startswith("sweep.scans.")}
    assert list(ran.values()) == [1], ran
    return found, next(iter(ran)), counters


def _agrees(pfsm, domain, limit=5):
    """Assert the planner and the scan agree on ``domain`` (re-iterable),
    and return the plan's description."""
    info = plan.describe_plan(pfsm, domain, limit=limit)
    found, ran, _ = _scan_counted(pfsm, domain, limit)
    assert info["strategy"] == ran, (pfsm.name, info, ran)
    index = distinct_rows(domain)
    if index is not None:
        assert info["objects"] == len(index.objects)
    assert plan.plan_scan(pfsm, domain, limit).est_objects == \
        info["objects"]
    assert hidden_witness_count(pfsm, domain) == \
        len(hidden_witness_scan(pfsm, domain, limit=len(domain)))
    return info


def _bundled_tasks(tile):
    models = all_extended_models()
    for label, per_model in all_extended_pfsm_domains().items():
        for _operation, pfsm in models[label].all_pfsms():
            domain = per_model.get(pfsm.name)
            if domain is not None:
                yield pfsm, Domain(list(domain) * tile)


@pytest.fixture
def tiny_columnar():
    """Let columnar kernels take domains of any size."""
    previous = columnar.set_min_rows(1)
    yield
    columnar.set_min_rows(previous)
    columnar._DOMAIN_MEMO.clear()


class TestOneDecision:
    def _pfsm(self, spec, impl):
        return PrimitiveFSM("p", "scan", "x", spec_accepts=spec,
                            impl_accepts=impl)

    @pytest.mark.parametrize("tile", [1, 40])
    def test_bundled_models(self, tile):
        strategies = {_agrees(pfsm, domain)["strategy"]
                      for pfsm, domain in _bundled_tasks(tile)}
        assert strategies == {"compiled"}

    def test_bundled_models_columnar(self, tiny_columnar):
        strategies = {_agrees(pfsm, domain)["strategy"]
                      for pfsm, domain in _bundled_tasks(40)}
        assert "columnar" in strategies

    def test_tiled_estimates_count_distinct_objects(self):
        for pfsm, domain in _bundled_tasks(40):
            chosen = plan.plan_scan(pfsm, domain)
            base = len(distinct_rows(domain).objects)
            assert chosen.est_objects == base < len(domain)
            assert chosen.est_cost == max(1.0, chosen.program.cost * base)

    def test_record_domain_columnar(self, tiny_columnar):
        rows = [{"size": s, "name": "x" * (s % 4)} for s in range(-8, 40)]
        pfsm = self._pfsm(
            satisfies_all(attr("size", in_range(0, 20)),
                          attr("name", length_le(2))),
            attr("size", less_equal(30)))
        for domain in (Domain(rows * 3), Domain(tuple(rows))):
            assert _agrees(pfsm, domain, limit=7)["strategy"] == "columnar"

    def test_raw_list_is_indexed_once_per_scan(self, tiny_columnar):
        pfsm = self._pfsm(in_range(0, 9), less_equal(20))
        rows = list(range(-5, 30)) * 2
        assert _agrees(pfsm, rows)["strategy"] == "columnar"
        found, _, counters = _scan_counted(pfsm, rows, 100)
        assert found == [x for x in rows if not 0 <= x <= 9 and x <= 20]
        assert counters.get("domain.distinct.built") == 1

    def test_range_with_interval_predicates(self):
        pfsm = self._pfsm(in_range(0, 99), less_equal(10**5))
        domain = Domain.integers(-50, 10**6)
        assert _agrees(pfsm, domain)["strategy"] == "interval"
        assert plan.plan_scan(pfsm, domain).est_objects == len(domain)

    def test_range_without_interval_form(self):
        pfsm = self._pfsm(satisfies_all(in_range(0, 99), truthy()),
                          less_equal(400))
        assert _agrees(pfsm, Domain.integers(-50, 500))["strategy"] \
            in ("columnar", "compiled")

    def test_opaque_pfsm(self):
        pfsm = self._pfsm(Predicate(lambda x: x > 3, "opaque"),
                          less_equal(10))
        for domain in (Domain(list(range(-5, 20)) * 4),
                       Domain.integers(-5, 20)):
            assert _agrees(pfsm, domain)["strategy"] == "plain"

    @pytest.mark.parametrize("min_rows", [None, 1])
    def test_generator_is_not_read_by_planning(self, min_rows):
        pfsm = self._pfsm(in_range(0, 9), less_equal(20))
        items = list(range(-5, 30)) * 3
        reads = []

        def source():
            for item in items:
                reads.append(item)
                yield item

        previous = columnar.set_min_rows(min_rows) if min_rows else None
        try:
            domain = source()
            info = plan.describe_plan(pfsm, domain)
            plan.plan_scan(pfsm, domain)
            plan.task_cost(("m", "op", pfsm, domain, 5))
            assert reads == []
            found, ran, _ = _scan_counted(pfsm, domain, 100)
            assert ran == info["strategy"] == "compiled"
            assert len(reads) == len(items)
            assert found == hidden_witness_scan(pfsm, items, limit=100)
            assert hidden_witness_count(pfsm, source()) == len(found)
        finally:
            if previous is not None:
                columnar.set_min_rows(previous)
