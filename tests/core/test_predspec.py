"""PredicateSpec properties: every constructor and combinator must
survive ``to_spec -> from_spec`` and ``pickle`` with its decision
function intact, over randomized int/str domains (satellite of the
distributed-sweep work — the spec layer is what makes sweep tasks
picklable across process boundaries)."""

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Predicate,
    PrimitiveFSM,
    UnknownPredicateError,
    always,
    attr,
    contains,
    equals,
    from_spec,
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
    spec_digest,
    to_spec,
    truthy,
)
from repro import obs
from repro.core import plan

#: A named predicate at module scope: workers re-register it when they
#: import this module to resolve the ``["named", ...]`` spec.
is_even = named_predicate("is_even", lambda n: n % 2 == 0,
                          "the value is even")


class Box:
    def __init__(self, value):
        self.value = value


ints = st.integers(min_value=-50, max_value=50)
texts = st.text(min_size=0, max_size=8)


def _constructors():
    """(label, predicate, value strategy) for every spec-carrying shape."""
    return [
        ("always", always, ints),
        ("never", never, ints),
        ("truthy", truthy(), ints),
        ("equals", equals(7), ints),
        ("equals_str", equals("abc"), texts),
        ("in_range", in_range(-3, 9), ints),
        ("less_equal", less_equal(4), ints),
        ("greater_equal", greater_equal(-2), ints),
        ("length_le", length_le(3), texts),
        ("matches", matches(r"a+b"), texts),
        ("contains", contains("a"), texts),
        ("not_contains", not_contains("b"), texts),
        ("is_instance", is_instance(int), ints),
        ("named", is_even, ints),
        ("and", in_range(-3, 9) & is_even, ints),
        ("or", less_equal(-10) | greater_equal(10), ints),
        ("not", ~in_range(0, 5), ints),
        ("satisfies_all", satisfies_all(greater_equal(-20), less_equal(20),
                                        is_even), ints),
        ("satisfies_any", satisfies_any(equals(1), equals(2), is_even), ints),
        ("attr", attr("value", in_range(0, 10)), ints),
        ("renamed", in_range(0, 5).renamed("small"), ints),
    ]


def _sample(pred, label, value):
    return pred(Box(value)) if label == "attr" else pred(value)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("label,pred,_strategy", _constructors(),
                             ids=[c[0] for c in _constructors()])
    def test_spec_round_trips(self, label, pred, _strategy):
        spec = to_spec(pred)
        rebuilt = from_spec(spec)
        assert to_spec(rebuilt) == spec
        assert rebuilt.spec_hash == pred.spec_hash

    @given(st.data())
    @settings(max_examples=60)
    def test_evaluate_agreement(self, data):
        for label, pred, strategy in _constructors():
            value = data.draw(strategy, label=label)
            rebuilt = from_spec(to_spec(pred))
            assert _sample(rebuilt, label, value) == \
                _sample(pred, label, value), label

    @given(st.data())
    @settings(max_examples=60)
    def test_pickle_agreement(self, data):
        for label, pred, strategy in _constructors():
            value = data.draw(strategy, label=label)
            clone = pickle.loads(pickle.dumps(pred))
            assert _sample(clone, label, value) == \
                _sample(pred, label, value), label

    def test_intervals_survive_round_trip(self):
        assert plan.compile_spec(["range", 0, 100]).root.intervals == \
            ((0, 100),)
        assert plan.compile_spec(
            to_spec(from_spec(to_spec(in_range(-3, 9))))).root.intervals \
            == ((-3, 9),)

    def test_opaque_predicate_raises(self):
        opaque = Predicate(lambda x: x > 0, "positive")
        assert opaque.spec is None
        with pytest.raises(ValueError):
            to_spec(opaque)

    def test_unknown_named_predicate_raises(self):
        with pytest.raises(UnknownPredicateError):
            from_spec(["named", "tests.core.test_predspec", "no-such-name"])

    def test_rebind_drops_spec(self):
        pred = in_range(0, 5)
        assert pred.spec is not None
        assert pred.rebind(lambda x: True).spec is None

    def test_spec_digest_is_canonical(self):
        assert spec_digest(["range", 0, 5]) == spec_digest(["range", 0, 5])
        assert spec_digest(["range", 0, 5]) != spec_digest(["range", 0, 6])


def _remote_eval(payload):
    """Worker-side evaluation for the cross-process integration test."""
    pred, values = pickle.loads(payload)
    return [pred(v) for v in values]


class TestCrossProcess:
    def test_predicates_pickle_across_process_pool(self):
        values = list(range(-10, 11))
        preds = [in_range(-3, 9) & is_even, ~less_equal(0), is_even,
                 satisfies_any(equals(1), is_even)]
        payloads = [pickle.dumps((p, values)) for p in preds]
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(_remote_eval, payloads))
        local = [[p(v) for v in values] for p in preds]
        assert remote == local


class TestOpaquePredicates:
    """Opaque predicates never reach the compiler."""

    def test_opaque_predicates_never_compile(self):
        opaque = Predicate(lambda x: x > 0, "positive")
        assert opaque.spec is None
        registry = obs.get_registry()
        registry.reset()
        registry.enable()
        try:
            for _ in range(2):
                pfsm = PrimitiveFSM("p", "a", "x", spec_accepts=opaque,
                                    impl_accepts=length_le(8))
                assert plan.program_for(pfsm) is None
        finally:
            registry.disable()
            compiles = registry.counters().get("plan.compiles", 0)
            registry.reset()
        assert compiles == 0
