"""Predicate algebra tests."""

import pytest

from repro.core import (
    Predicate,
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
    never,
    not_contains,
    predicate,
    satisfies_all,
    satisfies_any,
)


class TestBasics:
    def test_evaluate(self):
        pred = Predicate(lambda x: x > 0, "positive")
        assert pred(5)
        assert not pred(-5)

    def test_description(self):
        assert Predicate(lambda x: True, "anything").description == "anything"

    def test_exception_counts_as_false(self):
        pred = Predicate(lambda x: x["missing"], "lookup")
        assert not pred({})

    def test_holds_raising_propagates(self):
        pred = Predicate(lambda x: x["missing"], "lookup")
        with pytest.raises(KeyError):
            pred.holds_raising({})

    def test_decorator_form(self):
        @predicate("0 <= x <= 100")
        def bounded(x):
            return 0 <= x <= 100

        assert bounded(50)
        assert bounded.description == "0 <= x <= 100"

    def test_always_never(self):
        assert always(object())
        assert not never(object())

    def test_renamed(self):
        pred = in_range(0, 10).renamed("tight bound")
        assert pred.description == "tight bound"
        assert pred(5)

    def test_repr(self):
        assert "positive" in repr(Predicate(lambda x: x > 0, "positive"))


class TestCombinators:
    def test_and(self):
        both = in_range(0, 100) & greater_equal(50)
        assert both(75)
        assert not both(25)
        assert not both(150)

    def test_or(self):
        either = less_equal(0) | greater_equal(100)
        assert either(-5)
        assert either(200)
        assert not either(50)

    def test_not(self):
        assert (~never)(1)
        assert not (~always)(1)

    def test_composed_description(self):
        both = in_range(0, 1) & in_range(0, 2)
        assert "and" in both.description

    def test_implies(self):
        # x > 10 implies x > 5.
        impl = Predicate(lambda x: x > 10, "x>10").implies(
            Predicate(lambda x: x > 5, "x>5")
        )
        assert impl(20) and impl(7) and impl(0)

    def test_satisfies_all(self):
        pred = satisfies_all(greater_equal(0), less_equal(10))
        assert pred(5) and not pred(11)

    def test_satisfies_all_empty_is_always(self):
        assert satisfies_all()(42)

    def test_satisfies_any_empty_is_never(self):
        assert not satisfies_any()(42)


class TestConstructors:
    def test_equals(self):
        assert equals(5)(5) and not equals(5)(6)

    def test_in_range_inclusive(self):
        pred = in_range(0, 100)
        assert pred(0) and pred(100)
        assert not pred(-1) and not pred(101)

    def test_sendmail_predicates(self):
        # The exact Observation 3 example: spec vs implementation.
        spec = in_range(0, 100)
        impl = less_equal(100)
        assert not spec(-563)
        assert impl(-563)  # the divergence that is the vulnerability

    def test_length_le(self):
        assert length_le(3)("abc") and not length_le(3)("abcd")
        assert length_le(3)(b"ab")

    def test_contains(self):
        assert contains("../")("a/../b")
        assert not_contains("../")("a/b")

    def test_contains_bytes(self):
        assert contains(b"%n")(b"AAAA%n")

    def test_matches_str(self):
        assert matches(r"%[dn]")("%n")
        assert not matches(r"%[dn]")("plain")

    def test_matches_bytes(self):
        assert matches(r"%[dn]")(b"give me %d")

    def test_is_instance(self):
        assert is_instance(int)(5)
        assert not is_instance(int)("5")
        assert is_instance(int, str)("5")

    def test_attr_on_mapping(self):
        pred = attr("x", in_range(0, 100))
        assert pred({"x": 50})
        assert not pred({"x": -1})

    def test_attr_on_object(self):
        class Obj:
            x = 7

        assert attr("x", equals(7))(Obj())

    def test_attr_missing_key_is_false(self):
        assert not attr("x", always)({})


class TestDomainQueries:
    def test_witnesses(self):
        pred = in_range(0, 2)
        assert pred.witnesses(range(-5, 5)) == [0, 1, 2]

    def test_witness_limit(self):
        assert len(always.witnesses(range(100), limit=3)) == 3
