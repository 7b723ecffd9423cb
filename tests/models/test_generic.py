"""Figure 8 generic templates (the Table 2 grid is the `figure-8-table-2`
claim of ``repro.claims``)."""

import pytest

from repro.core import Domain, PfsmType, Predicate, in_range
from repro.models import (
    content_attribute_check,
    generic_operation,
    object_type_check,
    reference_consistency_check,
)


class TestTemplates:
    def test_object_type_check(self):
        pfsm = object_type_check(
            "T", "the input",
            Predicate(lambda obj: isinstance(obj, int), "is an integer"),
        )
        assert pfsm.check_type is PfsmType.OBJECT_TYPE
        assert pfsm.step(5).accepted
        assert pfsm.step("5").via_hidden_path  # no impl: hidden

    def test_content_attribute_check(self):
        pfsm = content_attribute_check("C", "the index", in_range(0, 100),
                                       impl=in_range(0, 100))
        assert pfsm.check_type is PfsmType.CONTENT_ATTRIBUTE
        assert pfsm.step(-1).foiled

    def test_reference_consistency_check(self):
        pfsm = reference_consistency_check(
            "R", "the pointer", Predicate(bool, "unchanged"))
        assert pfsm.check_type is PfsmType.REFERENCE_CONSISTENCY
        assert pfsm.step(False).via_hidden_path

    def test_default_activity_text(self):
        pfsm = object_type_check("T", "obj", Predicate(bool, "x"))
        assert "type" in pfsm.activity


class TestGenericOperation:
    def _preds(self):
        return (
            Predicate(lambda obj: isinstance(obj["value"], int), "int typed"),
            Predicate(lambda obj: 0 <= obj["value"] <= 10, "in bounds"),
            Predicate(lambda obj: obj["binding_ok"], "binding preserved"),
        )

    def test_secure_operation_rejects_each_violation(self):
        operation = generic_operation(*self._preds(), secure=True)
        assert operation.run({"value": 5, "binding_ok": True}).completed
        assert operation.run({"value": "x", "binding_ok": True}).foiled_by \
            == "TYPE"
        assert operation.run({"value": 50, "binding_ok": True}).foiled_by \
            == "CONTENT"
        assert operation.run({"value": 5, "binding_ok": False}).foiled_by \
            == "CONSISTENCY"

    def test_insecure_operation_rides_hidden_paths(self):
        operation = generic_operation(*self._preds(), secure=False)
        result = operation.run({"value": 50, "binding_ok": False})
        assert result.completed
        assert len(result.hidden_steps) == 2

    def test_check_order_matches_figure8(self):
        operation = generic_operation(*self._preds())
        assert [p.name for p in operation.pfsms] == \
            ["TYPE", "CONTENT", "CONSISTENCY"]
