"""Analysis tests: hidden-path reports, foil points, the Lemma."""

import pytest

from repro.core import (
    Domain,
    Operation,
    Predicate,
    PrimitiveFSM,
    PropagationGate,
    VulnerabilityModel,
    check_lemma_part1,
    check_lemma_part2,
    hidden_path_report,
    in_range,
    less_equal,
    minimal_foil_points,
    sweep_model,
    verify_lemma,
)


def _model():
    op1 = Operation(
        "op1", "index",
        [PrimitiveFSM("pFSM1", "get index", "x",
                      spec_accepts=in_range(0, 100),
                      impl_accepts=less_equal(100))],
    )
    op2 = Operation(
        "op2", "pointer",
        [PrimitiveFSM("pFSM2", "dispatch", "ptr",
                      spec_accepts=Predicate(
                          lambda s: s["unchanged"], "unchanged"),
                      impl_accepts=None)],
    )
    gate = PropagationGate(
        "corrupt", carry=lambda r: {"unchanged": r.final_object >= 0}
    )
    return VulnerabilityModel("m", [op1, op2], [gate])


def _domains():
    return {
        "pFSM1": Domain.integers(-5, 105),
        "pFSM2": Domain.of({"unchanged": True}, {"unchanged": False}),
    }


class TestHiddenPathReport:
    def test_finds_both_hidden_paths(self):
        findings = hidden_path_report(_model(), _domains())
        assert {f.pfsm_name for f in findings} == {"pFSM1", "pFSM2"}

    def test_witnesses_are_spec_rejected_impl_accepted(self):
        findings = hidden_path_report(_model(), _domains())
        pfsm1 = next(f for f in findings if f.pfsm_name == "pFSM1")
        assert all(w < 0 for w in pfsm1.witnesses)

    def test_witness_limit(self):
        findings = hidden_path_report(_model(), _domains(), limit=2)
        assert all(len(f.witnesses) <= 2 for f in findings)

    def test_skips_pfsms_without_domain(self):
        findings = hidden_path_report(_model(), {"pFSM1": Domain.integers(-5, 5)})
        assert {f.pfsm_name for f in findings} == {"pFSM1"}

    def test_secured_model_has_no_findings(self):
        assert hidden_path_report(_model().fully_secured(), _domains()) == []

    def test_finding_str(self):
        (finding,) = hidden_path_report(
            _model(), {"pFSM1": Domain.integers(-2, -1)}
        )
        assert "pFSM1" in str(finding)

    def test_findings_are_the_model_sweeps(self):
        model = _model()
        findings = hidden_path_report(model, _domains(), limit=3)
        assert findings == list(sweep_model(model, _domains(),
                                            limit=3).findings)
        assert {f.model_name for f in findings} == {"m"}
        assert str(findings[0]).startswith("m/op1/pFSM1 (get index)")


class TestMinimalFoilPoints:
    def test_every_hidden_activity_is_a_foil_point(self):
        points = minimal_foil_points(_model(), -5)
        assert {p.pfsm_name for p in points} == {"pFSM1", "pFSM2"}

    def test_benign_input_has_no_foil_points(self):
        assert minimal_foil_points(_model(), 50) == []

    def test_foil_point_str(self):
        (point, *_rest) = minimal_foil_points(_model(), -5)
        assert "secure" in str(point)

    def test_non_participating_pfsm_not_a_foil_point(self):
        # Add a third pFSM whose hidden path the exploit does not use.
        model = _model()
        extra = PrimitiveFSM(
            "pFSM0", "unrelated", "x",
            spec_accepts=Predicate(lambda x: x != 42, "not 42"),
            impl_accepts=None,
        )
        op1 = model.operations[0]
        new_op1 = Operation(op1.name, op1.object_description,
                            [extra] + list(op1.pfsms))
        model2 = VulnerabilityModel("m2", [new_op1, model.operations[1]],
                                    model.gates)
        points = minimal_foil_points(model2, -5)
        assert "pFSM0" not in {p.pfsm_name for p in points}


class TestLemma:
    def test_part1_holds(self):
        model = _model()
        assert check_lemma_part1(model.operations[0], Domain.integers(-5, 105))

    def test_part2_holds(self):
        assert check_lemma_part2(_model(), -5)

    def test_part2_vacuous_for_benign(self):
        assert check_lemma_part2(_model(), 50)

    def test_verify_lemma_report(self):
        model = _model()
        report = verify_lemma(
            model,
            {"op1": Domain.integers(-5, 105),
             "op2": Domain.of({"unchanged": True}, {"unchanged": False})},
            exploit_input=-5,
        )
        assert report.holds
        assert report.part1_results == {"op1": True, "op2": True}
        assert report.part2_result is True
        assert len(report.foil_points) == 2

    def test_report_without_checks_does_not_hold(self):
        from repro.core.analysis import LemmaReport

        assert not LemmaReport(model_name="empty").holds

    def test_part2_fails_for_a_model_violating_it(self):
        # Construct a pathological "model" where securing op1 does not
        # foil because the gate ignores op1's outcome entirely and the
        # exploit's hidden path lives only in op2: part 2 still holds
        # (securing op2 foils), so instead check the detection path by
        # making every operation's secured copy still compromised —
        # impossible by construction, hence we assert the property holds
        # for all our constructible models.
        model = _model()
        assert check_lemma_part2(model, -5)


class TestMinimalWitness:
    def _pfsm(self):
        from repro.core import PrimitiveFSM, in_range, less_equal

        return PrimitiveFSM("p", "index", "x",
                            spec_accepts=in_range(0, 100),
                            impl_accepts=less_equal(100))

    def test_prefers_structurally_small(self):
        from repro.core import Domain
        from repro.core.analysis import minimal_witness

        witness = minimal_witness(self._pfsm(),
                                  Domain.of(-1000, -73, -5, 50, 200))
        assert witness == -5  # shortest repr among the hidden witnesses

    def test_custom_key(self):
        from repro.core import Domain
        from repro.core.analysis import minimal_witness

        witness = minimal_witness(self._pfsm(),
                                  Domain.of(-1000, -73, -5),
                                  key=lambda value: value)
        assert witness == -1000  # smallest by numeric order

    def test_none_when_secure(self):
        from repro.core import Domain
        from repro.core.analysis import minimal_witness

        assert minimal_witness(self._pfsm(), Domain.integers(0, 100)) is None
