"""Predicate catalog and automatic analyzer tests."""

import pytest

from repro.core import (
    ActivityAdapter,
    AutoAnalyzer,
    Domain,
    PREDICATE_CATALOG,
    PfsmType,
    Predicate,
    entries_for_activity,
)
from repro.core.classification import ActivityKind


class TestCatalog:
    def test_paper_patterns_present(self):
        for key in ("non-negative", "int-range", "fits-int32",
                    "length-bound", "no-substring", "no-format-directives",
                    "decoded-path-inside-root", "reference-unchanged"):
            assert key in PREDICATE_CATALOG

    def test_int_range_instantiation(self):
        pred = PREDICATE_CATALOG["int-range"].instantiate(low=0, high=100)
        assert pred(50) and not pred(-1) and not pred(101)

    def test_length_bound(self):
        pred = PREDICATE_CATALOG["length-bound"].instantiate(limit=4)
        assert pred(b"abcd") and not pred(b"abcde")

    def test_no_substring_default_is_traversal(self):
        pred = PREDICATE_CATALOG["no-substring"].instantiate()
        assert not pred("a/../b")
        assert pred("a/b")

    def test_no_format_directives(self):
        pred = PREDICATE_CATALOG["no-format-directives"].instantiate()
        assert pred(b"host") and not pred(b"%n")
        assert pred("plain string")  # str inputs handled too

    def test_fits_int32(self):
        pred = PREDICATE_CATALOG["fits-int32"].instantiate()
        assert pred("100") and not pred(str(2**31))

    def test_decoded_path_inside_root(self):
        from repro.apps import percent_decode

        pred = PREDICATE_CATALOG["decoded-path-inside-root"].instantiate(
            decoder=percent_decode
        )
        assert pred("a/b.exe")
        assert not pred("..%252fc.exe")

    def test_reference_unchanged(self):
        pred = PREDICATE_CATALOG["reference-unchanged"].instantiate()
        assert pred({"unchanged": True}) and not pred({"unchanged": False})
        assert pred(True) and not pred(False)

    def test_default_domains_nonempty(self):
        for entry in PREDICATE_CATALOG.values():
            assert len(entry.default_domain()) > 0

    def test_entries_for_activity(self):
        copy_entries = entries_for_activity(ActivityKind.COPY_TO_BUFFER)
        assert any(e.key == "length-bound" for e in copy_entries)

    def test_check_types_assigned(self):
        assert PREDICATE_CATALOG["fits-int32"].check_type is \
            PfsmType.OBJECT_TYPE
        assert PREDICATE_CATALOG["reference-unchanged"].check_type is \
            PfsmType.REFERENCE_CONSISTENCY


class TestAutoAnalyzer:
    def _adapter(self, name, probe, domain, specs):
        return ActivityAdapter.of(name, f"activity {name}", probe, domain,
                                  specs)

    def test_flags_divergent_activity(self):
        # Implementation accepts everything; spec wants a bound.
        adapter = self._adapter(
            "bound", lambda x: True, Domain.integers(-5, 5),
            [Predicate(lambda x: x >= 0, "x >= 0")],
        )
        report = AutoAnalyzer().analyze("op", [adapter])
        assert report.is_vulnerable
        (verdict,) = report.vulnerable_activities
        assert verdict.activity == "bound"
        assert all(w < 0 for w in verdict.hidden_witnesses)

    def test_secure_activity_passes(self):
        adapter = self._adapter(
            "bound", lambda x: x >= 0, Domain.integers(-5, 5),
            [Predicate(lambda x: x >= 0, "x >= 0")],
        )
        report = AutoAnalyzer().analyze("op", [adapter])
        assert not report.is_vulnerable
        assert "no predicate violations" in report.to_text()

    def test_catalog_entries_usable_as_specs(self):
        adapter = self._adapter(
            "len", lambda n: True, Domain.of(-3, 0, 3),
            [PREDICATE_CATALOG["non-negative"]],
        )
        report = AutoAnalyzer().analyze("op", [adapter])
        (verdict,) = report.vulnerable_activities
        assert verdict.check_type is PfsmType.CONTENT_ATTRIBUTE

    def test_first_violated_candidate_chosen(self):
        loose = Predicate(lambda x: True, "anything")
        tight = Predicate(lambda x: x >= 0, "x >= 0")
        adapter = self._adapter(
            "pick", lambda x: True, Domain.integers(-3, 3), [loose, tight]
        )
        report = AutoAnalyzer().analyze("op", [adapter])
        (verdict,) = report.vulnerable_activities
        assert verdict.spec is tight  # the loose one had no witnesses

    def test_generated_model_is_runnable(self):
        adapter = self._adapter(
            "bound", lambda x: True, Domain.integers(-5, 5),
            [Predicate(lambda x: x >= 0, "x >= 0")],
        )
        report = AutoAnalyzer().analyze("op", [adapter])
        assert report.model.is_compromised_by(-3)
        assert not report.model.is_compromised_by(3)
        assert not report.model.fully_secured().is_compromised_by(-3)

    def test_probe_exceptions_count_as_rejection(self):
        def probe(x):
            if x < 0:
                raise RuntimeError("abort")
            return True

        adapter = self._adapter(
            "robust", probe, Domain.integers(-3, 3),
            [Predicate(lambda x: x >= 0, "x >= 0")],
        )
        report = AutoAnalyzer().analyze("op", [adapter])
        assert not report.is_vulnerable  # rejection by crash is still rejection

    def test_recommendations(self):
        adapter = self._adapter(
            "bound", lambda x: True, Domain.integers(-5, 5),
            [Predicate(lambda x: x >= 0, "x >= 0")],
        )
        report = AutoAnalyzer().analyze("op", [adapter])
        (recommendation,) = report.recommendations()
        assert "x >= 0" in recommendation and "bound" in recommendation

    def test_no_candidates_raises(self):
        adapter = ActivityAdapter.of("none", "d", lambda x: True,
                                     Domain.of(1), [])
        with pytest.raises(ValueError):
            AutoAnalyzer().analyze("op", [adapter])

    def test_multi_activity_report_order(self):
        adapters = [
            self._adapter("a1", lambda x: x >= 0, Domain.integers(-2, 2),
                          [Predicate(lambda x: x >= 0, "x >= 0")]),
            self._adapter("a2", lambda x: True, Domain.integers(-2, 2),
                          [Predicate(lambda x: x >= 0, "x >= 0")]),
        ]
        report = AutoAnalyzer().analyze("op", adapters)
        assert [v.activity for v in report.verdicts] == ["a1", "a2"]
        assert [v.activity for v in report.vulnerable_activities] == ["a2"]

    def test_probe_runs_only_on_spec_rejected_objects(self):
        probed = []

        def probe(x):
            probed.append(x)
            return True

        adapter = self._adapter(
            "bound", probe, Domain.of(-2, 3, -1, -2, 0, -1),
            [Predicate(lambda x: x >= 0, "x >= 0")],
        )
        (verdict,) = AutoAnalyzer().analyze("op", [adapter]).verdicts
        assert verdict.hidden_witnesses == (-2, -1, -2, -1)
        assert probed == [-2, -1]

    def test_model_carries_the_chosen_candidate_and_its_type(self):
        loose = (Predicate(lambda x: True, "anything"),
                 PfsmType.OBJECT_TYPE)
        tight = (Predicate(lambda x: x >= 0, "x >= 0"),
                 PfsmType.CONTENT_ATTRIBUTE)
        vulnerable = self._adapter("pick", lambda x: True,
                                   Domain.integers(-3, 3), [loose, tight])
        secure = self._adapter("keep", lambda x: x >= 0,
                               Domain.integers(-3, 3), [loose, tight])
        report = AutoAnalyzer().analyze("op", [vulnerable, secure])
        pfsms = report.model.operations[0].pfsms
        for verdict, pfsm in zip(report.verdicts, pfsms):
            assert pfsm.spec_accepts is verdict.spec
            assert pfsm.check_type is verdict.check_type
        assert [p.check_type for p in pfsms] == [
            PfsmType.CONTENT_ATTRIBUTE, PfsmType.OBJECT_TYPE]
