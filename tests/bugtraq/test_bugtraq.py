"""Bugtraq data-layer tests: schema, corpus, generator, database, stats."""

import pytest

from repro.bugtraq import (
    BUFFER_OVERFLOW_CHAIN,
    BugtraqDatabase,
    CORPUS,
    FIGURE1_COUNTS,
    FIGURE1_PERCENTAGES,
    FORMAT_STRING_TRIO,
    STUDIED_CLASSES,
    TABLE1_REPORTS,
    TOTAL_REPORTS,
    VulnerabilityReport,
    corpus_report,
    dominant_categories,
    figure1_breakdown,
    generate_reports,
    studied_family_share,
    table1_ambiguity,
)
from repro.core import ActivityKind, BugtraqCategory, Predicate, never


class TestSchema:
    def test_identifier_with_id(self):
        assert corpus_report(3163).identifier == "#3163"

    def test_identifier_without_id(self):
        xterm = next(r for r in CORPUS if r.software == "xterm")
        assert "xterm" in xterm.identifier

    def test_anchored_category(self):
        report = corpus_report(3163)
        assert report.anchored_category(ActivityKind.GET_INPUT) is \
            BugtraqCategory.INPUT_VALIDATION

    def test_anchored_category_requires_listed_activity(self):
        report = corpus_report(5493)  # has no TRANSFER_CONTROL activity
        with pytest.raises(ValueError):
            report.anchored_category(ActivityKind.TRANSFER_CONTROL)


class TestCorpus:
    def test_paper_ids_present(self):
        for bugtraq_id in (3163, 5493, 3958, 6157, 5960, 4479, 1387, 2210,
                           2264, 1480, 5774, 6255, 2708):
            assert corpus_report(bugtraq_id)

    def test_table1_categories(self):
        assert corpus_report(3163).category is BugtraqCategory.INPUT_VALIDATION
        assert corpus_report(5493).category is BugtraqCategory.BOUNDARY_CONDITION
        assert corpus_report(3958).category is BugtraqCategory.ACCESS_VALIDATION

    def test_buffer_overflow_chain_spans_three_categories(self):
        categories = {corpus_report(i).category for i in BUFFER_OVERFLOW_CHAIN}
        assert len(categories) == 3

    def test_format_string_trio_spans_three_categories(self):
        categories = {corpus_report(i).category for i in FORMAT_STRING_TRIO}
        assert len(categories) == 3

    def test_every_report_has_activities(self):
        for report in CORPUS:
            assert report.activities

    def test_6255_credits_version_0_5_1(self):
        assert corpus_report(6255).version == "0.5.1"


class TestGenerator:
    def test_full_scale_count(self):
        assert len(generate_reports()) == TOTAL_REPORTS

    def test_category_counts_exact(self):
        reports = generate_reports()
        counts = {}
        for report in reports:
            counts[report.category] = counts.get(report.category, 0) + 1
        assert counts == FIGURE1_COUNTS

    def test_counts_sum_to_total(self):
        assert sum(FIGURE1_COUNTS.values()) == TOTAL_REPORTS

    def test_deterministic(self):
        first = generate_reports(total=200, seed=5)
        second = generate_reports(total=200, seed=5)
        assert [r.bugtraq_id for r in first] == [r.bugtraq_id for r in second]
        assert [r.title for r in first] == [r.title for r in second]

    def test_seed_changes_output(self):
        a = generate_reports(total=200, seed=1)
        b = generate_reports(total=200, seed=2)
        assert [r.software for r in a] != [r.software for r in b]

    def test_scaled_counts_sum_exactly(self):
        for total in (100, 500, 1234):
            assert len(generate_reports(total=total)) == total

    def test_unique_ids(self):
        reports = generate_reports(total=500)
        ids = [r.bugtraq_id for r in reports]
        assert len(set(ids)) == len(ids)

    def test_studied_classes_present(self):
        classes = {r.vulnerability_class for r in generate_reports(total=2000)}
        for cls in STUDIED_CLASSES:
            assert cls in classes


class TestDatabase:
    @pytest.fixture(scope="class")
    def db(self):
        return BugtraqDatabase.synthetic(total=1000, seed=3)

    def test_len_and_iter(self, db):
        assert len(db) == 1000
        assert len(list(db)) == 1000

    def test_get_by_id(self, db):
        report = next(iter(db))
        assert db.get(report.bugtraq_id) is report
        assert report.bugtraq_id in db

    def test_category_filter(self, db):
        subset = db.in_category(BugtraqCategory.RACE_CONDITION)
        assert all(r.category is BugtraqCategory.RACE_CONDITION for r in subset)

    def test_class_filter(self, db):
        subset = db.of_class("format string")
        assert len(subset) > 0
        assert all(r.vulnerability_class == "format string" for r in subset)

    def test_software_filter(self, db):
        subset = db.for_software("Sendmail")
        assert all(r.software == "Sendmail" for r in subset)

    def test_remote_filter(self, db):
        assert all(r.remote for r in db.remote_only())

    def test_count_matching_counts_each_satisfying_report(self, db):
        remote = Predicate(lambda report: report.remote, "remote")
        assert db.count_matching(remote) == len(db.remote_only())
        assert db.count_matching(never) == 0

    def test_add_and_duplicate_rejected(self):
        db = BugtraqDatabase()
        report = corpus_report(6255)
        db.add(report)
        with pytest.raises(ValueError):
            db.add(report)

    def test_curated_constructor(self):
        assert len(BugtraqDatabase.curated()) == len(CORPUS)

    def test_category_share(self, db):
        share = db.category_share(BugtraqCategory.INPUT_VALIDATION)
        assert 0.15 < share < 0.30


class TestStats:
    @pytest.fixture(scope="class")
    def db(self):
        return BugtraqDatabase.synthetic()

    def test_figure1_percentages_exact(self, db):
        rows = figure1_breakdown(db)
        assert {row.category: row.percent for row in rows} == \
            FIGURE1_PERCENTAGES

    def test_figure1_sorted_descending(self, db):
        rows = figure1_breakdown(db)
        counts = [row.count for row in rows]
        assert counts == sorted(counts, reverse=True)

    def test_dominant_five(self, db):
        top = dominant_categories(db)
        assert [row.category for row in top] == [
            BugtraqCategory.INPUT_VALIDATION,
            BugtraqCategory.BOUNDARY_CONDITION,
            BugtraqCategory.DESIGN,
            BugtraqCategory.EXCEPTIONAL_CONDITIONS,
            BugtraqCategory.ACCESS_VALIDATION,
        ]

    def test_dominant_five_cover_83_percent(self, db):
        # 23 + 21 + 18 + 11 + 10 = 83% of the database.
        top = dominant_categories(db)
        assert sum(row.percent for row in top) == 83

    def test_studied_family_is_22_percent(self, db):
        count, share = studied_family_share(db)
        assert round(100 * share) == 22
        assert count == 1304

    def test_table1_rows(self):
        rows = table1_ambiguity()
        assert [row.bugtraq_id for row in rows] == list(TABLE1_REPORTS)
        assert all(row.consistent for row in rows)

    def test_table1_three_distinct_categories(self):
        rows = table1_ambiguity()
        assert len({row.assigned_category for row in rows}) == 3

    def test_empty_database_breakdown(self):
        rows = figure1_breakdown(BugtraqDatabase())
        assert all(row.count == 0 for row in rows)

    def test_row_str(self, db):
        assert "%" in str(figure1_breakdown(db)[0])
