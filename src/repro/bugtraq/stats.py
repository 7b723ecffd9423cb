"""Statistical analysis of the vulnerability database (Section 3).

Regenerates the paper's quantitative artifacts:

* :func:`figure1_breakdown` — the category pie chart's numbers: count
  and integer percentage per category, sorted as the paper lists them.
* :func:`studied_family_share` — the Section 1 claim that the studied
  classes constitute 22% of all vulnerabilities.
* :func:`table1_ambiguity` — Table 1's demonstration that the same
  vulnerability type lands in three categories depending on which
  elementary activity anchors the classification.
* :func:`dominant_categories` — the "pie chart is dominated by five
  categories" observation (Section 3.1).

Aggregates ride the database's cached counters and the predicate batch
path (:meth:`~repro.bugtraq.database.BugtraqDatabase.count_matching`),
so repeated figure/table regeneration over the full 5925-report corpus
costs one scan, not one per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.classification import ActivityKind, BugtraqCategory, categorize_by_activity
from ..core.predicates import Predicate
from .corpus import STUDIED_CLASSES, TABLE1_REPORTS, corpus_report
from .database import BugtraqDatabase

__all__ = [
    "CategoryRow",
    "figure1_breakdown",
    "studied_family_share",
    "remote_share",
    "dominant_categories",
    "Table1Row",
    "table1_ambiguity",
]

#: Remote exploitability as a first-class predicate — evaluated over the
#: whole corpus.
REMOTE = Predicate(lambda report: report.remote, "remotely exploitable")


def remote_share(db: BugtraqDatabase) -> Tuple[int, float]:
    """(count, fraction) of remotely exploitable reports, counted in
    one sweep over the corpus."""
    count = db.count_matching(REMOTE)
    return count, count / (len(db) or 1)


@dataclass(frozen=True)
class CategoryRow:
    """One slice of the Figure 1 pie."""

    category: BugtraqCategory
    count: int
    percent: int  # rounded to integer, as the figure displays

    def __str__(self) -> str:
        return f"{self.category.value:<45} {self.count:>5}  {self.percent:>3}%"


def figure1_breakdown(db: BugtraqDatabase) -> List[CategoryRow]:
    """Category counts and rounded percentages, descending by count."""
    counts = db.category_counts()
    total = len(db) or 1
    rows = [
        CategoryRow(
            category=category,
            count=counts.get(category, 0),
            percent=round(100 * counts.get(category, 0) / total),
        )
        for category in BugtraqCategory
    ]
    rows.sort(key=lambda row: row.count, reverse=True)
    return rows


def dominant_categories(db: BugtraqDatabase, top: int = 5) -> List[CategoryRow]:
    """The five categories the paper notes dominate the chart."""
    return figure1_breakdown(db)[:top]


def studied_family_share(db: BugtraqDatabase) -> Tuple[int, float]:
    """(count, fraction) of reports in the studied vulnerability classes
    (stack/heap/integer overflow, input validation, format string) —
    the Section 1 "22% of all vulnerabilities" figure."""
    class_counts = db.class_counts()
    count = sum(class_counts.get(cls, 0) for cls in STUDIED_CLASSES)
    return count, count / (len(db) or 1)


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1: a signed-integer-overflow report, the
    elementary activity anchoring its classification, and the category
    that anchor yields."""

    bugtraq_id: int
    description: str
    elementary_activity: ActivityKind
    assigned_category: BugtraqCategory
    anchored_category: BugtraqCategory

    @property
    def consistent(self) -> bool:
        """Does activity-anchored classification reproduce the analyst's
        assignment?  (Table 1 shows it does — that's the mechanism.)"""
        return self.assigned_category is self.anchored_category


#: The activity each Table 1 analyst anchored on, per report.
_TABLE1_ANCHORS: Dict[int, ActivityKind] = {
    3163: ActivityKind.GET_INPUT,
    5493: ActivityKind.USE_AS_INDEX,
    3958: ActivityKind.TRANSFER_CONTROL,
}


def table1_ambiguity() -> List[Table1Row]:
    """Reproduce Table 1: three reports of the *same* vulnerability type
    assigned three different categories, each explained by its anchoring
    elementary activity."""
    rows: List[Table1Row] = []
    for bugtraq_id in TABLE1_REPORTS:
        report = corpus_report(bugtraq_id)
        anchor = _TABLE1_ANCHORS[bugtraq_id]
        rows.append(
            Table1Row(
                bugtraq_id=bugtraq_id,
                description=report.title,
                elementary_activity=anchor,
                assigned_category=report.category,
                anchored_category=categorize_by_activity(anchor),
            )
        )
    return rows
