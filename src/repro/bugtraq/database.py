"""Query layer over a set of vulnerability reports.

Provides the operations the paper's statistical study needs — counting
by category, filtering by class/software/remote-ness, and looking up the
curated case-study reports — over either the synthetic full-scale
database or any subset.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from ..core.classification import BugtraqCategory
from ..obs import DEFAULT as _OBS
from .corpus import CORPUS
from .generator import generate_reports
from .schema import VulnerabilityReport

__all__ = ["BugtraqDatabase"]


class BugtraqDatabase:
    """An in-memory collection of vulnerability reports.

    Aggregations (:meth:`category_counts`, :meth:`class_counts`) are
    computed once and cached — corpus-scale statistics sweeps re-query
    them per figure/table, and at 5925 reports the re-scan used to
    dominate.  The cache is invalidated on :meth:`add`.
    """

    def __init__(self, reports: Iterable[VulnerabilityReport] = ()) -> None:
        self._reports: List[VulnerabilityReport] = list(reports)
        self._by_id: Dict[int, VulnerabilityReport] = {
            report.bugtraq_id: report
            for report in self._reports
            if report.bugtraq_id is not None
        }
        self._category_counts: Optional[Counter] = None
        self._class_counts: Optional[Counter] = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def synthetic(cls, total: int = 5925, seed: int = 20021130
                  ) -> "BugtraqDatabase":
        """The full-scale synthetic database (Figure 1 marginals)."""
        return cls(generate_reports(total=total, seed=seed))

    @classmethod
    def curated(cls) -> "BugtraqDatabase":
        """Only the paper's named vulnerabilities."""
        return cls(CORPUS)

    # -- collection protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._reports)

    def __iter__(self) -> Iterator[VulnerabilityReport]:
        return iter(self._reports)

    def add(self, report: VulnerabilityReport) -> None:
        """Insert a report (e.g. the newly discovered #6255)."""
        if report.bugtraq_id is not None and report.bugtraq_id in self._by_id:
            raise ValueError(f"duplicate Bugtraq ID {report.bugtraq_id}")
        self._reports.append(report)
        if report.bugtraq_id is not None:
            self._by_id[report.bugtraq_id] = report
        self._category_counts = None
        self._class_counts = None

    # -- lookup ----------------------------------------------------------------

    def get(self, bugtraq_id: int) -> VulnerabilityReport:
        """Report by Bugtraq ID."""
        if _OBS.enabled:
            _OBS.incr("bugtraq.queries.lookup")
        return self._by_id[bugtraq_id]

    def __contains__(self, bugtraq_id: object) -> bool:
        return bugtraq_id in self._by_id

    # -- queries -------------------------------------------------------------------

    def where(
        self, keep: Callable[[VulnerabilityReport], bool]
    ) -> "BugtraqDatabase":
        """Filtered copy."""
        if _OBS.enabled:
            _OBS.incr("bugtraq.queries.filter")
        return BugtraqDatabase(r for r in self._reports if keep(r))

    def in_category(self, category: BugtraqCategory) -> "BugtraqDatabase":
        """Reports of one category."""
        return self.where(lambda r: r.category is category)

    def of_class(self, vulnerability_class: str) -> "BugtraqDatabase":
        """Reports of one fine-grained class."""
        return self.where(lambda r: r.vulnerability_class == vulnerability_class)

    def for_software(self, software: str) -> "BugtraqDatabase":
        """Reports against one piece of software."""
        return self.where(lambda r: r.software == software)

    def remote_only(self) -> "BugtraqDatabase":
        """Remotely exploitable reports."""
        return self.where(lambda r: r.remote)

    # -- aggregation ---------------------------------------------------------------------

    def category_counts(self) -> Counter:
        """Report count per category (cached; callers get a copy)."""
        if self._category_counts is None:
            if _OBS.enabled:
                _OBS.incr("bugtraq.agg.computed")
            self._category_counts = Counter(
                report.category for report in self._reports
            )
        elif _OBS.enabled:
            _OBS.incr("bugtraq.agg.cache_hits")
        return Counter(self._category_counts)

    def class_counts(self) -> Counter:
        """Report count per fine-grained vulnerability class (cached;
        callers get a copy)."""
        if self._class_counts is None:
            if _OBS.enabled:
                _OBS.incr("bugtraq.agg.computed")
            self._class_counts = Counter(
                report.vulnerability_class for report in self._reports
            )
        elif _OBS.enabled:
            _OBS.incr("bugtraq.agg.cache_hits")
        return Counter(self._class_counts)

    def category_share(self, category: BugtraqCategory) -> float:
        """Fraction of the database in one category."""
        if not self._reports:
            return 0.0
        return self.category_counts()[category] / len(self._reports)

    def count_matching(self, pred: Any) -> int:
        """Reports satisfying a :class:`~repro.core.predicates.Predicate`
        (its ``evaluate`` called once per report)."""
        if _OBS.enabled:
            _OBS.incr("bugtraq.queries.count_matching")
        return sum(map(pred.evaluate, self._reports))
