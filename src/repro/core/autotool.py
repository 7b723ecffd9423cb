"""The automatic vulnerability analyzer — the paper's stated future
direction ("we hope that a comprehensive understanding of these
predicates will enable us to build an automatic tool for the
vulnerability analysis").

Given an *application adapter* — one probe callable and one object
domain per elementary activity, plus candidate specification predicates
(usually drawn from :mod:`repro.core.catalog`) — the analyzer:

1. takes the probe as the implemented predicate, observed empirically;
2. scans it against every candidate spec, collecting hidden-path
   witnesses (spec-rejected, impl-accepted objects): the sweep's scan
   judges each distinct object once and calls the probe only on the
   objects the candidate spec rejects;
3. assembles the surviving ``(activity, spec, probed impl)`` triples
   into a ready-made :class:`~repro.core.machine.VulnerabilityModel`;
4. emits an :class:`AnalysisReport` with per-activity verdicts, the
   witnesses, and foil recommendations.

The #6255 discovery is this loop run by hand; ``examples/`` and the
integration tests run it mechanically against the executable NULL HTTPD
model and recover the same finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .catalog import CatalogEntry
from .classification import PfsmType
from .machine import VulnerabilityModel
from .operation import Operation
from .pfsm import PrimitiveFSM
from .predicates import Predicate
from .sweep import hidden_witness_scan
from .witness import Domain

__all__ = ["ActivityAdapter", "ActivityVerdict", "AnalysisReport", "AutoAnalyzer"]


@dataclass(frozen=True)
class ActivityAdapter:
    """Everything the analyzer needs about one elementary activity.

    Parameters
    ----------
    name:
        pFSM name in the generated model.
    description:
        What the activity does.
    probe:
        ``probe(obj) -> bool`` — run the (modeled) implementation and
        report whether it *accepted* the object.  Exceptions count as
        rejection.
    domain:
        Candidate objects to probe with.
    candidate_specs:
        Specification predicates to test, most specific first.  Entries
        may be plain predicates or ``(predicate, check_type)`` pairs.
    """

    name: str
    description: str
    probe: Callable[[Any], bool]
    domain: Domain
    candidate_specs: Tuple[Tuple[Predicate, Optional[PfsmType]], ...]

    @staticmethod
    def of(
        name: str,
        description: str,
        probe: Callable[[Any], bool],
        domain: Domain,
        specs: Sequence[Any],
    ) -> "ActivityAdapter":
        """Build an adapter; ``specs`` items may be predicates,
        ``(predicate, type)`` pairs, or catalog entries."""
        normalized: List[Tuple[Predicate, Optional[PfsmType]]] = []
        for spec in specs:
            if isinstance(spec, CatalogEntry):
                normalized.append((spec.instantiate(), spec.check_type))
            elif isinstance(spec, tuple):
                normalized.append((spec[0], spec[1]))
            else:
                normalized.append((spec, None))
        return ActivityAdapter(
            name=name,
            description=description,
            probe=probe,
            domain=domain,
            candidate_specs=tuple(normalized),
        )


@dataclass(frozen=True)
class ActivityVerdict:
    """The analyzer's conclusion for one activity."""

    activity: str
    description: str
    spec: Predicate
    check_type: Optional[PfsmType]
    hidden_witnesses: Tuple[Any, ...]

    @property
    def vulnerable(self) -> bool:
        """Does the implementation violate this spec somewhere?"""
        return bool(self.hidden_witnesses)

    def __str__(self) -> str:
        status = "VULNERABLE" if self.vulnerable else "secure"
        sample = (f"; e.g. {self.hidden_witnesses[0]!r}"
                  if self.hidden_witnesses else "")
        return (f"[{status}] {self.activity}: spec '{self.spec.description}'"
                f"{sample}")


@dataclass
class AnalysisReport:
    """Full output of one automatic analysis."""

    operation_name: str
    verdicts: List[ActivityVerdict] = field(default_factory=list)
    model: Optional[VulnerabilityModel] = None

    @property
    def vulnerable_activities(self) -> List[ActivityVerdict]:
        """Activities with at least one hidden-path witness."""
        return [v for v in self.verdicts if v.vulnerable]

    @property
    def is_vulnerable(self) -> bool:
        """Any activity violated?"""
        return bool(self.vulnerable_activities)

    def recommendations(self) -> List[str]:
        """The prescribed fixes: install each violated spec as the
        implementation check at its activity (Observation 1)."""
        return [
            f"install check '{verdict.spec.description}' at activity "
            f"{verdict.activity!r} ({verdict.description})"
            for verdict in self.vulnerable_activities
        ]

    def to_text(self) -> str:
        """Readable multi-line report."""
        lines = [f"automatic analysis of operation {self.operation_name!r}"]
        lines.extend(f"  {verdict}" for verdict in self.verdicts)
        if self.is_vulnerable:
            lines.append("  recommendations:")
            lines.extend(f"    - {r}" for r in self.recommendations())
        else:
            lines.append("  no predicate violations found")
        return "\n".join(lines)


class AutoAnalyzer:
    """Runs the probe → compare → assemble loop."""

    def __init__(self, witness_limit: int = 5) -> None:
        self._witness_limit = witness_limit

    def analyze(
        self, operation_name: str, adapters: Sequence[ActivityAdapter]
    ) -> AnalysisReport:
        """Analyze one operation's activities end to end."""
        report = AnalysisReport(operation_name=operation_name)
        pfsms: List[PrimitiveFSM] = []
        for adapter in adapters:
            verdict, pfsm = self._judge(adapter)
            report.verdicts.append(verdict)
            pfsms.append(pfsm)
        operation = Operation(operation_name, "the analyzed object", pfsms)
        report.model = VulnerabilityModel(
            name=f"auto: {operation_name}",
            operations=[operation],
            final_consequence="predicate violation reachable",
        )
        return report

    def _judge(self, adapter: ActivityAdapter) -> Tuple[
            ActivityVerdict, PrimitiveFSM]:
        """Pick the candidate spec with the strongest evidence.

        Preference order: the first candidate with hidden-path
        witnesses (a demonstrated violation); otherwise the first
        candidate (which the implementation satisfies — the secure
        case).
        """
        if not adapter.candidate_specs:
            raise ValueError(
                f"activity {adapter.name!r} has no candidate specs"
            )
        probed = Predicate(adapter.probe, f"probed({adapter.name})")
        chosen: Optional[Tuple[PrimitiveFSM, Tuple[Any, ...]]] = None
        for spec, check_type in adapter.candidate_specs:
            pfsm = PrimitiveFSM(
                name=adapter.name,
                activity=adapter.description,
                object_name=adapter.name,
                spec_accepts=spec,
                impl_accepts=probed,
                check_type=check_type,
            )
            witnesses = tuple(hidden_witness_scan(
                pfsm, adapter.domain, limit=self._witness_limit))
            if witnesses or chosen is None:
                chosen = (pfsm, witnesses)
            if witnesses:
                break
        pfsm, witnesses = chosen
        verdict = ActivityVerdict(
            activity=adapter.name,
            description=adapter.description,
            spec=pfsm.spec_accepts,
            check_type=pfsm.check_type,
            hidden_witnesses=witnesses,
        )
        return verdict, pfsm
