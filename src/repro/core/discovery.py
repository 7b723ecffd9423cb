"""The discovery engine: finding *new* vulnerabilities while modeling
known ones.

The paper's headline demonstration (Section 5.1): while building the FSM
model of NULL HTTPD's known heap overflow, the authors examined the
predicate of each elementary activity against the implementation and
found that pFSM2 — "length(input) <= size(buffer)" — had no IMPL_REJ in
version 0.5.1 either: the ``recv`` loop's ``||``-for-``&&`` logic error
meant the implementation accepted arbitrarily long inputs.  That became
Bugtraq #6255.

The engine generalises the process:

1. For each elementary activity of an operation, take its *spec*
   predicate (derived from the vulnerability report / deduced from the
   application, per the paper's footnote 6).
2. Take the *implemented* predicate **empirically**: the callable that
   runs the executable application model, as a plain
   :class:`~repro.core.predicates.Predicate` (an exception counts as a
   rejection).  The sweep's scan judges each distinct object once and
   calls the probe only on the objects the spec rejects.
3. Report every activity where the probed acceptance set strictly
   exceeds the spec's acceptance set — a hidden path, i.e. a (possibly
   new) vulnerability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..obs import DEFAULT as _OBS
from .operation import Operation
from .pfsm import PrimitiveFSM
from .predicates import Predicate
from .sweep import sweep_operation as _sweep_operation
from .witness import Domain

__all__ = [
    "Finding",
    "DiscoveryEngine",
]


@dataclass(frozen=True)
class Finding:
    """A discovered hidden path at one elementary activity."""

    operation_name: str
    pfsm_name: str
    activity: str
    spec_description: str
    witnesses: Tuple[Any, ...]
    known: bool = False  # True when the activity was already reported

    @property
    def is_new(self) -> bool:
        """A finding at an activity not previously reported — the
        #6255-style discovery."""
        return not self.known

    def __str__(self) -> str:
        tag = "KNOWN" if self.known else "NEW"
        sample = self.witnesses[0] if self.witnesses else None
        return (
            f"[{tag}] {self.operation_name}/{self.pfsm_name}: "
            f"implementation violates spec ({self.spec_description}); "
            f"witness: {sample!r}"
        )


class DiscoveryEngine:
    """Systematic hidden-path sweep over an operation's activities.

    Parameters
    ----------
    known_vulnerable:
        Names of pFSMs already reported as vulnerable (so findings
        elsewhere are flagged new).
    """

    def __init__(self, known_vulnerable: Iterable[str] = ()) -> None:
        self._reported = frozenset(known_vulnerable)

    def sweep_operation(
        self,
        operation: Operation,
        domains: Dict[str, Domain],
        limit: int = 5,
    ) -> List[Finding]:
        """Check every pFSM of ``operation`` against its object domain.

        Scans ride the sweep engine (interval algebra where
        available); results stay in activity order.
        """
        specs = {pfsm.name: pfsm for pfsm in operation.pfsms}
        with _OBS.span("discovery.sweep", operation=operation.name,
                       pfsms=len(operation.pfsms)) as span:
            findings = [
                Finding(
                    operation_name=found.operation_name,
                    pfsm_name=found.pfsm_name,
                    activity=found.activity,
                    spec_description=specs[found.pfsm_name]
                    .spec_accepts.description,
                    witnesses=found.witnesses,
                    known=found.pfsm_name in self._reported,
                )
                for found in _sweep_operation(operation, domains,
                                              limit=limit)
            ]
            span.set(findings=len(findings))
        if _OBS.enabled:
            _OBS.incr("discovery.findings", len(findings))
            _OBS.incr("discovery.findings.new",
                      sum(1 for f in findings if f.is_new))
        return findings

    def sweep_probed(
        self,
        operation_name: str,
        activities: Sequence[Tuple[str, str, Predicate, Callable[[Any], bool]]],
        domains: Dict[str, Domain],
        limit: int = 5,
    ) -> List[Finding]:
        """Sweep with *probed* implementations.

        ``activities`` is a list of ``(pfsm_name, activity_description,
        spec_predicate, accepts_callable)``; each callable becomes the
        implementation predicate ``probed(<pfsm_name>)`` of a pFSM, and
        :meth:`sweep_operation` compares it to the spec over the
        activity's domain — the full §5.1 discovery workflow.
        """
        operation = Operation(operation_name, "the probed object", [
            PrimitiveFSM(
                name=pfsm_name,
                activity=activity,
                object_name=pfsm_name,
                spec_accepts=spec,
                impl_accepts=Predicate(accepts, f"probed({pfsm_name})"),
            )
            for pfsm_name, activity, spec, accepts in activities
        ])
        return self.sweep_operation(operation, domains, limit=limit)

    @staticmethod
    def new_findings(findings: Iterable[Finding]) -> List[Finding]:
        """Only the findings at previously unreported activities."""
        return [finding for finding in findings if finding.is_new]
