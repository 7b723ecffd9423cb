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
2. Derive the *implemented* predicate **empirically**, by probing the
   executable application model over a domain of inputs and observing
   which are rejected (:func:`probe_implementation`).
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
from .sweep import hidden_witness_scan, sweep_operation as _sweep_operation
from .witness import Domain

__all__ = [
    "ProbeResult",
    "probe_implementation",
    "Finding",
    "DiscoveryEngine",
]


@dataclass(frozen=True)
class ProbeResult:
    """An empirically derived implementation predicate."""

    accepted: Tuple[Any, ...]
    rejected: Tuple[Any, ...]
    predicate: Predicate

    @property
    def checks_anything(self) -> bool:
        """False when the implementation rejected nothing in the probe —
        the 'no check performed' signature."""
        return bool(self.rejected)


def probe_implementation(
    accepts: Callable[[Any], bool],
    domain: Domain,
    description: str = "probed implementation",
) -> ProbeResult:
    """Build an implementation predicate by observation.

    ``accepts(obj)`` should run the real (modeled) code path and report
    whether the input got through — e.g. "ReadPOSTData returned without
    error and copied the body".  Exceptions count as rejection.
    """
    accepted: List[Any] = []
    rejected: List[Any] = []
    by_value: Dict[Any, bool] = {}
    by_identity: Dict[int, bool] = {}
    with _OBS.span("discovery.probe", description=description) as span:
        for obj in domain:
            try:
                verdict = bool(accepts(obj))
            except Exception:
                verdict = False
            try:
                by_value[obj] = verdict
            except TypeError:  # unhashable — fall back to identity
                by_identity[id(obj)] = verdict
            (accepted if verdict else rejected).append(obj)
        span.set(probes=len(accepted) + len(rejected),
                 rejected=len(rejected))
    if _OBS.enabled:
        _OBS.incr("discovery.probes", len(accepted) + len(rejected))

    # Memoize within the probed domain (hashable objects by value,
    # unhashable by identity — the accepted/rejected tuples pin those
    # identities alive); unseen objects are re-probed live.
    missing = object()

    def impl(obj: Any) -> bool:
        try:
            recorded = by_value.get(obj, missing)
        except TypeError:
            recorded = by_identity.get(id(obj), missing)
        if recorded is not missing:
            return recorded
        try:
            return bool(accepts(obj))
        except Exception:
            return False

    return ProbeResult(
        accepted=tuple(accepted),
        rejected=tuple(rejected),
        predicate=Predicate(impl, description),
    )


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
        spec_predicate, accepts_callable)``; each implementation predicate
        is derived by probing the callable over the activity's domain,
        then compared to the spec — the full §5.1 discovery workflow.
        """
        findings: List[Finding] = []
        with _OBS.span("discovery.sweep_probed", operation=operation_name,
                       activities=len(activities)) as span:
            for pfsm_name, activity, spec, accepts in activities:
                domain = domains.get(pfsm_name)
                if domain is None:
                    continue
                probe = probe_implementation(
                    accepts, domain, description=f"probed({pfsm_name})"
                )
                pfsm = PrimitiveFSM(
                    name=pfsm_name,
                    activity=activity,
                    object_name=pfsm_name,
                    spec_accepts=spec,
                    impl_accepts=probe.predicate,
                )
                witnesses = pfsm.hidden_witnesses(domain, limit=limit)
                if witnesses:
                    findings.append(
                        Finding(
                            operation_name=operation_name,
                            pfsm_name=pfsm_name,
                            activity=activity,
                            spec_description=spec.description,
                            witnesses=tuple(witnesses),
                            known=pfsm_name in self._reported,
                        )
                    )
            span.set(findings=len(findings))
        if _OBS.enabled:
            _OBS.incr("discovery.findings", len(findings))
            _OBS.incr("discovery.findings.new",
                      sum(1 for f in findings if f.is_new))
        return findings

    @staticmethod
    def new_findings(findings: Iterable[Finding]) -> List[Finding]:
        """Only the findings at previously unreported activities."""
        return [finding for finding in findings if finding.is_new]
