"""Model analysis: hidden paths, foil sets, and the paper's Lemma.

The stated goal of the FSM model (Section 4) is "to reason whether the
implemented operation, or more precisely each elementary activity within
the operation, satisfies the derived predicate."  This module provides
that reasoning over executable models:

* :func:`hidden_path_report` — per-pFSM witness search: which elementary
  activities admit spec-rejected-but-impl-accepted objects.
* :func:`minimal_foil_points` — which *single* elementary-activity fix
  forecloses a given end-to-end exploit (Observation 1's "at any one of
  which, one can foil the exploit").
* :func:`check_lemma_part1` / :func:`check_lemma_part2` — the Section 6
  Lemma as executable properties:

  1. securing an operation requires every constituent predicate to be
     correctly implemented;
  2. to foil an exploit chain it is sufficient to secure any one
     operation in the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .machine import VulnerabilityModel
from .operation import Operation
from .pfsm import PrimitiveFSM
from .sweep import SweepFinding, sweep_model
from .witness import Domain

__all__ = [
    "hidden_path_report",
    "FoilPoint",
    "minimal_foil_points",
    "minimal_witness",
    "check_lemma_part1",
    "check_lemma_part2",
    "LemmaReport",
    "verify_lemma",
]


def hidden_path_report(
    model: VulnerabilityModel,
    domains: Dict[str, Domain],
    limit: int = 5,
) -> List[SweepFinding]:
    """Search each pFSM's object domain for hidden-path witnesses.

    ``domains`` maps pFSM names to candidate-object domains.  pFSMs
    without a domain entry are skipped (their objects may not be
    enumerable, e.g. raw memory states).

    The findings of :func:`repro.core.sweep.sweep_model`: per-pFSM
    scans take the interval strategy where available and run inline in
    cascade order.
    """
    return list(sweep_model(model, domains, limit=limit).findings)


@dataclass(frozen=True)
class FoilPoint:
    """A single elementary activity whose fix forecloses the exploit."""

    operation_name: str
    pfsm_name: str
    activity: str

    def __str__(self) -> str:
        return f"secure {self.pfsm_name} in {self.operation_name!r} ({self.activity})"


def minimal_foil_points(
    model: VulnerabilityModel, exploit_input: Any, exhaustive: bool = False
) -> List[FoilPoint]:
    """Every single-pFSM fix that stops ``exploit_input`` end to end.

    Observation 1 predicts a non-empty result for every real exploit:
    each elementary activity it passes through is an independent foiling
    opportunity.

    Default strategy: run the exploit *once* and read the foil points
    off the trace.  The model cascade is deterministic and securing a
    pFSM only flips its hidden IMPL_ACPT transition to IMPL_REJ, so
    securing changes the outcome exactly when the original run rode that
    pFSM's hidden path — no per-pFSM model copy or re-execution needed.
    ``exhaustive=True`` keeps the seed's brute-force check (secure each
    pFSM in turn, re-run end to end); both strategies agree and the
    equivalence is pinned by tests.
    """
    if exhaustive:
        if not model.is_compromised_by(exploit_input):
            return []
        points: List[FoilPoint] = []
        for operation, pfsm in model.all_pfsms():
            hardened = model.with_pfsm_secured(operation.name, pfsm.name)
            if not hardened.is_compromised_by(exploit_input):
                points.append(
                    FoilPoint(
                        operation_name=operation.name,
                        pfsm_name=pfsm.name,
                        activity=pfsm.activity,
                    )
                )
        return points
    result = model.run(exploit_input)
    if not (result.compromised and result.hidden_path_count > 0):
        return []
    hidden: set = set()
    for op_result in result.operation_results:
        for outcome in op_result.outcomes:
            if outcome.via_hidden_path:
                hidden.add((op_result.operation_name, outcome.pfsm_name))
    return [
        FoilPoint(
            operation_name=operation.name,
            pfsm_name=pfsm.name,
            activity=pfsm.activity,
        )
        for operation, pfsm in model.all_pfsms()
        if (operation.name, pfsm.name) in hidden
    ]


def check_lemma_part1(operation: Operation, domain: Domain) -> bool:
    """Lemma part 1: an operation is secure over a domain *iff* all its
    constituent predicates are correctly implemented along the reachable
    chain.

    Checks both directions constructively: the fully-secured copy admits
    no hidden path, and conversely if the original operation has a
    hidden-path traversal then some pFSM must be divergent.
    """
    fully_secured = operation.fully_secured()
    if not fully_secured.is_secure(domain):
        return False
    # Converse: a hidden-path traversal implies a divergent pFSM.
    for obj in domain:
        result = operation.run(obj)
        if result.used_hidden_path:
            divergent = [
                outcome.pfsm_name
                for outcome in result.outcomes
                if outcome.via_hidden_path
            ]
            if not divergent:
                return False
    return True


def check_lemma_part2(model: VulnerabilityModel, exploit_input: Any) -> bool:
    """Lemma part 2: securing any *one* operation of the chain foils the
    exploit.

    Vacuously true when the input does not compromise the model.
    """
    if not model.is_compromised_by(exploit_input):
        return True
    for operation in model.operations:
        hardened = model.with_operation_secured(operation.name)
        if hardened.is_compromised_by(exploit_input):
            return False
    return True


@dataclass
class LemmaReport:
    """Aggregate Lemma verification over a model."""

    model_name: str
    part1_results: Dict[str, bool] = field(default_factory=dict)
    part2_result: Optional[bool] = None
    foil_points: List[FoilPoint] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        """True when every checked part holds."""
        parts = list(self.part1_results.values())
        if self.part2_result is not None:
            parts.append(self.part2_result)
        return all(parts) if parts else False


def verify_lemma(
    model: VulnerabilityModel,
    operation_domains: Dict[str, Domain],
    exploit_input: Any,
) -> LemmaReport:
    """Run both Lemma parts over a model and collect foil points.

    ``operation_domains`` maps operation names to input domains for the
    part 1 check.
    """
    report = LemmaReport(model_name=model.name)
    for operation in model.operations:
        domain = operation_domains.get(operation.name)
        if domain is not None:
            report.part1_results[operation.name] = check_lemma_part1(
                operation, domain
            )
    report.part2_result = check_lemma_part2(model, exploit_input)
    report.foil_points = minimal_foil_points(model, exploit_input)
    return report


def minimal_witness(
    pfsm: PrimitiveFSM,
    domain: Domain,
    key=None,
):
    """The *smallest* hidden-path witness in a domain, or None.

    Bug reports read best with minimal reproducers (the paper quotes
    ``contentLen = -800``, not an arbitrary huge negative).  ``key``
    ranks candidates; the default prefers structurally small objects:
    shortest textual form, then the text itself as a tiebreaker.
    """
    if key is None:
        def key(obj):  # noqa: ANN001 - generic object ranking
            text = repr(obj)
            return (len(text), text)

    best = None
    best_rank = None
    for candidate in domain:
        if not pfsm.takes_hidden_path(candidate):
            continue
        rank = key(candidate)
        if best_rank is None or rank < best_rank:
            best, best_rank = candidate, rank
    return best
