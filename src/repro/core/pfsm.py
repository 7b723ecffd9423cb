"""The primitive FSM (pFSM) — the paper's unit of vulnerability modeling.

A pFSM represents "a predicate for accepting an input object with respect
to the specification and implementation" (Section 4).  It is defined by
two predicates over the same object domain:

* ``spec_accepts`` — what the *specification* says should be accepted;
* ``impl_accepts`` — what the *implementation* actually accepts.

From these the four Figure 2 transitions are derived per object:

=====================  =============================================
object satisfies        path through the pFSM
=====================  =============================================
spec accepts            SPEC_ACPT → accept state (secure acceptance)
spec rejects,           SPEC_REJ → reject state, IMPL_REJ →
impl rejects            stays rejected (exploit foiled)
spec rejects,           SPEC_REJ → reject state, IMPL_ACPT (hidden,
impl accepts            dotted) → accept state  **← the vulnerability**
=====================  =============================================

A pFSM *has a hidden path* over a domain when some object in the domain
takes the third row.  Securing a pFSM means replacing its implementation
predicate with the specification predicate, which removes the hidden
path — the elementary security-check opportunity of Observation 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .classification import PfsmType
from .predicates import Predicate
from .sweep import hidden_witness_scan
from .transitions import Label, StateKind, Transition, TransitionKind

__all__ = ["PrimitiveFSM", "PfsmOutcome"]


@dataclass(frozen=True)
class PfsmOutcome:
    """Result of stepping one object through a pFSM."""

    pfsm_name: str
    obj: Any
    accepted: bool
    via_hidden_path: bool
    states: Tuple[StateKind, ...]
    transitions: Tuple[TransitionKind, ...]
    transformed: Any = None

    @property
    def foiled(self) -> bool:
        """True when the object ended in the reject state — the exploit
        (if this object was malicious) was foiled at this activity."""
        return not self.accepted


@dataclass(frozen=True)
class PrimitiveFSM:
    """One elementary activity as a primitive FSM.

    Parameters
    ----------
    name:
        Short identifier, e.g. ``"pFSM1"``.
    activity:
        The elementary activity modeled, e.g. ``"get text strings str_x
        and str_i; convert to integers"``.
    object_name:
        The object the predicate ranges over, e.g. ``"str_x"``.
    spec_accepts:
        The specification's accept predicate.
    impl_accepts:
        What the implementation actually accepts.  ``None`` means the
        implementation performs *no check at all* (IMPL_REJ absent,
        everything spec-rejected flows through the hidden path) — the
        paper's ``IMPL_ACPT = -♦-`` notation.
    accept_action:
        Description of the action taken on acceptance (the label's
        right-hand side), e.g. ``"tTvect[x] = i"``.
    transform:
        Optional function applied to accepted objects before they reach
        the next activity (e.g. string-to-integer conversion).
    check_type:
        The generic pFSM type (Figure 8) this predicate instantiates.
    """

    name: str
    activity: str
    object_name: str
    spec_accepts: Predicate
    impl_accepts: Optional[Predicate] = None
    accept_action: str = ""
    transform: Optional[Callable[[Any], Any]] = None
    check_type: Optional[PfsmType] = None

    def __getstate__(self) -> Dict[str, Any]:
        # The folded-tree and program memo of :mod:`repro.core.plan` is
        # stamped with this process's predicate cache keys: it never
        # ships, so the receiver builds its own.
        state = dict(self.__dict__)
        state.pop("_plan_program", None)
        return state

    # -- derived predicates ----------------------------------------------

    def implementation_accepts(self, obj: Any) -> bool:
        """Does the implementation let ``obj`` through?  A missing check
        accepts everything."""
        if self.impl_accepts is None:
            return True
        return self.impl_accepts.evaluate(obj)

    def takes_hidden_path(self, obj: Any) -> bool:
        """True when ``obj`` is spec-rejected but impl-accepted — the
        dotted IMPL_ACPT transition of Figure 2."""
        return not self.spec_accepts.evaluate(obj) and self.implementation_accepts(obj)

    @property
    def has_check(self) -> bool:
        """False when the implementation performs no check at all."""
        return self.impl_accepts is not None

    # -- stepping ------------------------------------------------------------

    def step(self, obj: Any) -> PfsmOutcome:
        """Run one object through the three states of Figure 2."""
        states: List[StateKind] = [StateKind.SPEC_CHECK]
        transitions: List[TransitionKind] = []
        if self.spec_accepts.evaluate(obj):
            transitions.append(TransitionKind.SPEC_ACPT)
            states.append(StateKind.ACCEPT)
            accepted, hidden = True, False
        else:
            transitions.append(TransitionKind.SPEC_REJ)
            states.append(StateKind.REJECT)
            if self.implementation_accepts(obj):
                transitions.append(TransitionKind.IMPL_ACPT)
                states.append(StateKind.ACCEPT)
                accepted, hidden = True, True
            else:
                transitions.append(TransitionKind.IMPL_REJ)
                accepted, hidden = False, False
        transformed = obj
        if accepted and self.transform is not None:
            transformed = self.transform(obj)
        return PfsmOutcome(
            pfsm_name=self.name,
            obj=obj,
            accepted=accepted,
            via_hidden_path=hidden,
            states=tuple(states),
            transitions=tuple(transitions),
            transformed=transformed,
        )

    # -- hidden-path analysis --------------------------------------------------

    def hidden_witnesses(self, domain: Iterable[Any],
                         limit: int = 10) -> List[Any]:
        """Objects in ``domain`` that traverse the hidden path.

        Routed through :func:`repro.core.sweep.hidden_witness_scan`:
        closed-form predicates over ``range``-backed domains answer
        arithmetically (O(limit), not O(n)), and every other scan judges
        each distinct object once.  Witness order always matches domain
        iteration order.
        """
        return hidden_witness_scan(self, domain, limit=limit)

    def has_hidden_path(self, domain: Iterable[Any]) -> bool:
        """True when some domain object is spec-rejected but
        impl-accepted — the existence of the vulnerability at this
        elementary activity."""
        return bool(self.hidden_witnesses(domain, limit=1))

    def is_secure(self, domain: Iterable[Any]) -> bool:
        """The Lemma's per-pFSM condition: no hidden path over the
        domain, i.e. the predicate is correctly implemented."""
        return not self.has_hidden_path(domain)

    # -- securing (injecting the missing check) -----------------------------------

    def secured(self) -> "PrimitiveFSM":
        """A copy whose implementation enforces the specification —
        the fix the paper prescribes for this elementary activity."""
        return replace(self, impl_accepts=self.spec_accepts)

    def with_impl(self, impl: Optional[Predicate]) -> "PrimitiveFSM":
        """A copy with a different implementation predicate (used by
        defense-injection studies)."""
        return replace(self, impl_accepts=impl)

    # -- structure (for rendering and classification) -------------------------------

    def transitions_spec(self) -> List[Transition]:
        """The four Figure 2 transitions with their labels, marking the
        missing IMPL_REJ ('?') and the hidden IMPL_ACPT (dotted) where
        the implementation diverges from the specification."""
        spec = self.spec_accepts.description
        neg_spec = f"not ({spec})"
        impl_desc = (
            self.impl_accepts.description if self.impl_accepts is not None else ""
        )
        impl_rejects_correctly = self.has_check
        return [
            Transition(
                TransitionKind.SPEC_ACPT,
                Label(condition=spec, action=self.accept_action),
            ),
            Transition(TransitionKind.SPEC_REJ, Label(condition=neg_spec)),
            Transition(
                TransitionKind.IMPL_REJ,
                Label(condition=f"not ({impl_desc})" if impl_desc else ""),
                exists=impl_rejects_correctly,
            ),
            Transition(
                TransitionKind.IMPL_ACPT,
                Label(condition=impl_desc),
            ),
        ]

    def describe(self) -> str:
        """One-line summary used in traces and reports."""
        impl = (
            self.impl_accepts.description
            if self.impl_accepts is not None
            else "(no check)"
        )
        return (
            f"{self.name} [{self.activity}] object={self.object_name} "
            f"spec: {self.spec_accepts.description} | impl: {impl}"
        )
