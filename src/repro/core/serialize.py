"""Serialization of models, traces, and analysis reports to plain dicts
and JSON.

Predicates are code, so a round-trip of *semantics* is out of scope;
what serializes is the model *structure* (names, activities, label
texts, check types, which transitions exist) and complete *traces* —
enough for storage, diffing, rendering in other tools, and regression
baselines.  ``model_fingerprint`` gives a stable digest of a model's
structure for change detection.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from .machine import ModelResult, VulnerabilityModel
from .operation import Operation
from .pfsm import PrimitiveFSM
from .trace import ExploitTrace

__all__ = [
    "pfsm_to_dict",
    "operation_to_dict",
    "model_to_dict",
    "model_to_json",
    "trace_to_dict",
    "result_to_dict",
    "model_fingerprint",
    "sweep_task_fingerprint",
]


def pfsm_to_dict(pfsm: PrimitiveFSM) -> Dict[str, Any]:
    """Structural dict of one primitive FSM."""
    return {
        "name": pfsm.name,
        "activity": pfsm.activity,
        "object": pfsm.object_name,
        "spec": pfsm.spec_accepts.description,
        "impl": (pfsm.impl_accepts.description
                 if pfsm.impl_accepts is not None else None),
        "has_check": pfsm.has_check,
        "action": pfsm.accept_action,
        "check_type": pfsm.check_type.value if pfsm.check_type else None,
        "transitions": [
            {
                "kind": transition.kind.value,
                "label": transition.label.render(),
                "exists": transition.exists,
                "hidden": transition.is_hidden,
            }
            for transition in pfsm.transitions_spec()
        ],
    }


def operation_to_dict(operation: Operation) -> Dict[str, Any]:
    """Structural dict of one operation."""
    return {
        "name": operation.name,
        "object": operation.object_description,
        "pfsms": [pfsm_to_dict(pfsm) for pfsm in operation.pfsms],
    }


def model_to_dict(model: VulnerabilityModel) -> Dict[str, Any]:
    """Structural dict of a whole model."""
    return {
        "name": model.name,
        "bugtraq_ids": list(model.bugtraq_ids),
        "final_consequence": model.final_consequence,
        "operations": [operation_to_dict(op) for op in model.operations],
        "gates": [gate.description for gate in model.gates],
    }


def model_to_json(model: VulnerabilityModel, indent: int = 2) -> str:
    """JSON text of the model structure."""
    return json.dumps(model_to_dict(model), indent=indent, sort_keys=True)


def trace_to_dict(trace: ExploitTrace) -> Dict[str, Any]:
    """Complete dict of one traversal trace."""
    return {
        "model": trace.model_name,
        "succeeded": trace.succeeded,
        "foiled_at": trace.foiled_at,
        "hidden_path_count": trace.hidden_path_count,
        "events": [
            {
                "kind": event.kind.value,
                "subject": event.subject,
                "detail": event.detail,
                "outcome": (
                    {
                        "accepted": event.outcome.accepted,
                        "hidden": event.outcome.via_hidden_path,
                        "transitions": [
                            t.value for t in event.outcome.transitions
                        ],
                    }
                    if event.outcome is not None
                    else None
                ),
            }
            for event in trace.events
        ],
    }


def result_to_dict(result: ModelResult) -> Dict[str, Any]:
    """Dict of a full model result (trace plus per-operation summary)."""
    return {
        "model": result.model_name,
        "compromised": result.compromised,
        "hidden_path_count": result.hidden_path_count,
        "foiled_at": result.foiled_at,
        "operations": [
            {
                "name": op_result.operation_name,
                "completed": op_result.completed,
                "exploited": op_result.exploited,
                "foiled_by": op_result.foiled_by,
            }
            for op_result in result.operation_results
        ],
        "trace": trace_to_dict(result.trace),
    }


def model_fingerprint(model: VulnerabilityModel) -> str:
    """Stable SHA-256 digest of the model's serialized structure.

    Securing a pFSM, renaming an activity, or adding an operation all
    change the fingerprint; re-building an identical model does not.
    """
    canonical = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _stable_callable_ref(fn: Any) -> Optional[str]:
    """``module:qualname`` when that names ``fn`` unambiguously (an
    importable module-level callable or class), ``None`` for lambdas
    and local closures — those have no cross-run identity."""
    if fn is None:
        return ""
    qualname = getattr(fn, "__qualname__", None)
    module = getattr(fn, "__module__", None)
    if not qualname or not module or "<" in qualname:
        return None
    return f"{module}:{qualname}"


def sweep_task_fingerprint(
    model: Any,
    operation_name: str,
    pfsm: PrimitiveFSM,
    domain_digest: str,
) -> Optional[str]:
    """Stable identity of one sweep task's *results* — the key of the
    resumable result store (see :mod:`repro.core.dist`).

    Combines the model fingerprint (``model`` may be the
    :class:`VulnerabilityModel` itself or an already-computed
    fingerprint string) with everything the hidden-witness scan depends
    on: the pFSM's predicate **spec hashes** (semantic identity — see
    :mod:`repro.core.predspec`), its transform/check-type references and
    the domain digest.  The witness limit is not part of it: a task's
    witnesses are one enumeration in domain order, and a limit only cuts
    a prefix of it.  Returns ``None`` when any component has no stable
    cross-run form (opaque predicates, lambda transforms) — such tasks
    are always recomputed, never resumed.
    """
    spec_hash = pfsm.spec_accepts.spec_hash
    if spec_hash is None:
        return None
    impl = pfsm.impl_accepts
    if impl is None:
        impl_hash = "<no-check>"
    else:
        impl_hash = impl.spec_hash
        if impl_hash is None:
            return None
    transform_ref = _stable_callable_ref(pfsm.transform)
    if transform_ref is None:
        return None
    parts = [
        model if isinstance(model, str) else model_fingerprint(model),
        operation_name,
        pfsm.name,
        pfsm.activity,
        spec_hash,
        impl_hash,
        transform_ref,
        pfsm.check_type.value if pfsm.check_type is not None else "",
        domain_digest,
    ]
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
