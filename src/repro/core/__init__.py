"""The pFSM modeling methodology — the paper's primary contribution.

Public surface:

* :class:`~repro.core.pfsm.PrimitiveFSM` — the predicate-defined unit of
  Figure 2, with hidden-path (vulnerability) detection.
* :class:`~repro.core.operation.Operation` — a series of pFSMs over one
  object (Observation 2).
* :class:`~repro.core.machine.VulnerabilityModel` — cascaded operations
  joined by :class:`~repro.core.machine.PropagationGate` triangles.
* :mod:`~repro.core.predicates` — the composable predicate algebra the
  pFSMs are defined over (Observation 3).
* :mod:`~repro.core.analysis` — hidden-path reports, minimal foil
  points, and the Section 6 Lemma as executable checks.
* :class:`~repro.core.discovery.DiscoveryEngine` — the §5.1 workflow
  that surfaced Bugtraq #6255.
* :mod:`~repro.core.classification` — the three generic pFSM types
  (Figure 8) and the 12 Bugtraq categories (Figure 1).
"""

from .autotool import ActivityAdapter, ActivityVerdict, AnalysisReport, AutoAnalyzer
from .catalog import CatalogEntry, PREDICATE_CATALOG, entries_for_activity
from .metrics import (
    ModelMetrics,
    PfsmRates,
    WeightedDomain,
    compromise_probability,
    evaluate_model,
    exposure_ratio,
    mean_effort_to_foil,
    pfsm_rates,
)
from .columnar import encoding_for
from .dist import (
    ResultStore,
    domain_digest,
    task_key,
)
from .plan import (
    ScanPlan,
    ScanProgram,
    compile_spec,
    describe_plan,
    plan_scan,
    program_for,
)
from .predspec import (
    UnknownPredicateError,
    from_spec,
    named_predicate,
    spec_digest,
    to_spec,
)
from .serialize import (
    model_fingerprint,
    model_to_dict,
    model_to_json,
    operation_to_dict,
    pfsm_to_dict,
    result_to_dict,
    sweep_task_fingerprint,
    trace_to_dict,
)
from .statespace import StateSpace, build_state_space
from .sweep import (
    ModelSweep,
    SweepFinding,
    hidden_witness_count,
    hidden_witness_scan,
    sweep_model,
    sweep_models,
    sweep_operation,
)
from .analysis import (
    FoilPoint,
    minimal_witness,
    HiddenPathFinding,
    LemmaReport,
    check_lemma_part1,
    check_lemma_part2,
    hidden_path_report,
    minimal_foil_points,
    verify_lemma,
)
from .builder import ModelBuilder
from .classification import (
    ActivityKind,
    BugtraqCategory,
    CATEGORY_DEFINITIONS,
    PfsmType,
    categorize_by_activity,
)
from .discovery import DiscoveryEngine, Finding, ProbeResult, probe_implementation
from .machine import ModelResult, PropagationGate, VulnerabilityModel
from .operation import Operation, OperationResult
from .pfsm import PfsmOutcome, PrimitiveFSM
from .predicates import (
    Predicate,
    always,
    attr,
    contains,
    equals,
    greater_equal,
    in_range,
    is_instance,
    length_le,
    less_equal,
    matches,
    never,
    not_contains,
    predicate,
    satisfies_all,
    satisfies_any,
    truthy,
)
from .render import render_model, render_operation, render_pfsm, to_dot
from .trace import EventKind, ExploitTrace, TraceEvent
from .transitions import DIAMOND, Label, StateKind, Transition, TransitionKind
from .witness import Domain

__all__ = [
    "ActivityAdapter",
    "ActivityVerdict",
    "AnalysisReport",
    "AutoAnalyzer",
    "CatalogEntry",
    "PREDICATE_CATALOG",
    "entries_for_activity",
    "ModelMetrics",
    "PfsmRates",
    "WeightedDomain",
    "compromise_probability",
    "evaluate_model",
    "exposure_ratio",
    "mean_effort_to_foil",
    "pfsm_rates",
    "model_fingerprint",
    "model_to_dict",
    "model_to_json",
    "operation_to_dict",
    "pfsm_to_dict",
    "result_to_dict",
    "sweep_task_fingerprint",
    "trace_to_dict",
    "ResultStore",
    "domain_digest",
    "task_key",
    "encoding_for",
    "ScanPlan",
    "ScanProgram",
    "compile_spec",
    "describe_plan",
    "plan_scan",
    "program_for",
    "UnknownPredicateError",
    "from_spec",
    "named_predicate",
    "spec_digest",
    "to_spec",
    "StateSpace",
    "build_state_space",
    "ModelSweep",
    "SweepFinding",
    "hidden_witness_count",
    "hidden_witness_scan",
    "sweep_model",
    "sweep_models",
    "sweep_operation",
    "FoilPoint",
    "HiddenPathFinding",
    "LemmaReport",
    "check_lemma_part1",
    "check_lemma_part2",
    "hidden_path_report",
    "minimal_foil_points",
    "minimal_witness",
    "verify_lemma",
    "ModelBuilder",
    "ActivityKind",
    "BugtraqCategory",
    "CATEGORY_DEFINITIONS",
    "PfsmType",
    "categorize_by_activity",
    "DiscoveryEngine",
    "Finding",
    "ProbeResult",
    "probe_implementation",
    "ModelResult",
    "PropagationGate",
    "VulnerabilityModel",
    "Operation",
    "OperationResult",
    "PfsmOutcome",
    "PrimitiveFSM",
    "Predicate",
    "always",
    "attr",
    "contains",
    "equals",
    "greater_equal",
    "in_range",
    "is_instance",
    "length_le",
    "less_equal",
    "matches",
    "never",
    "not_contains",
    "predicate",
    "satisfies_all",
    "satisfies_any",
    "truthy",
    "render_model",
    "render_operation",
    "render_pfsm",
    "to_dot",
    "EventKind",
    "ExploitTrace",
    "TraceEvent",
    "DIAMOND",
    "Label",
    "StateKind",
    "Transition",
    "TransitionKind",
    "Domain",
]
