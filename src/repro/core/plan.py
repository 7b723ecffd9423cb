"""Predicate compilation and cost-based scan planning.

The sweep engine evaluates pFSM hidden-path conditions —
``¬spec ∧ impl`` — interpretively: every :class:`~repro.core.predicates.
Predicate` node is a Python closure calling ``evaluate`` on its
children, each call re-paying the exception shield and the attribute
indirection.

This module lowers the declarative *spec* terms of
:mod:`repro.core.predspec` into fused single-pass scan programs, in the
spirit of compiled query plans (Neumann, VLDB 2011) over the
interval-algebra machinery of :mod:`repro.core.predicates`:

* **Constant folding and flattening** — ``and``/``or`` chains become
  n-ary nodes, ``true``/``false`` units and double negations dissolve,
  structurally duplicate conjuncts dedupe.
* **Short-circuit reordering** — conjuncts are ordered by estimated
  ``cost / (1 - selectivity)`` (cheapest expected rejection first),
  disjuncts by ``cost / selectivity``; predicates are pure, so order is
  unobservable except in time.
* **Interval lowering** — comparison subtrees whose semantics are fully
  captured by their closed-form integer intervals collapse to a single
  membership test for ``int`` inputs (non-``int`` objects fall back to
  the general program, preserving the constructors' coercion rules).

Compiled :class:`ScanProgram` objects are verdict-equivalent to the
interpretive path, including its fail-secure exception semantics: the
interpreter shields every node (``evaluate`` maps exceptions to
``False``), while programs shield only where a propagating exception
could change the verdict — the program root and the disjunct and
negation children.  Inside a pure conjunction an exception propagating
to the nearest shield yields ``False`` exactly where the interpreter's
``False`` would land.

Each program judges each distinct object of one scan once (the scan
walks the domain's distinct-row index, :mod:`repro.core.sweep`); there
is no verdict memo, and no verdict is shared between tasks.  A program is memoized only on the
pFSM it was compiled for (:func:`program_for`); that memo survives a
fork but never a pickle.  Programs are picklable: they ship as their
spec alone and recompile in the receiving process.

The planner can be bypassed wholesale (``set_enabled`` /
:func:`disabled` — the benchmark's A/B switch and the CLI's
``--no-plan``).
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..obs import DEFAULT as _OBS
from .predicates import (
    IntervalSet,
    _FULL_LINE,
    _complement_intervals,
    _get,
    _intersect_intervals,
    _interval_contains,
    _normalize_intervals,
    _range_backing,
    _union_intervals,
)
from .predspec import _lookup_named, _resolve_type, decode_value, spec_digest

__all__ = [
    "ScanPlan",
    "ScanProgram",
    "compile_spec",
    "describe_plan",
    "disabled",
    "hidden_spec",
    "is_enabled",
    "plan_scan",
    "program_for",
    "set_enabled",
    "task_cost",
]


# ---------------------------------------------------------------------------
# Cost model.
#
# Units are arbitrary (roughly "one cheap comparison" == 0.4); only the
# *ordering* they induce matters — for conjunct/disjunct reordering and
# for the greedy-LPT chunker in :mod:`repro.core.dist`.  Selectivity is
# the estimated probability a node answers True.
# ---------------------------------------------------------------------------

_LEAF_COST: Dict[str, float] = {
    "true": 0.05, "false": 0.05, "truthy": 0.3, "eq": 0.4,
    "range": 0.5, "le": 0.4, "ge": 0.4, "lenle": 0.4,
    "contains": 1.0, "ncontains": 1.0, "matches": 3.0,
    "isa": 0.4, "named": 2.0,
}

_LEAF_SELECTIVITY: Dict[str, float] = {
    "true": 1.0, "false": 0.0, "truthy": 0.7, "eq": 0.05,
    "range": 0.3, "le": 0.5, "ge": 0.5, "lenle": 0.5,
    "contains": 0.3, "ncontains": 0.7, "matches": 0.3,
    "isa": 0.6, "named": 0.5,
}

#: Estimated interpretive cost per object for uncompilable predicates
#: (two shielded ``Predicate.evaluate`` calls plus cache probes).
_INTERP_COST = 2.5


def _clamp(selectivity: float) -> float:
    return min(0.99, max(0.01, selectivity))


# ---------------------------------------------------------------------------
# The node tree: parsed, folded, annotated spec terms.
# ---------------------------------------------------------------------------

class _Node:
    """One node of a folded spec tree, annotated bottom-up."""

    __slots__ = ("op", "args", "children", "digest", "cost",
                 "selectivity", "intervals", "closed", "leaves")

    def __init__(self, op: str, args: Tuple[Any, ...] = (),
                 children: Tuple["_Node", ...] = ()) -> None:
        self.op = op
        self.args = args
        self.children = children
        self.digest = ""
        self.cost = 0.0
        self.selectivity = 0.5
        #: Closed-form integer denotation of the subtree, or ``None``.
        self.intervals: Optional[IntervalSet] = None
        #: True when, for ``int`` inputs, the subtree's verdict is fully
        #: decided by interval membership (the lowering precondition).
        self.closed = False
        self.leaves = 1


def _leaf(op: str, args: Tuple[Any, ...]) -> _Node:
    node = _Node(op, args)
    node.digest = spec_digest([op] + list(args))
    node.cost = _LEAF_COST.get(op, 1.0)
    node.selectivity = _LEAF_SELECTIVITY.get(op, 0.5)
    if op == "true":
        node.intervals, node.closed = _FULL_LINE, True
    elif op == "false":
        node.intervals, node.closed = (), True
    elif op == "range":
        low, high = args
        node.intervals = _normalize_intervals([(low, high)])
        node.closed = True
    elif op == "le":
        node.intervals, node.closed = ((None, args[0]),), True
    elif op == "ge":
        node.intervals, node.closed = ((args[0], None),), True
    elif op == "eq":
        expected = decode_value(args[0])
        if isinstance(expected, int) and not isinstance(expected, bool):
            node.intervals = ((expected, expected),)
            node.closed = True
    return node


def _make_not(child: _Node) -> _Node:
    node = _Node("not", (), (child,))
    node.digest = spec_digest(["not", child.digest])
    node.cost = child.cost + 0.02
    node.selectivity = 1.0 - child.selectivity
    if child.intervals is not None:
        node.intervals = _complement_intervals(child.intervals)
    node.closed = child.closed and node.intervals is not None
    node.leaves = child.leaves
    return node


def _make_attr(name: str, child: _Node) -> _Node:
    node = _Node("attr", (name,), (child,))
    node.digest = spec_digest(["attr", name, child.digest])
    node.cost = 0.3 + child.cost
    node.selectivity = child.selectivity
    node.leaves = child.leaves
    return node


def _make_junction(op: str, kids: List[_Node]) -> _Node:
    """An n-ary ``and``/``or`` with units folded, duplicates deduped,
    and children ordered for expected-cost short-circuiting."""
    absorbing = "false" if op == "and" else "true"
    identity = "true" if op == "and" else "false"
    unique: List[_Node] = []
    seen: Set[str] = set()
    for child in kids:
        if child.op == absorbing:
            return _leaf(absorbing, ())
        if child.op == identity or child.digest in seen:
            continue
        seen.add(child.digest)
        unique.append(child)
    if not unique:
        return _leaf(identity, ())
    if len(unique) == 1:
        return unique[0]
    node = _Node(op, (), ())
    # Order-insensitive digest: structurally equal junctions share an
    # identity however their source specs associated or ordered them.
    node.digest = spec_digest([op] + sorted(c.digest for c in unique))
    intervals = unique[0].intervals
    combine = _intersect_intervals if op == "and" else _union_intervals
    for child in unique[1:]:
        if intervals is None or child.intervals is None:
            intervals = None
            break
        intervals = combine(intervals, child.intervals)
    node.intervals = intervals
    node.closed = intervals is not None and all(c.closed for c in unique)
    node.leaves = sum(c.leaves for c in unique)
    if op == "and":
        unique.sort(key=lambda c: (
            c.cost / max(1e-6, 1.0 - _clamp(c.selectivity)), c.digest))
        reach, cost, sel = 1.0, 0.0, 1.0
        for child in unique:
            cost += reach * child.cost
            reach *= _clamp(child.selectivity)
            sel *= child.selectivity
    else:
        unique.sort(key=lambda c: (
            c.cost / max(1e-6, _clamp(c.selectivity)), c.digest))
        reach, cost, fail = 1.0, 0.0, 1.0
        for child in unique:
            cost += reach * child.cost
            reach *= 1.0 - _clamp(child.selectivity)
            fail *= 1.0 - child.selectivity
        sel = 1.0 - fail
    node.children = tuple(unique)
    node.cost = cost + 0.05 * len(unique)
    node.selectivity = sel
    return node


def _build(spec: Any) -> _Node:
    """Parse a predspec term into a folded, annotated node tree."""
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ValueError(f"malformed spec term: {spec!r}")
    op = spec[0]
    if op == "not":
        child = _build(spec[1])
        if child.op == "true":
            return _leaf("false", ())
        if child.op == "false":
            return _leaf("true", ())
        if child.op == "not":
            return child.children[0]
        return _make_not(child)
    if op in ("and", "or"):
        kids: List[_Node] = []
        for sub in spec[1:]:
            child = _build(sub)
            if child.op == op:  # flatten nested chains into one n-ary node
                kids.extend(child.children)
            else:
                kids.append(child)
        return _make_junction(op, kids)
    if op == "attr":
        return _make_attr(spec[1], _build(spec[2]))
    return _leaf(op, tuple(spec[1:]))


# ---------------------------------------------------------------------------
# Emission: node trees → closures.
#
# Every emitted callable takes the object and returns its verdict.
# ---------------------------------------------------------------------------

_EmitFn = Callable[[Any], bool]


def _shield(fn: _EmitFn) -> _EmitFn:
    def shielded(obj: Any) -> bool:
        try:
            return fn(obj)
        except Exception:
            return False
    return shielded


def _emit_leaf(node: _Node) -> _EmitFn:
    op, args = node.op, node.args
    if op == "true":
        return lambda obj: True
    if op == "false":
        return lambda obj: False
    if op == "truthy":
        return lambda obj: bool(obj)
    if op == "eq":
        expected = decode_value(args[0])
        return lambda obj: bool(obj == expected)
    if op == "range":
        low, high = args
        return lambda obj: low <= int(obj) <= high
    if op == "le":
        bound = args[0]
        return lambda obj: int(obj) <= bound
    if op == "ge":
        bound = args[0]
        return lambda obj: int(obj) >= bound
    if op == "lenle":
        bound = args[0]
        return lambda obj: len(obj) <= bound
    if op == "contains":
        needle = decode_value(args[0])
        return lambda obj: needle in obj
    if op == "ncontains":
        needle = decode_value(args[0])
        return lambda obj: needle not in obj
    if op == "matches":
        pattern = args[0]
        compiled = re.compile(pattern)
        encoded = pattern.encode("latin-1")

        def search(obj: Any) -> bool:
            if isinstance(obj, bytes):
                return bool(re.search(encoded, obj))
            return bool(compiled.search(obj))
        return search
    if op == "isa":
        types = tuple(_resolve_type(mod, qual) for mod, qual in args[0])
        return lambda obj: isinstance(obj, types)
    if op == "named":
        evaluate = _lookup_named(args[0], args[1]).evaluate
        return evaluate  # self-shields
    raise ValueError(f"unknown spec operator: {op!r}")


def _emit_node(node: _Node, ctx: Dict[str, int]) -> _EmitFn:
    """The node's evaluator, without a shield of its own."""
    if node.closed and node.children and node.leaves >= 2:
        # Interval lowering: the whole comparison subtree is one
        # membership test for exact ints.  The guard is ``type(obj) is
        # int`` because the comparison constructors coerce (``int(obj)``)
        # while ``eq`` does not — non-int objects must take the general
        # program to reproduce that asymmetry (bools included: ``eq``
        # over bools never gets an interval form).
        intervals = node.intervals
        general = _emit_general(node, ctx)
        ctx["lowered"] += 1

        def fused(obj: Any) -> bool:
            if type(obj) is int:
                return _interval_contains(intervals, obj)
            return general(obj)
        return fused
    return _emit_general(node, ctx)


def _emit_general(node: _Node, ctx: Dict[str, int]) -> _EmitFn:
    op = node.op
    if op == "and":
        fns = [_emit_node(c, ctx) for c in node.children]
        if len(fns) == 2:
            first, second = fns
            return lambda obj: first(obj) and second(obj)

        def conjunction(obj: Any) -> bool:
            for fn in fns:
                if not fn(obj):
                    return False
            return True
        return conjunction
    if op == "or":
        fns = [_shield(_emit_node(c, ctx)) for c in node.children]
        if len(fns) == 2:
            first, second = fns
            return lambda obj: first(obj) or second(obj)

        def disjunction(obj: Any) -> bool:
            for fn in fns:
                if fn(obj):
                    return True
            return False
        return disjunction
    if op == "not":
        inner = _shield(_emit_node(node.children[0], ctx))
        return lambda obj: not inner(obj)
    if op == "attr":
        inner = _emit_node(node.children[0], ctx)
        name = node.args[0]
        return lambda obj: inner(_get(obj, name))
    return _emit_leaf(node)


# ---------------------------------------------------------------------------
# Compiled programs.
# ---------------------------------------------------------------------------

class ScanProgram:
    """A predicate spec fused into one shielded single-pass evaluator.

    ``evaluate(obj)`` (or calling the program) is verdict-identical to
    building the spec's predicate via
    :func:`repro.core.predspec.from_spec` and calling it — see the
    module header for the exception-semantics argument.  Pickling ships
    the spec alone and recompiles it in the receiving process.
    """

    __slots__ = ("spec", "digest", "cost", "selectivity", "leaves",
                 "lowered", "_fn")

    def __init__(self, spec: Any, digest: str, fn: _EmitFn, cost: float,
                 selectivity: float, leaves: int, lowered: int) -> None:
        self.spec = spec
        self.digest = digest
        self.cost = cost
        self.selectivity = selectivity
        self.leaves = leaves
        self.lowered = lowered
        self._fn = fn

    def evaluate(self, obj: Any) -> bool:
        return self._fn(obj)

    __call__ = evaluate

    def __reduce__(self):
        return (_rebuild_program, (self.spec,))

    def __repr__(self) -> str:
        return (f"ScanProgram(digest={self.digest[:12]}, "
                f"cost={self.cost:.2f}, leaves={self.leaves}, "
                f"lowered={self.lowered})")


_ENABLED = True


def is_enabled() -> bool:
    """Is the planner active? (see :func:`set_enabled`)."""
    return _ENABLED


def set_enabled(on: bool) -> None:
    """Globally enable/bypass the planner (``repro sweep --no-plan``)."""
    global _ENABLED
    _ENABLED = bool(on)


@contextmanager
def disabled():
    """Temporarily bypass the planner — the benchmark's A/B switch."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def compile_spec(spec: Any) -> ScanProgram:
    """Compile a predspec term into a :class:`ScanProgram`.

    Raises for malformed terms and unresolvable named predicates —
    callers on hot paths go through :func:`program_for`, which degrades
    to ``None`` (interpretive fallback) instead.
    """
    root = _build(spec)
    ctx = {"lowered": 0}
    program = ScanProgram(
        spec=spec, digest=root.digest, fn=_shield(_emit_node(root, ctx)),
        cost=root.cost, selectivity=root.selectivity, leaves=root.leaves,
        lowered=ctx["lowered"],
    )
    if _OBS.enabled:
        _OBS.incr("plan.compiles")
    return program


def _rebuild_program(spec: Any) -> Optional[ScanProgram]:
    """Unpickle hook: recompile in this process.  Degrades
    to ``None`` (the payload's task still runs interpretively) rather
    than poisoning the chunk."""
    try:
        return compile_spec(spec)
    except Exception:
        return None


# ---------------------------------------------------------------------------
# The planner: strategy selection and cost estimation per scan task.
# ---------------------------------------------------------------------------

def hidden_spec(pfsm: Any) -> Optional[Any]:
    """The predspec term of the pFSM's hidden set ``¬spec ∧ impl`` —
    ``None`` when either predicate is opaque (not compilable)."""
    spec = getattr(pfsm.spec_accepts, "spec", None)
    if spec is None:
        return None
    impl = pfsm.impl_accepts
    if impl is None:  # no check at all accepts everything
        return ["not", spec]
    impl_spec = getattr(impl, "spec", None)
    if impl_spec is None:
        return None
    return ["and", ["not", spec], impl_spec]


def program_for(pfsm: Any) -> Optional[ScanProgram]:
    """The compiled hidden-set program of one pFSM, or ``None`` when the
    planner is bypassed or the pFSM is not compilable.

    Memoized on the pFSM object, validated against both predicates'
    mutation-aware cache keys.  The memo is left out of a pickled pFSM
    (:meth:`~repro.core.pfsm.PrimitiveFSM.__getstate__`): cache keys
    come from a per-process counter, so a shipped stamp could match an
    unrelated predicate of the receiver.
    """
    if not _ENABLED:
        return None
    impl = pfsm.impl_accepts
    stamp = (pfsm.spec_accepts.cache_key,
             impl.cache_key if impl is not None else None)
    memo = getattr(pfsm, "_plan_program", None)
    if memo is not None and memo[0] == stamp:
        return memo[1]
    term = hidden_spec(pfsm)
    program: Optional[ScanProgram] = None
    if term is not None:
        try:
            program = compile_spec(term)
        except Exception:
            program = None
    try:
        object.__setattr__(pfsm, "_plan_program", (stamp, program))
    except Exception:
        pass
    return program


def _hidden_interval_set(pfsm: Any) -> Optional[IntervalSet]:
    """Interval form of ``¬spec ∧ impl`` (the machinery behind
    ``sweep._hidden_intervals``), or ``None`` if either side is opaque."""
    spec_iv = pfsm.spec_accepts.intervals
    if spec_iv is None:
        return None
    impl = pfsm.impl_accepts
    impl_iv = _FULL_LINE if impl is None else impl.intervals
    if impl_iv is None:
        return None
    return _intersect_intervals(_complement_intervals(spec_iv), impl_iv)


def _domain_size(domain: Any, default: int = 1024) -> int:
    try:
        return len(domain)
    except TypeError:
        return default


@dataclass(frozen=True)
class ScanPlan:
    """The planner's verdict for one ``(pfsm, domain)`` scan task."""

    strategy: str  # "interval" | "columnar" | "compiled" | "plain"
    program: Optional[ScanProgram]
    est_cost: float
    est_objects: int
    reason: str


#: Per-object cost discount of a columnar mask pass relative to the
#: compiled scalar program (measured: vectorized compares amortize
#: dispatch to well under a tenth with numpy, roughly half pure-stdlib).
_COLUMNAR_NUMPY_FACTOR = 0.05
_COLUMNAR_STDLIB_FACTOR = 0.4


def plan_scan(pfsm: Any, domain: Any, limit: int = 10) -> ScanPlan:
    """Pick the scan strategy and estimate its cost.

    Dominance order: closed-form **interval** algebra (O(limit)) ≻
    **columnar** whole-domain mask pass ≻ **compiled** program ≻
    **plain** interpretive scan of the predicates themselves.  This
    mirrors the dispatch in
    :func:`repro.core.sweep.hidden_witness_scan`; the cost estimates
    additionally size chunks in :mod:`repro.core.dist` and surface
    through ``repro sweep --explain``.
    """
    objects = _domain_size(domain)
    if _range_backing(domain) is not None:
        if _hidden_interval_set(pfsm) is not None:
            return ScanPlan(
                strategy="interval", program=None,
                est_cost=float(max(1, min(limit, objects))),
                est_objects=objects,
                reason="closed-form interval algebra over a range-backed "
                       "domain (O(limit), independent of domain size)",
            )
    program = program_for(pfsm)
    if program is not None:
        try:
            from . import columnar as _columnar

            backend = _columnar.kernel_backend(program, domain)
        except Exception:
            backend = None
        if backend is not None:
            factor = (_COLUMNAR_NUMPY_FACTOR if backend == "numpy"
                      else _COLUMNAR_STDLIB_FACTOR)
            return ScanPlan(
                strategy="columnar", program=program,
                est_cost=max(1.0, program.cost * objects * factor),
                est_objects=objects,
                reason=f"whole-column mask pass over the domain's "
                       f"struct-of-arrays encoding ({backend} kernels, "
                       f"{program.leaves} leaves)",
            )
        return ScanPlan(
            strategy="compiled", program=program,
            est_cost=max(1.0, program.cost * objects),
            est_objects=objects,
            reason=f"fused single-pass program over {program.leaves} "
                   f"leaves ({program.lowered} interval-lowered)",
        )
    return ScanPlan(
        strategy="plain", program=None,
        est_cost=max(1.0, _INTERP_COST * objects),
        est_objects=objects,
        reason="opaque predicate — interpretive scan",
    )


def task_cost(task: Sequence[Any]) -> Optional[float]:
    """Plan-estimated cost units of one sweep task, for the greedy-LPT
    chunker — ``None`` when the planner is bypassed (the chunker falls
    back to domain cardinality)."""
    if not _ENABLED:
        return None
    try:
        _model, _operation, pfsm, domain, limit = task
        return max(1.0, plan_scan(pfsm, domain, limit).est_cost)
    except Exception:
        return None


def describe_plan(pfsm: Any, domain: Any, limit: int = 10) -> Dict[str, Any]:
    """JSON-ready plan description for ``repro sweep --explain``."""
    chosen = plan_scan(pfsm, domain, limit)
    payload: Dict[str, Any] = {
        "strategy": chosen.strategy,
        "est_cost": round(chosen.est_cost, 2),
        "objects": chosen.est_objects,
        "reason": chosen.reason,
    }
    program = chosen.program
    if program is not None:
        payload.update({
            "digest": program.digest[:12],
            "program_cost": round(program.cost, 3),
            "selectivity": round(program.selectivity, 3),
            "leaves": program.leaves,
            "lowered_nodes": program.lowered,
        })
    return payload
