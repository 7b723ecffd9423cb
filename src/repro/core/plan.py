"""Predicate compilation and cost-based scan planning.

The sweep engine evaluates pFSM hidden-path conditions —
``¬spec ∧ impl`` — interpretively: every :class:`~repro.core.predicates.
Predicate` node is a Python closure calling ``evaluate`` on its
children, each call re-paying the exception shield and the attribute
indirection.

This module lowers the declarative *spec* terms of
:mod:`repro.core.predspec` into fused single-pass scan programs, in the
spirit of compiled query plans (Neumann, VLDB 2011), through a folded
node tree:

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

The folded tree is the only place a closed-form interval denotation
exists (predicates carry none).  Each pFSM memoizes the tree of its
hidden set and the program emitted from it (:func:`program_for`); the
tree is built even when the planner is bypassed, so a ``range``-backed
domain is answered by the tree's intervals either way.

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
is no verdict memo, and no verdict is shared between tasks.  A program
is memoized only on the pFSM it was compiled for, and that memo
survives a fork but never a pickle.  Programs are picklable:
they ship as their spec alone and recompile in the receiving process.

The planner is the one place a scan's strategy is chosen
(:func:`plan_scan`): the sweep runs that choice, and a columnar kernel
evaluates its program's own folded tree (``ScanProgram.root``).  It can
be bypassed wholesale (``set_enabled`` / :func:`disabled` — the
benchmark's A/B switch and the CLI's ``--no-plan``).
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..obs import DEFAULT as _OBS
from . import columnar as _columnar
from .predicates import _get
from .predspec import _lookup_named, _resolve_type, decode_value, spec_digest
from .witness import DistinctRows, distinct_rows

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
# Closed-form interval semantics.
#
# The comparison leaves (``range``, ``le``, ``ge``, integer ``eq``,
# ``true``, ``false``) denote *interval sets* over the integers, and the
# folded tree carries that denotation through ``and``/``or``/``not``.
# Over a ``range``-backed domain a hidden set with one is answered
# arithmetically: witness counting becomes interval intersection, O(1)
# instead of an O(n) scan.
#
# An interval set is a sorted tuple of disjoint ``(low, high)`` pairs
# with ``None`` meaning unbounded on that side.  The combinators below
# keep the representation normalized so ``and``/``or``/``not`` compose
# exact closed forms.
# ---------------------------------------------------------------------------

_NEG_INF = float("-inf")
_POS_INF = float("inf")

Interval = Tuple[Optional[int], Optional[int]]
IntervalSet = Tuple[Interval, ...]


def _lo(bound: Optional[int]) -> Any:
    return _NEG_INF if bound is None else bound


def _hi(bound: Optional[int]) -> Any:
    return _POS_INF if bound is None else bound


def _normalize_intervals(intervals: Iterable[Interval]) -> IntervalSet:
    """Sort, drop empties, and merge touching/overlapping intervals."""
    cleaned = [iv for iv in intervals if _lo(iv[0]) <= _hi(iv[1])]
    cleaned.sort(key=lambda iv: (_lo(iv[0]), _hi(iv[1])))
    merged: List[Interval] = []
    for low, high in cleaned:
        if merged:
            plow, phigh = merged[-1]
            # Adjacent integer intervals (e.g. [0,5] and [6,9]) merge.
            if _lo(low) <= _hi(phigh) + 1:
                if _hi(high) > _hi(phigh):
                    merged[-1] = (plow, high)
                continue
        merged.append((low, high))
    return tuple(merged)


def _intersect_intervals(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out: List[Interval] = []
    for alow, ahigh in a:
        for blow, bhigh in b:
            low = alow if _lo(alow) >= _lo(blow) else blow
            high = ahigh if _hi(ahigh) <= _hi(bhigh) else bhigh
            if _lo(low) <= _hi(high):
                out.append((low, high))
    return _normalize_intervals(out)


def _union_intervals(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return _normalize_intervals(list(a) + list(b))


def _complement_intervals(a: IntervalSet) -> IntervalSet:
    """Integer complement of a *normalized* interval set."""
    out: List[Interval] = []
    cursor: Any = _NEG_INF  # first value not yet covered by ``a``
    for low, high in a:
        if _lo(low) > cursor:
            out.append((None if cursor == _NEG_INF else int(cursor), low - 1))
        if high is None:
            return _normalize_intervals(out)
        cursor = high + 1
    out.append((None if cursor == _NEG_INF else int(cursor), None))
    return _normalize_intervals(out)


def _interval_contains(intervals: IntervalSet, value: int) -> bool:
    return any(_lo(low) <= value <= _hi(high) for low, high in intervals)


#: Full integer line — the interval form of ``true``.
_FULL_LINE: IntervalSet = ((None, None),)


def _range_backing(objects: Any) -> Optional[range]:
    """The ``range`` behind an iterable, if there is one.

    Recognizes raw ``range`` objects and anything exposing a ``backing``
    attribute that is one (``Domain.integers`` keeps its range lazy).
    """
    if isinstance(objects, range):
        return objects
    backing = getattr(objects, "backing", None)
    if isinstance(backing, range):
        return backing
    return None


def _clip_range(backing: range, low: Optional[int], high: Optional[int]) -> range:
    """The sub-range of ``backing`` whose values lie in ``[low, high]``,
    preserving the backing's stride, phase, and iteration direction."""
    step = backing.step
    start, stop = backing.start, backing.stop
    if step > 0:
        if low is not None and low > start:
            start += -(-(low - start) // step) * step  # ceil to stride
        if high is not None:
            stop = min(stop, high + 1)
    else:
        if high is not None and high < start:
            start += -(-(start - high) // -step) * step
        if low is not None:
            stop = max(stop, low - 1)
    return range(start, stop, step)


def _clipped_subranges(backing: range, intervals: IntervalSet) -> List[range]:
    """``backing`` ∩ ``intervals`` as sub-ranges, in iteration order."""
    ordered = intervals if backing.step > 0 else tuple(reversed(intervals))
    return [
        clipped
        for low, high in ordered
        if len(clipped := _clip_range(backing, low, high))
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
                 "selectivity", "intervals", "leaves")

    def __init__(self, op: str, args: Tuple[Any, ...] = (),
                 children: Tuple["_Node", ...] = ()) -> None:
        self.op = op
        self.args = args
        self.children = children
        self.digest = ""
        self.cost = 0.0
        self.selectivity = 0.5
        #: Closed-form integer denotation of the subtree, or ``None``:
        #: when set, the subtree's verdict on an ``int`` is interval
        #: membership (the lowering precondition).
        self.intervals: Optional[IntervalSet] = None
        self.leaves = 1


def _int_bound(bound: Any, upper: bool) -> Any:
    """A comparison bound as the one every strategy reads: a finite
    float becomes the integer bound that selects the same integers
    (floor for an upper bound, ceil for a lower one).  That is exact,
    because the comparison constructors compare ``int(obj)``.  Ints,
    ±inf, nan and non-numeric bounds are kept."""
    if isinstance(bound, float) and math.isfinite(bound):
        return math.floor(bound) if upper else math.ceil(bound)
    return bound


def _bound_intervals(low: Any, high: Any) -> Optional[IntervalSet]:
    """The interval set of ``low <= int(obj) <= high`` for bounds from
    :func:`_int_bound` (an infinity for an absent side), or ``None``
    when a bound is not a number (``int(obj)`` never compares to it)."""
    if not (isinstance(low, (int, float)) and isinstance(high, (int, float))):
        return None
    if not low < _POS_INF or not high > _NEG_INF:
        return ()  # nan, +inf as a lower or -inf as an upper bound
    return _normalize_intervals([(None if low == _NEG_INF else low,
                                  None if high == _POS_INF else high)])


def _leaf(op: str, args: Tuple[Any, ...]) -> _Node:
    if op == "range":
        args = (_int_bound(args[0], False), _int_bound(args[1], True))
    elif op in ("le", "ge"):
        args = (_int_bound(args[0], op == "le"),)
    node = _Node(op, args)
    node.digest = spec_digest([op] + list(args))
    node.cost = _LEAF_COST.get(op, 1.0)
    node.selectivity = _LEAF_SELECTIVITY.get(op, 0.5)
    if op == "true":
        node.intervals = _FULL_LINE
    elif op == "false":
        node.intervals = ()
    elif op == "range":
        node.intervals = _bound_intervals(*args)
    elif op == "le":
        node.intervals = _bound_intervals(_NEG_INF, args[0])
    elif op == "ge":
        node.intervals = _bound_intervals(args[0], _POS_INF)
    elif op == "eq":
        expected = decode_value(args[0])
        if isinstance(expected, int) and not isinstance(expected, bool):
            node.intervals = ((expected, expected),)
    return node


def _make_not(child: _Node) -> _Node:
    node = _Node("not", (), (child,))
    node.digest = spec_digest(["not", child.digest])
    node.cost = child.cost + 0.02
    node.selectivity = 1.0 - child.selectivity
    if child.intervals is not None:
        node.intervals = _complement_intervals(child.intervals)
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


def _emit_node(node: _Node, ctx: Dict[str, Any]) -> _EmitFn:
    """The node's evaluator, without a shield of its own."""
    if node.intervals is not None and node.children and node.leaves >= 2:
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
    if op == "named":
        ctx["named"].append(_lookup_named(node.args[0], node.args[1]))
    return _emit_leaf(node)


# ---------------------------------------------------------------------------
# Compiled programs.
# ---------------------------------------------------------------------------

class ScanProgram:
    """A predicate spec fused into one shielded single-pass evaluator.

    ``evaluate(obj)`` (or calling the program) is verdict-identical to
    building the spec's predicate via
    :func:`repro.core.predspec.from_spec` and calling it — see the
    module header for the exception-semantics argument.  ``root`` is
    the folded node tree the program was emitted from, which columnar
    kernels (:mod:`repro.core.columnar`) evaluate too.  Pickling ships
    the spec alone and recompiles it in the receiving process.  A
    program is weakly referenceable: it keys the verdict tables of the
    distinct-row indexes it scans
    (:attr:`repro.core.witness.DistinctRows.verdicts`).  ``named``
    holds each named predicate it bound with that predicate's
    ``cache_key`` at the time, so :func:`program_for` can emit a new
    program (with no table) once one is rebound in place.
    """

    __slots__ = ("spec", "root", "digest", "cost", "selectivity", "leaves",
                 "lowered", "named", "_fn", "__weakref__")

    def __init__(self, spec: Any, root: _Node, fn: _EmitFn,
                 lowered: int, named: Tuple[Any, ...] = ()) -> None:
        self.spec = spec
        self.root = root
        self.digest = root.digest
        self.cost = root.cost
        self.selectivity = root.selectivity
        self.leaves = root.leaves
        self.lowered = lowered
        self.named = tuple((pred, pred.cache_key) for pred in named)
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
    return _emit(spec, _build(spec))


def _emit(spec: Any, root: _Node) -> ScanProgram:
    """The program of ``spec``, emitted from its folded tree ``root``."""
    ctx: Dict[str, Any] = {"lowered": 0, "named": []}
    program = ScanProgram(spec, root, _shield(_emit_node(root, ctx)),
                          ctx["lowered"], ctx["named"])
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


#: A memo's program before :func:`program_for` first emits it.
_UNEMITTED: Any = object()


def _remember(pfsm: Any, memo: Tuple[Any, ...]) -> Tuple[Any, ...]:
    try:
        object.__setattr__(pfsm, "_plan_program", memo)
    except Exception:
        pass
    return memo


def _lowered(pfsm: Any) -> Tuple[Any, Optional[_Node], Any]:
    """The pFSM's memo ``(stamp, root, program)``: the folded tree of its
    hidden set (``None`` when a predicate is opaque or the term is
    malformed) and the program emitted from it (:data:`_UNEMITTED`
    until :func:`program_for` asks).

    The tree is built whether or not the planner is enabled: it is the
    one interval denotation the interval strategy reads.  The memo is
    validated against both predicates' mutation-aware cache keys, and
    left out of a pickled pFSM
    (:meth:`~repro.core.pfsm.PrimitiveFSM.__getstate__`): cache keys
    come from a per-process counter, so a shipped stamp could match an
    unrelated predicate of the receiver.
    """
    impl = pfsm.impl_accepts
    stamp = (pfsm.spec_accepts.cache_key,
             impl.cache_key if impl is not None else None)
    memo = getattr(pfsm, "_plan_program", None)
    if memo is not None and memo[0] == stamp:
        return memo
    term = hidden_spec(pfsm)
    try:
        root = None if term is None else _build(term)
    except Exception:
        root = None
    return _remember(pfsm, (stamp, root, _UNEMITTED))


def program_for(pfsm: Any) -> Optional[ScanProgram]:
    """The compiled hidden-set program of one pFSM, or ``None`` when the
    planner is bypassed or the pFSM is not compilable.  Emitted once
    from the pFSM's memoized tree (:func:`_lowered`), and again when a
    named predicate the program bound has been rebound since."""
    if not _ENABLED:
        return None
    stamp, root, program = _lowered(pfsm)
    if program is not _UNEMITTED and program is not None and \
            program.named and any(pred.cache_key != key
                                  for pred, key in program.named):
        program = _UNEMITTED  # a named predicate it bound was rebound
    if program is _UNEMITTED:
        try:
            program = None if root is None else _emit(hidden_spec(pfsm), root)
        except Exception:
            program = None
        _remember(pfsm, (stamp, root, program))
    return program


def _choose(pfsm: Any, domain: Any, scan: bool = False
            ) -> Tuple[str, Optional[ScanProgram], Optional[_columnar.Kernel],
                       Optional[DistinctRows], Optional[IntervalSet]]:
    """The one scan-strategy decision: ``(strategy, program, kernel,
    index, intervals)``, in the dominance order :func:`plan_scan`
    documents.

    ``kernel`` is the columnar kernel of a ``"columnar"`` choice and
    ``index`` the domain's distinct-row index (``None`` for ``range``
    and record-product backings, and for an ``"interval"`` choice).
    ``intervals`` is the hidden set's interval set, read from the
    pFSM's folded tree, of an ``"interval"`` choice, which takes a
    ``range``-backed domain whose tree has one, planner bypassed or
    not.
    :func:`repro.core.sweep.hidden_witness_scan` runs what this returns
    (``scan=True``, which materializes a one-shot iterable into its
    index); planning leaves such an iterable unread, and no columnar
    kernel ever takes one, so both see the same strategy.
    """
    if _range_backing(domain) is not None:
        root = _lowered(pfsm)[1]
        if root is not None and root.intervals is not None:
            return "interval", None, None, None, root.intervals
    program = program_for(pfsm)
    index = None
    if scan or isinstance(getattr(domain, "backing", domain), (list, tuple)):
        index = distinct_rows(domain)
    kernel = _columnar.kernel_for(program, domain, index)
    if kernel is not None:
        return "columnar", program, kernel, index, None
    return ("plain" if program is None else "compiled"), program, None, \
        index, None


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
#: dispatch to well under a tenth).
_COLUMNAR_FACTOR = 0.05


def plan_scan(pfsm: Any, domain: Any, limit: int = 10) -> ScanPlan:
    """The strategy a scan of ``domain`` runs, and its estimated cost.

    Dominance order: closed-form **interval** algebra (O(limit)) ≻
    **columnar** whole-domain mask pass ≻ **compiled** program ≻
    **plain** interpretive scan of the predicates themselves.
    :func:`repro.core.sweep.hidden_witness_scan` runs the same choice;
    the cost estimates size chunks in :mod:`repro.core.dist` and
    surface through ``repro sweep --explain``.  ``est_objects`` counts
    what the scan judges: the domain's distinct objects when it has a
    distinct-row index, its rows otherwise.  Never reads a one-shot
    iterable.
    """
    strategy, program, _, index, _ = _choose(pfsm, domain)
    objects = _domain_size(domain) if index is None else len(index.objects)
    if strategy == "interval":
        cost = float(min(limit, objects))
        reason = ("closed-form interval algebra over a range-backed "
                  "domain (O(limit), independent of domain size)")
    elif strategy == "columnar":
        cost = program.cost * objects * _COLUMNAR_FACTOR
        reason = (f"whole-column mask pass over the domain's "
                  f"struct-of-arrays encoding ({program.leaves} leaves)")
    elif strategy == "compiled":
        cost = program.cost * objects
        reason = (f"fused single-pass program over {program.leaves} "
                  f"leaves ({program.lowered} interval-lowered)")
    else:
        cost = _INTERP_COST * objects
        reason = "opaque predicate — interpretive scan"
    return ScanPlan(strategy, program, max(1.0, cost), objects, reason)


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
