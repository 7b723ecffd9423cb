"""Predicate algebra for pFSM conditions.

Observation 3 of the paper: for each elementary activity, the
vulnerability data and code inspection allow deriving a *predicate*
which, if violated, results in a security vulnerability.  A pFSM is then
"a predicate for accepting an input object with respect to the
specification and implementation".

This module makes predicates first-class: named, composable (``&``,
``|``, ``~``), evaluable over arbitrary analysis objects, and queryable
over finite domains (for hidden-path witness search).  A small library of
constructors covers the checks appearing in the paper's Table 2 —
numeric ranges (``0 <= x <= 100``), length bounds
(``length(input) <= size(buffer)``), content checks (contains ``../``,
contains format directives), type checks, and reference-consistency
comparisons.

Alongside the callable, every library constructor carries a declarative
*spec* — a JSON-serializable term describing how to rebuild the
predicate (see :mod:`repro.core.predspec`).  Specs make predicates
picklable (pickling ships the spec, unpickling re-runs the
constructor), hashable by meaning (``spec_hash`` — the key the
distributed sweep runner uses), and transportable to worker processes and, eventually, other
hosts.  Predicates built from raw callables are *opaque* (``spec`` is
``None``) unless registered by name through
:func:`repro.core.predspec.named_predicate`.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Predicate",
    "predicate",
    "always",
    "never",
    "truthy",
    "attr",
    "equals",
    "in_range",
    "less_equal",
    "greater_equal",
    "length_le",
    "contains",
    "not_contains",
    "matches",
    "is_instance",
    "satisfies_all",
    "satisfies_any",
]


# ---------------------------------------------------------------------------
# Closed-form interval semantics.
#
# The comparison constructors (``in_range``, ``less_equal``,
# ``greater_equal``, integer ``equals``) denote *interval sets* over the
# integers.  Carrying that denotation on the predicate lets batch
# evaluation over ``range``-backed domains run arithmetically — witness
# counting becomes interval intersection, O(1) instead of an O(n) scan.
#
# An interval set is a sorted tuple of disjoint ``(low, high)`` pairs
# with ``None`` meaning unbounded on that side.  The combinators below
# keep the representation normalized so ``&``/``|``/``~`` compose exact
# closed forms.
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


#: Full integer line — the interval form of ``always``.
_FULL_LINE: IntervalSet = ((None, None),)

_cache_tokens = itertools.count(1)


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


class Predicate:
    """A named boolean condition over analysis objects.

    Wraps a callable and a human-readable description.  Combinators build
    new predicates; descriptions compose so rendered FSMs stay legible.
    Evaluation errors are treated as *rejection* (a predicate that cannot
    be established does not hold) — matching the fail-secure reading the
    paper gives to checks.
    """

    def __init__(
        self,
        fn: Callable[[Any], bool],
        description: str,
        intervals: Optional[IntervalSet] = None,
        spec: Optional[Any] = None,
    ) -> None:
        self._fn = fn
        self.description = description
        #: Closed-form integer denotation, when one exists (see module
        #: header).  ``None`` means "opaque — evaluate the callable".
        self._intervals = intervals
        #: Declarative rebuild term (see :mod:`repro.core.predspec`);
        #: ``None`` means the predicate cannot be serialized by meaning.
        self._spec = spec
        self._spec_hash: Optional[str] = None
        #: Stable cache identity: unique per instance, never reused
        #: (unlike ``id``), so memoization keys survive garbage
        #: collection of unrelated predicates.
        self._cache_token = next(_cache_tokens)
        #: Bumped whenever the underlying callable is rebound, so caches
        #: keyed on ``cache_key`` never serve stale verdicts.
        self._cache_version = 0

    @property
    def cache_key(self) -> Tuple[int, int]:
        """Key identifying this predicate *and its current behaviour*
        for memoization (see :func:`repro.core.plan.program_for` and
        :func:`repro.core.dist.task_key`)."""
        return (self._cache_token, self._cache_version)

    @property
    def intervals(self) -> Optional[IntervalSet]:
        """The closed-form integer denotation, or ``None`` if opaque."""
        return self._intervals

    @property
    def spec(self) -> Optional[Any]:
        """The declarative rebuild term, or ``None`` if opaque."""
        return self._spec

    @property
    def spec_hash(self) -> Optional[str]:
        """Stable digest of :attr:`spec` — equal for semantically equal
        predicates built in different processes or runs — or ``None``
        for opaque predicates.  Computed once, lazily."""
        if self._spec is None:
            return None
        if self._spec_hash is None:
            from .predspec import spec_digest

            self._spec_hash = spec_digest(self._spec)
        return self._spec_hash

    def __reduce_ex__(self, protocol: int):
        """Spec-carrying predicates pickle as their spec (plus display
        description), so any library-built predicate crosses process
        boundaries regardless of the lambdas inside.  Opaque predicates
        fall back to default pickling — which works exactly when the
        raw callable itself is picklable."""
        if self._spec is not None:
            from .predspec import _rebuild_predicate

            return (_rebuild_predicate, (self._spec, self.description))
        return super().__reduce_ex__(protocol)

    def rebind(self, fn: Callable[[Any], bool],
               description: Optional[str] = None) -> "Predicate":
        """Mutate this predicate in place to a new condition.

        Bumps the cache version so any memoized verdicts for the old
        callable are invalidated; drops the closed form and the spec
        (the new callable is opaque).  Returns ``self`` for chaining.
        """
        self._fn = fn
        if description is not None:
            self.description = description
        self._intervals = None
        self._spec = None
        self._spec_hash = None
        self._cache_version += 1
        return self

    def __call__(self, obj: Any) -> bool:
        return self.evaluate(obj)

    def evaluate(self, obj: Any) -> bool:
        """Evaluate over ``obj``; exceptions count as False."""
        try:
            return bool(self._fn(obj))
        except Exception:
            return False

    def holds_raising(self, obj: Any) -> bool:
        """Evaluate without the exception shield (for debugging models)."""
        return bool(self._fn(obj))

    # -- combinators --------------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        intervals = None
        if self._intervals is not None and other._intervals is not None:
            intervals = _intersect_intervals(self._intervals, other._intervals)
        spec = None
        if self._spec is not None and other._spec is not None:
            spec = ["and", self._spec, other._spec]
        return Predicate(
            lambda obj: self.evaluate(obj) and other.evaluate(obj),
            f"({self.description}) and ({other.description})",
            intervals=intervals,
            spec=spec,
        )

    def __or__(self, other: "Predicate") -> "Predicate":
        intervals = None
        if self._intervals is not None and other._intervals is not None:
            intervals = _union_intervals(self._intervals, other._intervals)
        spec = None
        if self._spec is not None and other._spec is not None:
            spec = ["or", self._spec, other._spec]
        return Predicate(
            lambda obj: self.evaluate(obj) or other.evaluate(obj),
            f"({self.description}) or ({other.description})",
            intervals=intervals,
            spec=spec,
        )

    def __invert__(self) -> "Predicate":
        intervals = None
        if self._intervals is not None:
            intervals = _complement_intervals(self._intervals)
        return Predicate(
            lambda obj: not self.evaluate(obj),
            f"not ({self.description})",
            intervals=intervals,
            spec=None if self._spec is None else ["not", self._spec],
        )

    def implies(self, other: "Predicate") -> "Predicate":
        """Material implication, useful for stating spec ⊆ impl facts."""
        return (~self) | other

    def renamed(self, description: str) -> "Predicate":
        """Same condition, new display name (and, being semantically
        identical, the same spec and spec hash)."""
        return Predicate(self._fn, description, intervals=self._intervals,
                         spec=self._spec)

    # -- batch evaluation -----------------------------------------------------

    def evaluate_batch(self, objects: Iterable[Any]) -> List[bool]:
        """Evaluate over many objects at once.

        Semantically identical to ``[self.evaluate(o) for o in objects]``.
        Predicates with a closed-form integer denotation evaluated over a
        ``range`` skip the per-object callable entirely and answer by
        interval membership; everything else takes the loop fallback.
        """
        backing = _range_backing(objects)
        if backing is not None and self._intervals is not None:
            intervals = self._intervals
            return [_interval_contains(intervals, value) for value in backing]
        evaluate = self.evaluate
        return [evaluate(obj) for obj in objects]

    def count_over(self, domain: Iterable[Any]) -> int:
        """How many domain objects satisfy the predicate.

        O(1) per interval for closed-form predicates over ``range``-backed
        domains; an O(n) scan otherwise.
        """
        backing = _range_backing(domain)
        if backing is not None and self._intervals is not None:
            return sum(
                len(sub) for sub in _clipped_subranges(backing, self._intervals)
            )
        evaluate = self.evaluate
        return sum(1 for obj in domain if evaluate(obj))

    # -- domain queries -------------------------------------------------------

    def witnesses(self, domain: Iterable[Any], limit: int = 10) -> List[Any]:
        """Up to ``limit`` objects from ``domain`` satisfying the predicate."""
        backing = _range_backing(domain)
        if backing is not None and self._intervals is not None:
            found: List[Any] = []
            for sub in _clipped_subranges(backing, self._intervals):
                take = min(limit - len(found), len(sub))
                found.extend(sub[:take])
                if len(found) >= limit:
                    break
            return found
        found = []
        for candidate in domain:
            if self.evaluate(candidate):
                found.append(candidate)
                if len(found) >= limit:
                    break
        return found

    def holds_over(self, domain: Iterable[Any]) -> bool:
        """True when the predicate holds for every element of ``domain``."""
        backing = _range_backing(domain)
        if backing is not None and self._intervals is not None:
            return self.count_over(backing) == len(backing)
        return all(self.evaluate(candidate) for candidate in domain)

    def __repr__(self) -> str:
        return f"Predicate({self.description!r})"


def predicate(description: str) -> Callable[[Callable[[Any], bool]], Predicate]:
    """Decorator form: ``@predicate("0 <= x <= 100")``."""

    def wrap(fn: Callable[[Any], bool]) -> Predicate:
        return Predicate(fn, description)

    return wrap


#: The vacuous check — accepts everything.  An implementation predicate
#: of ``always`` is the paper's "no check performed" (IMPL_REJ absent).
always = Predicate(lambda _obj: True, "true", intervals=_FULL_LINE,
                   spec=["true"])

#: Rejects everything.
never = Predicate(lambda _obj: False, "false", intervals=(), spec=["false"])


def truthy(description: str = "the object is truthy") -> Predicate:
    """``bool(·)`` — the state-flag checks of the reference-consistency
    pFSMs (``addr_free unchanged``, ``handler registered``, ...)."""
    return Predicate(bool, description, spec=["truthy"])


def _get(obj: Any, name: str) -> Any:
    """Attribute access that also understands mappings."""
    if isinstance(obj, Mapping):
        return obj[name]
    return getattr(obj, name)


def attr(name: str, inner: Predicate) -> Predicate:
    """Apply ``inner`` to a named attribute/key of the object."""
    return Predicate(
        lambda obj: inner.evaluate(_get(obj, name)),
        inner.description.replace("·", name)
        if "·" in inner.description
        else f"{name}: {inner.description}",
        spec=None if inner.spec is None else ["attr", name, inner.spec],
    )


def _value_spec(op: str, value: Any) -> Optional[List[Any]]:
    """``[op, encoded value]`` when the value survives the spec value
    codec, else ``None`` (the predicate stays opaque)."""
    from .predspec import try_encode_value

    encoded, ok = try_encode_value(value)
    return [op, encoded] if ok else None


def equals(expected: Any) -> Predicate:
    """``· == expected``."""
    intervals: Optional[IntervalSet] = None
    if isinstance(expected, int) and not isinstance(expected, bool):
        intervals = ((expected, expected),)
    return Predicate(lambda obj: obj == expected, f"· == {expected!r}",
                     intervals=intervals, spec=_value_spec("eq", expected))


def in_range(low: int, high: int) -> Predicate:
    """``low <= · <= high`` — the corrected Sendmail predicate is
    ``in_range(0, 100)``."""
    return Predicate(lambda obj: low <= int(obj) <= high,
                     f"{low} <= · <= {high}",
                     intervals=_normalize_intervals([(low, high)]),
                     spec=["range", low, high])


def less_equal(bound: int) -> Predicate:
    """``· <= bound`` — the *incomplete* Sendmail check is
    ``less_equal(100)``."""
    return Predicate(lambda obj: int(obj) <= bound, f"· <= {bound}",
                     intervals=((None, bound),), spec=["le", bound])


def greater_equal(bound: int) -> Predicate:
    """``· >= bound`` — e.g. ``contentLen >= 0`` (Figure 4 pFSM1)."""
    return Predicate(lambda obj: int(obj) >= bound, f"· >= {bound}",
                     intervals=((bound, None),), spec=["ge", bound])


def length_le(bound: int) -> Predicate:
    """``length(·) <= bound`` — buffer-copy content checks."""
    return Predicate(lambda obj: len(obj) <= bound, f"length(·) <= {bound}",
                     spec=["lenle", bound])


def contains(substring: Any) -> Predicate:
    """``substring in ·`` — e.g. the IIS ``../`` content check."""
    return Predicate(lambda obj: substring in obj, f"· contains {substring!r}",
                     spec=_value_spec("contains", substring))


def not_contains(substring: Any) -> Predicate:
    """``substring not in ·``."""
    return Predicate(
        lambda obj: substring not in obj, f"· does not contain {substring!r}",
        spec=_value_spec("ncontains", substring),
    )


def matches(pattern: str) -> Predicate:
    """Regex search over strings/bytes."""
    compiled = re.compile(pattern)

    def check(obj: Any) -> bool:
        if isinstance(obj, bytes):
            return bool(re.search(pattern.encode("latin-1"), obj))
        return bool(compiled.search(obj))

    return Predicate(check, f"· matches /{pattern}/",
                     spec=["matches", pattern])


def is_instance(*types: type) -> Predicate:
    """Python-level object type check."""
    names = ", ".join(t.__name__ for t in types)
    return Predicate(lambda obj: isinstance(obj, types), f"· is a {names}",
                     spec=["isa", [[t.__module__, t.__qualname__]
                                   for t in types]])


def satisfies_all(*preds: Predicate) -> Predicate:
    """Conjunction of many predicates."""
    result: Optional[Predicate] = None
    for pred in preds:
        result = pred if result is None else (result & pred)
    return result if result is not None else always


def satisfies_any(*preds: Predicate) -> Predicate:
    """Disjunction of many predicates."""
    result: Optional[Predicate] = None
    for pred in preds:
        result = pred if result is None else (result | pred)
    return result if result is not None else never
