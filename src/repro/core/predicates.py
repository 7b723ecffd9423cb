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

Predicates carry no closed form of their own: the interval denotation
of the comparison constructors (``in_range``, ``less_equal``,
``greater_equal``, integer ``equals``, ``always``, ``never``) lives on
the folded spec tree of :mod:`repro.core.plan`, which answers
hidden-set scans over ``range``-backed domains by interval algebra.
:meth:`Predicate.witnesses` is the plain object-by-object loop.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Mapping
from typing import Any, Callable, Iterable, List, Optional, Tuple

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


_cache_tokens = itertools.count(1)


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
        spec: Optional[Any] = None,
    ) -> None:
        self._fn = fn
        self.description = description
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
        callable are invalidated; drops the spec (the new callable is
        opaque).  Returns ``self`` for chaining.
        """
        self._fn = fn
        if description is not None:
            self.description = description
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
        spec = None
        if self._spec is not None and other._spec is not None:
            spec = ["and", self._spec, other._spec]
        return Predicate(
            lambda obj: self.evaluate(obj) and other.evaluate(obj),
            f"({self.description}) and ({other.description})",
            spec=spec,
        )

    def __or__(self, other: "Predicate") -> "Predicate":
        spec = None
        if self._spec is not None and other._spec is not None:
            spec = ["or", self._spec, other._spec]
        return Predicate(
            lambda obj: self.evaluate(obj) or other.evaluate(obj),
            f"({self.description}) or ({other.description})",
            spec=spec,
        )

    def __invert__(self) -> "Predicate":
        return Predicate(
            lambda obj: not self.evaluate(obj),
            f"not ({self.description})",
            spec=None if self._spec is None else ["not", self._spec],
        )

    def implies(self, other: "Predicate") -> "Predicate":
        """Material implication, useful for stating spec ⊆ impl facts."""
        return (~self) | other

    def renamed(self, description: str) -> "Predicate":
        """Same condition, new display name (and, being semantically
        identical, the same spec and spec hash)."""
        return Predicate(self._fn, description, spec=self._spec)

    # -- domain queries -------------------------------------------------------

    def witnesses(self, domain: Iterable[Any], limit: int = 10) -> List[Any]:
        """Up to ``limit`` objects from ``domain`` satisfying the predicate,
        in domain order."""
        found: List[Any] = []
        for candidate in domain:
            if self.evaluate(candidate):
                found.append(candidate)
                if len(found) >= limit:
                    break
        return found

    def __repr__(self) -> str:
        return f"Predicate({self.description!r})"


def predicate(description: str) -> Callable[[Callable[[Any], bool]], Predicate]:
    """Decorator form: ``@predicate("0 <= x <= 100")``."""

    def wrap(fn: Callable[[Any], bool]) -> Predicate:
        return Predicate(fn, description)

    return wrap


#: The vacuous check — accepts everything.  An implementation predicate
#: of ``always`` is the paper's "no check performed" (IMPL_REJ absent).
always = Predicate(lambda _obj: True, "true", spec=["true"])

#: Rejects everything.
never = Predicate(lambda _obj: False, "false", spec=["false"])


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
    return Predicate(lambda obj: obj == expected, f"· == {expected!r}",
                     spec=_value_spec("eq", expected))


def in_range(low: int, high: int) -> Predicate:
    """``low <= · <= high`` — the corrected Sendmail predicate is
    ``in_range(0, 100)``."""
    return Predicate(lambda obj: low <= int(obj) <= high,
                     f"{low} <= · <= {high}", spec=["range", low, high])


def less_equal(bound: int) -> Predicate:
    """``· <= bound`` — the *incomplete* Sendmail check is
    ``less_equal(100)``."""
    return Predicate(lambda obj: int(obj) <= bound, f"· <= {bound}",
                     spec=["le", bound])


def greater_equal(bound: int) -> Predicate:
    """``· >= bound`` — e.g. ``contentLen >= 0`` (Figure 4 pFSM1)."""
    return Predicate(lambda obj: int(obj) >= bound, f"· >= {bound}",
                     spec=["ge", bound])


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
