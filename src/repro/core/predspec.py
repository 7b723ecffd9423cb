"""Declarative predicate specs — serializing predicates by *meaning*.

The :class:`~repro.core.predicates.Predicate` combinator library closes
over lambdas, so a predicate object is only picklable by accident.  That
made ``sweep_models(mode="process")`` fall back to threads for any model
using an opaque check — i.e. for most of the bundled corpus.  This module
fixes the representation instead of the transport: every library
constructor emits a small declarative *spec* term describing how to
rebuild the predicate, and this module is the codec for those terms.

A spec is a nested JSON-serializable list, e.g.::

    ["range", 0, 100]
    ["and", ["ge", 0], ["attr", "length", ["le", 100]]]
    ["named", "repro.models.sendmail", "represents_int32"]

Three operations are exposed:

``to_spec(pred)`` / ``from_spec(spec)``
    Round-trip between predicates and spec terms.  ``from_spec`` rebuilds
    through the ordinary :mod:`repro.core.predicates` constructors, so
    the result carries the same spec as the original.  Its closures are
    the reference semantics the compiled evaluators of
    :mod:`repro.core.plan` are tested against.

``spec_digest(spec)``
    A stable SHA-256 digest of the canonical JSON encoding — equal for
    semantically equal predicates built in different processes or runs.
    This is the identity used by spec-keyed caches and resumable sweeps.

``named_predicate(name, fn, description)``
    Registers an application-defined check under ``(module, name)`` and
    returns a Predicate whose spec is ``["named", module, name]``.  The
    lambda never crosses the process boundary: the receiving side imports
    ``module`` (re-running the registration) and looks the check up by
    name.  App models use this for checks with no library closed form.

Pickle integration lives in ``Predicate.__reduce_ex__``: spec-carrying
predicates serialize as ``(_rebuild_predicate, (spec, description))``,
so any library-built predicate crosses a spawn/fork boundary regardless
of the lambdas inside it.
"""

from __future__ import annotations

import base64
import hashlib
import importlib
import json
import sys
from typing import Any, Callable, Dict, Optional, Tuple

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
    truthy,
)

__all__ = [
    "UnknownPredicateError",
    "named_predicate",
    "to_spec",
    "from_spec",
    "spec_digest",
    "encode_value",
    "encode_witness",
    "decode_value",
    "try_encode_value",
]


class UnknownPredicateError(KeyError):
    """A spec term references an operator or named predicate that this
    process cannot resolve."""


# ---------------------------------------------------------------------------
# Value codec.
#
# Spec terms must survive canonical JSON (for hashing) and JSONL result
# stores, so predicate *arguments* (the ``expected`` of ``equals``, the
# needle of ``contains``) are encoded into a tagged-JSON form.  Values
# outside the codec simply leave the predicate opaque — correctness is
# never at stake, only distributability.
# ---------------------------------------------------------------------------

_SCALARS = (type(None), bool, int, float, str)


def encode_value(value: Any) -> Any:
    """Encode a predicate argument as tagged JSON.

    Raises :class:`ValueError` for values outside the codec.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__list__": [encode_value(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        encoded = [encode_value(v) for v in value]
        # Canonical member order so equal sets hash equally.
        encoded.sort(key=lambda e: json.dumps(e, sort_keys=True))
        tag = "__frozenset__" if isinstance(value, frozenset) else "__set__"
        return {tag: encoded}
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise ValueError("only str-keyed mappings are encodable")
        return {"__dict__": {k: encode_value(v) for k, v in value.items()}}
    raise ValueError(f"value of type {type(value).__name__} is not encodable")


def encode_witness(value: Any) -> Any:
    """A witness in tagged JSON, degrading to ``{"__repr__": ...}`` for
    values outside the codec (a response must always render).  No
    :func:`encode_value` result is such a dict."""
    try:
        return encode_value(value)
    except ValueError:
        return {"__repr__": repr(value)}


def try_encode_value(value: Any) -> Tuple[Any, bool]:
    """``(encoded, True)`` on success, ``(None, False)`` otherwise."""
    try:
        return encode_value(value), True
    except ValueError:
        return None, False


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, _SCALARS):
        return encoded
    if isinstance(encoded, list):
        return [decode_value(v) for v in encoded]
    if isinstance(encoded, dict):
        if len(encoded) == 1:
            (tag, payload), = encoded.items()
            if tag == "__bytes__":
                return base64.b64decode(payload)
            if tag == "__tuple__":
                return tuple(decode_value(v) for v in payload)
            if tag == "__list__":
                return [decode_value(v) for v in payload]
            if tag == "__set__":
                return {decode_value(v) for v in payload}
            if tag == "__frozenset__":
                return frozenset(decode_value(v) for v in payload)
            if tag == "__dict__":
                return {k: decode_value(v) for k, v in payload.items()}
        return {k: decode_value(v) for k, v in encoded.items()}
    raise ValueError(f"malformed encoded value: {encoded!r}")


# ---------------------------------------------------------------------------
# Digests.
# ---------------------------------------------------------------------------

def spec_digest(spec: Any) -> str:
    """SHA-256 over the canonical JSON form of ``spec``."""
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"),
                         ensure_ascii=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Named-predicate registry.
# ---------------------------------------------------------------------------

_REGISTRY: Dict[Tuple[str, str], Predicate] = {}


def named_predicate(
    name: str,
    fn: Any,
    description: Optional[str] = None,
    *,
    module: Optional[str] = None,
) -> Predicate:
    """Register an application check and return its spec-carrying form.

    ``fn`` may be a plain callable or an existing :class:`Predicate`
    (whose callable and — absent an explicit ``description`` — display
    name are reused).  A named leaf is opaque to the planner, like any
    other: it has no interval form.  ``module`` defaults to
    the caller's module; it must be importable in worker processes,
    since ``from_spec(["named", module, name])`` resolves unknown names
    by importing ``module`` and expecting the registration to re-run.

    Registration is idempotent by ``(module, name)``: re-importing a
    model module (as spawn-based workers do) silently overwrites the
    previous entry with an equivalent one.
    """
    if module is None:
        try:
            module = sys._getframe(1).f_globals.get("__name__")
        except ValueError:  # pragma: no cover - exotic interpreters
            module = None
        if module is None:
            module = getattr(fn, "__module__", "__main__")
    spec = ["named", module, name]
    if isinstance(fn, Predicate):
        pred = Predicate(
            fn._fn,
            description if description is not None else fn.description,
            spec=spec,
        )
    else:
        pred = Predicate(fn, description if description is not None else name,
                         spec=spec)
    _REGISTRY[(module, name)] = pred
    return pred


def _lookup_named(module: str, name: str) -> Predicate:
    key = (module, name)
    if key not in _REGISTRY:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            raise UnknownPredicateError(
                f"named predicate {name!r}: module {module!r} not importable"
            ) from exc
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownPredicateError(
            f"module {module!r} did not register a predicate named {name!r}"
        ) from None


# ---------------------------------------------------------------------------
# Spec ↔ predicate round-trip.
# ---------------------------------------------------------------------------

def _resolve_type(module: str, qualname: str) -> type:
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not isinstance(obj, type):
        raise UnknownPredicateError(f"{module}.{qualname} is not a type")
    return obj


_BUILDERS: Dict[str, Callable[..., Predicate]] = {
    "true": lambda: always,
    "false": lambda: never,
    "truthy": lambda: truthy(),
    "eq": lambda v: equals(decode_value(v)),
    "range": lambda low, high: in_range(low, high),
    "le": lambda bound: less_equal(bound),
    "ge": lambda bound: greater_equal(bound),
    "lenle": lambda bound: length_le(bound),
    "contains": lambda v: contains(decode_value(v)),
    "ncontains": lambda v: not_contains(decode_value(v)),
    "matches": lambda pattern: matches(pattern),
    "isa": lambda types: is_instance(
        *[_resolve_type(mod, qual) for mod, qual in types]
    ),
    "attr": lambda name, inner: attr(name, from_spec(inner)),
    "and": lambda a, b: from_spec(a) & from_spec(b),
    "or": lambda a, b: from_spec(a) | from_spec(b),
    "not": lambda a: ~from_spec(a),
    "named": _lookup_named,
}


def to_spec(pred: Predicate) -> Any:
    """The declarative term rebuilding ``pred``.

    Raises :class:`ValueError` for opaque predicates (raw lambdas via
    ``@predicate`` that were never registered with
    :func:`named_predicate`).
    """
    spec = pred.spec
    if spec is None:
        raise ValueError(
            f"predicate {pred.description!r} is opaque (no spec); register "
            "it with named_predicate() to make it distributable"
        )
    return spec


def from_spec(spec: Any) -> Predicate:
    """Rebuild a predicate from its spec term."""
    if not isinstance(spec, (list, tuple)) or not spec:
        raise UnknownPredicateError(f"malformed spec term: {spec!r}")
    op = spec[0]
    builder = _BUILDERS.get(op)
    if builder is None:
        raise UnknownPredicateError(f"unknown spec operator: {op!r}")
    try:
        return builder(*spec[1:])
    except UnknownPredicateError:
        raise
    except TypeError as exc:
        raise UnknownPredicateError(
            f"malformed arguments for spec operator {op!r}: {spec!r}"
        ) from exc


def _rebuild_predicate(spec: Any, description: str) -> Predicate:
    """Unpickle hook (see ``Predicate.__reduce_ex__``)."""
    pred = from_spec(spec)
    if pred.description != description:
        pred = pred.renamed(description)
    return pred
