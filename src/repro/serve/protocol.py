"""The wire protocol: line-delimited JSON requests and responses.

One request per line, one response per line, strictly in order on each
connection (concurrency comes from opening more connections — that is
what lets the micro-batcher coalesce across clients).  Three operations:

``query``
    ``{"op": "query", "id": 1, "model": "sendmail", "limit": 5,
    "deadline_ms": 250}`` — hidden-path analysis of one bundled model.
    ``limit`` bounds witnesses per pFSM; ``deadline_ms`` (optional)
    bounds *queueing*: a request still waiting for dispatch past its
    deadline is shed with status ``timeout`` instead of waiting
    unboundedly.  Compute is never preempted mid-scan.  On a tracing
    server, an optional ``traceparent`` (W3C-style string) joins the
    request to an existing distributed trace, and ``trace: true`` asks
    for the reassembled stage timeline in the response (see
    :mod:`repro.obs.trace`).
``ping``
    Liveness + lifecycle state (``ready`` / ``draining`` / ...).
``metrics``
    The same counters/gauges snapshot the HTTP ``/metrics`` façade
    serves.

Every response carries ``id`` (echoed verbatim) and ``status``:

* ``ok`` — the query ran (or was served from cache/coalesced onto an
  identical in-flight request; see the ``cached``/``coalesced`` flags);
* ``overloaded`` — admission control refused the request (queue full);
* ``timeout`` — the request's deadline expired while queued;
* ``draining`` — the server is shutting down and no longer admits work;
* ``error`` — malformed request or unknown model.

The three shed statuses are deliberate *responses*: the contract is
explicit refusal over unbounded latency.  Witness values travel in the
tagged-JSON codec of :mod:`repro.core.predspec`; values outside the
codec degrade to ``{"__repr__": ...}`` so a response can always be
rendered.
"""

from __future__ import annotations

import json
from operator import is_
from typing import Any, Dict, Optional

from ..core.predspec import encode_value

__all__ = [
    "ProtocolError",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_TIMEOUT",
    "STATUS_DRAINING",
    "STATUS_ERROR",
    "SHED_STATUSES",
    "KNOWN_OPS",
    "MAX_LINE",
    "decode_request",
    "encode_line",
    "encode_witness",
    "finding_payload",
]

#: Hard per-line bound — a connection sending more is malformed.
MAX_LINE = 1 << 20

STATUS_OK = "ok"
STATUS_OVERLOADED = "overloaded"
STATUS_TIMEOUT = "timeout"
STATUS_DRAINING = "draining"
STATUS_ERROR = "error"

#: Statuses that mean "explicitly refused", not "failed".
SHED_STATUSES = frozenset(
    {STATUS_OVERLOADED, STATUS_TIMEOUT, STATUS_DRAINING}
)

KNOWN_OPS = ("query", "ping", "metrics")


class ProtocolError(ValueError):
    """A request line that cannot be parsed into a valid request."""


def decode_request(line: str) -> Dict[str, Any]:
    """Parse and validate one request line into a normalized dict.

    Returns ``{"op", "id", ...}`` with op-specific fields (``model``,
    ``limit``, ``deadline_ms`` for queries) type-checked and defaulted.
    Raises :class:`ProtocolError` with a client-renderable message
    otherwise.
    """
    try:
        obj = json.loads(line)
    except ValueError:
        raise ProtocolError("request is not valid JSON")
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    op = obj.get("op", "query")
    if op not in KNOWN_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(KNOWN_OPS)}"
        )
    request: Dict[str, Any] = {"op": op, "id": obj.get("id")}
    if op != "query":
        return request
    model = obj.get("model")
    if not isinstance(model, str) or not model:
        raise ProtocolError("query requires a non-empty string 'model'")
    limit = obj.get("limit", 5)
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
        raise ProtocolError("'limit' must be a non-negative integer")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or \
                not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
            raise ProtocolError("'deadline_ms' must be a positive number")
    traceparent = obj.get("traceparent")
    if traceparent is not None:
        if not isinstance(traceparent, str) or len(traceparent) > 128:
            raise ProtocolError(
                "'traceparent' must be a string of at most 128 characters")
    trace = obj.get("trace", False)
    if not isinstance(trace, bool):
        raise ProtocolError("'trace' must be a boolean")
    request.update(model=model, limit=limit, deadline_ms=deadline_ms,
                   traceparent=traceparent, trace=trace)
    return request


#: ``json.dumps(..., separators=(",", ":"), default=str)``, built once.
_encode = json.JSONEncoder(separators=(",", ":"), default=str).encode


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One response (or request) as a newline-terminated JSON line.

    Byte-identical to ``json.dumps(payload, separators=(",", ":"),
    default=str)``.  A query response's findings are spliced in as
    text: each unmodified :func:`finding_payload` contributes its
    finding's memoized witness text, so no witness is serialized again.
    """
    findings = payload.get("findings")
    if isinstance(findings, list) and findings:
        text = _splice(payload, "findings",
                       "[" + ",".join(map(_finding_text, findings)) + "]")
    else:
        text = _encode(payload)
    return (text + "\n").encode("utf-8")


def _splice(obj: Dict[str, Any], key: str, text: str) -> str:
    """``_encode(obj)`` with ``obj[key]`` taken as the JSON ``text``:
    the members before and after ``key`` are encoded around it, so the
    bytes match a full encoding whenever ``text`` is ``obj[key]``'s."""
    head: Dict[Any, Any] = {}
    tail: Dict[Any, Any] = {}
    part = head
    for name, value in obj.items():
        if name == key:
            part = tail
        else:
            part[name] = value
    spliced = _encode(head)[:-1] + ("," if head else "") \
        + _encode(key) + ":" + text
    return spliced + ("," + _encode(tail)[1:] if tail else "}")


def _finding_text(payload: Any) -> str:
    """One element of ``findings`` as JSON text."""
    if isinstance(payload, _FindingPayload) and payload.pristine():
        return _splice(payload, "witnesses", payload.finding.wire_json)
    return _encode(payload)


def encode_witness(value: Any) -> Any:
    """A witness in tagged JSON, degrading to ``{"__repr__": ...}`` for
    values outside the codec (the response must always render)."""
    try:
        return encode_value(value)
    except ValueError:
        return {"__repr__": repr(value)}


class _FindingPayload(dict):
    """A finding's response dict that remembers its finding and the
    witness list it was built with, so the finding's memoized text is
    only spliced while the dict still holds that list, unchanged."""

    __slots__ = ("finding", "given")

    def pristine(self) -> bool:
        """Does ``self["witnesses"]`` still encode as the finding's
        ``wire_json``?  (Same list, same length, the same objects in
        the same slots.)"""
        witnesses = self.get("witnesses")
        wire = self.finding.wire_witnesses
        return (witnesses is self.given
                and len(witnesses) == len(wire)
                and all(map(is_, witnesses, wire)))


def finding_payload(finding: Any) -> Dict[str, Any]:
    """The response form of one :class:`~repro.core.sweep.SweepFinding`.

    Reuses the finding's memoized wire form (a shallow copy, so a caller
    mutating one response's list cannot corrupt the next) and carries
    its memoized text for :func:`encode_line`.  A caller that replaces
    or edits the list or a field is encoded from the dict as it stands;
    the tagged values inside the list are shared with the finding and
    must not be mutated.  Only a finding with a witness outside the
    codec is degraded per witness.
    """
    if finding.wire_json is None:
        return {
            "operation": finding.operation_name,
            "pfsm": finding.pfsm_name,
            "activity": finding.activity,
            "witnesses": [encode_witness(w) for w in finding.witnesses],
        }
    payload = _FindingPayload(
        operation=finding.operation_name,
        pfsm=finding.pfsm_name,
        activity=finding.activity,
        witnesses=list(finding.wire_witnesses),
    )
    payload.finding = finding
    payload.given = payload["witnesses"]
    return payload
