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


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One response (or request) as a newline-terminated JSON line."""
    return (json.dumps(payload, separators=(",", ":"), default=str)
            + "\n").encode("utf-8")


def encode_witness(value: Any) -> Any:
    """A witness in tagged JSON, degrading to ``{"__repr__": ...}`` for
    values outside the codec (the response must always render)."""
    try:
        return encode_value(value)
    except ValueError:
        return {"__repr__": repr(value)}


def finding_payload(finding: Any) -> Dict[str, Any]:
    """The response form of one :class:`~repro.core.sweep.SweepFinding`.

    Reuses the finding's memoized wire form (a shallow copy, so a caller
    mutating one response's list cannot corrupt the next); only a
    finding with a witness outside the codec is degraded per witness.
    """
    witnesses = finding.wire_witnesses
    return {
        "operation": finding.operation_name,
        "pfsm": finding.pfsm_name,
        "activity": finding.activity,
        "witnesses": (list(witnesses) if witnesses is not None
                      else [encode_witness(w) for w in finding.witnesses]),
    }
