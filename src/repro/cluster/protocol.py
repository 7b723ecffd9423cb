"""The cluster wire protocol: line-delimited JSON over a stream socket.

Same framing conventions as :mod:`repro.serve.protocol` — one message
per newline-terminated JSON line, one response per request, strictly in
order on each connection — but between *workers* and the *coordinator*
rather than clients and the service.  Worker-initiated operations:

``hello``
    ``{"op": "hello", "worker": <hex id>, "pid": 1234, "host": "..."}``
    — announce a worker agent dialling in over TCP (local workers on a
    socketpair are registered when adopted and skip it).  The response
    carries the coordinator's lease timeout and suggested heartbeat
    interval.
``claim``
    Ask for one chunk of work.  The response is either ``status:
    "chunk"`` — carrying ``job``/``chunk``/``lease`` identifiers, an
    optional ``traceparent`` continuing the submitting sweep's trace,
    and the serialized task ``payload`` — or ``status: "idle"`` with a
    suggested ``retry_ms`` backoff and an ``active`` flag (are there
    jobs in flight at all?).
``result``
    Return one finished chunk: ``{"op": "result", "worker": ...,
    "job": J, "chunk": C, "lease": L, "data": <base64>}``.  ``data`` is
    the pickled worker outcome — exactly what
    :func:`repro.core.dist._chunk_worker` returned, so the coordinator
    reassembles bit-for-bit what the process backend would have seen.
``fail``
    Report a chunk the worker could not execute (the chunk is requeued
    under the bounded-retry contract).
``heartbeat``
    Renew the leases the worker holds, named as ``"leases": [[job,
    lease], ...]``.  Only those leases are renewed, each in its own
    job; one the worker never heard of (its claim response was lost)
    expires and its chunk is requeued.
``bye``
    Clean departure (leases already released or results delivered).
``ping``
    Liveness probe: worker/chunk gauges (tests and the CLI use it).

Every response echoes ``status``: ``ok``, ``chunk``, ``idle``, or
``error`` (with a ``message``).  Task payloads travel as base64-encoded
*pickled bytes* produced by the scheduler's per-task serialization
probe (:func:`repro.core.dist._serialize_task`); the codec here never
re-pickles, so the bytes a worker unpickles are identical for either
backend.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import faults as _faults

__all__ = [
    "ClusterProtocolError",
    "MAX_LINE",
    "STATUS_OK",
    "STATUS_CHUNK",
    "STATUS_IDLE",
    "STATUS_ERROR",
    "KNOWN_OPS",
    "encode_line",
    "decode_message",
    "encode_payload",
    "decode_payload",
    "encode_blob",
    "decode_blob",
    "parse_address",
    "read_line",
]

#: Hard per-line bound.  Chunk payloads carry pickled tasks (domains
#: included when shared memory cannot cross the host boundary), so the
#: bound is far above the serve protocol's 1 MiB.
MAX_LINE = 1 << 26

STATUS_OK = "ok"
STATUS_CHUNK = "chunk"
STATUS_IDLE = "idle"
STATUS_ERROR = "error"

KNOWN_OPS = ("hello", "claim", "result", "fail", "heartbeat", "bye", "ping")


class ClusterProtocolError(ValueError):
    """A message line that cannot be parsed into a valid message."""


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One message as a newline-terminated JSON line (serve framing)."""
    return (json.dumps(payload, separators=(",", ":"), default=str)
            + "\n").encode("utf-8")


def decode_message(line: str) -> Dict[str, Any]:
    """Parse and validate one worker message line.

    Returns the decoded dict with ``op`` validated and ``worker``
    type-checked (every op but ``ping`` requires one).  Raises
    :class:`ClusterProtocolError` with a renderable message otherwise.
    """
    try:
        obj = json.loads(line)
    except ValueError:
        raise ClusterProtocolError("message is not valid JSON")
    if not isinstance(obj, dict):
        raise ClusterProtocolError("message must be a JSON object")
    op = obj.get("op")
    if op not in KNOWN_OPS:
        raise ClusterProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(KNOWN_OPS)}"
        )
    worker = obj.get("worker")
    if op != "ping" and (not isinstance(worker, str) or not worker):
        raise ClusterProtocolError(
            f"{op} requires a non-empty string 'worker'")
    return obj


def encode_blob(raw: bytes) -> str:
    """Binary payload (pickled bytes) as a JSON-safe base64 string."""
    return base64.b64encode(raw).decode("ascii")


def decode_blob(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError):
        raise ClusterProtocolError("payload is not valid base64")


def encode_payload(
    payload: Sequence[Tuple[int, bytes]],
) -> List[List[Any]]:
    """One chunk's ``(task index, serialized task)`` rows, wire form."""
    return [[index, encode_blob(raw)] for index, raw in payload]


def decode_payload(rows: Any) -> List[Tuple[int, bytes]]:
    """Inverse of :func:`encode_payload`, validated."""
    if not isinstance(rows, list):
        raise ClusterProtocolError("chunk payload must be a list")
    decoded: List[Tuple[int, bytes]] = []
    for row in rows:
        if (not isinstance(row, (list, tuple)) or len(row) != 2
                or isinstance(row[0], bool) or not isinstance(row[0], int)
                or not isinstance(row[1], str)):
            raise ClusterProtocolError(
                "chunk payload rows must be [index, base64] pairs")
        decoded.append((row[0], decode_blob(row[1])))
    return decoded


def parse_address(text: str, *, default_host: str = "127.0.0.1",
                  flag: str = "address") -> Tuple[str, int]:
    """``"host:port"`` (or bare ``"port"``) → ``(host, port)``.

    Raises :class:`ValueError` with a CLI-renderable message naming the
    offending ``flag`` for anything else.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    if not host:
        host = default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"{flag} must look like HOST:PORT, got {text!r}")
    if not 0 <= port <= 65535:
        raise ValueError(f"{flag} port out of range: {port}")
    return host, port


def read_line(reader: Any) -> Optional[str]:
    """One protocol line from a file-like reader, or ``None`` on EOF.

    Enforces :data:`MAX_LINE` (a longer line raises
    :class:`ClusterProtocolError` — the peer is malformed, not slow).

    Fault-injection taps (:mod:`repro.faults`) live here because both
    sides of the wire read through this function: ``cluster.recv.delay``
    stalls the frame (a slow network), ``cluster.recv.garble`` corrupts
    the received line (a broken peer/framing bug) — the reader's normal
    protocol-error recovery must absorb both.
    """
    rule = _faults.fire("cluster.recv.delay")
    if rule is not None:
        _faults.sleep_ms(rule)
    line = reader.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise ClusterProtocolError("message line exceeds MAX_LINE")
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    if _faults.fire("cluster.recv.garble") is not None:
        return "\x00garbled" + line[: max(0, len(line) // 3)]
    return line
