"""A small synchronous client for the analysis service.

Used by the CLI (``repro query``), the test suite, and the serve
benchmark.  One client wraps one connection and is internally locked,
so sharing an instance across threads serializes its requests — for
concurrent load (and for coalescing to have anything to coalesce), give
each thread its own client.

Resilience contract
-------------------
Connection establishment retries inside a *total budget*
(``connect_timeout``, falling back to ``timeout``) with capped
exponential backoff and decorrelated jitter — a server that is still
binding its socket costs milliseconds, not an exit code.  Idempotent
requests (``query``/``ping``/``metrics`` — the server computes the same
answer for the same fingerprint) are retried up to ``retries`` times on
connection errors, reconnecting between attempts.  With ``hedge_after``
set, a query that has not answered within the hedge delay (a float in
seconds, or ``"p95"`` for a delay derived from this client's observed
latencies) is *also* sent on a second, fresh connection; the first
response wins.  Hedges trade duplicate server work for tail latency —
coalescing on the server makes the duplicate nearly free.

Responses
---------
A response line carries each finding's witnesses as a witness table
(``{"values": [...], "codes": [...]}``, see :mod:`repro.serve.protocol`).
Every method returns the response with each table expanded back into
its witness list, as tagged JSON values in witness order.  A witness
that repeats in a list is one decoded object, not a copy per
occurrence: mutating one occurrence mutates them all.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from collections import deque
from queue import Empty, Queue
from typing import Any, Dict, Optional, Union

from .protocol import MAX_LINE, expand_findings

__all__ = ["ServeClient", "wait_until_ready"]

#: Decorrelated-jitter backoff parameters for connection retries.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: Hedge delay used before enough latency samples exist for a p95.
_HEDGE_FLOOR = 0.05


class ServeClient:
    """Blocking line-JSON client over one TCP connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0,
                 connect_timeout: Optional[float] = None,
                 retries: int = 2,
                 hedge_after: Optional[Union[float, str]] = None,
                 rng: Optional[random.Random] = None) -> None:
        """``connect_timeout`` is the *total budget* for establishing a
        connection — attempts retry with backoff inside it, so a server
        that is a beat behind its client connects on the second try
        instead of failing the command.  ``None`` falls back to
        ``timeout``.  ``retries`` bounds idempotent-request retries;
        ``hedge_after`` enables hedged queries (seconds, or ``"p95"``).
        """
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (timeout if connect_timeout is None
                                else connect_timeout)
        self.retries = max(0, retries)
        self.hedge_after = hedge_after
        self.connect_attempts = 0
        self.request_retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        self._latencies: "deque[float]" = deque(maxlen=64)
        self._serial = 0
        self._sock: Optional[socket.socket] = None
        self._file: Optional[Any] = None
        self._connect()

    # -- connection --------------------------------------------------------

    def _connect(self) -> None:
        """Establish the connection inside the total budget.

        Capped exponential backoff with decorrelated jitter: each sleep
        is uniform over ``[base, 3 * previous]``, capped — retries
        de-synchronize instead of stampeding a restarting server.  The
        first attempt always runs, so a zero budget degrades to the old
        single-attempt behaviour.
        """
        deadline = time.monotonic() + max(0.0, self.connect_timeout)
        sleep_s = _BACKOFF_BASE
        while True:
            self.connect_attempts += 1
            remaining = deadline - time.monotonic()
            attempt_timeout = min(self.timeout, remaining) \
                if remaining > 0 else self.timeout
            try:
                sock = socket.create_connection(
                    (self.host, self.port),
                    timeout=max(0.05, attempt_timeout))
            except OSError as exc:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ConnectionError(
                        f"could not connect to {self.host}:{self.port} "
                        f"within {self.connect_timeout:.1f}s "
                        f"({self.connect_attempts} attempts): {exc}"
                    ) from exc
                sleep_s = min(_BACKOFF_CAP,
                              self._rng.uniform(_BACKOFF_BASE,
                                                sleep_s * 3))
                time.sleep(min(sleep_s, remaining))
                continue
            sock.settimeout(self.timeout)
            self._sock = sock
            self._file = sock.makefile("rwb")
            return

    def _teardown(self) -> None:
        try:
            if self._file is not None:
                self._file.close()
        except OSError:
            pass
        try:
            if self._sock is not None:
                self._sock.close()
        except OSError:
            pass
        self._file = None
        self._sock = None

    # -- requests ----------------------------------------------------------

    def _request_locked(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response exchange on the held connection."""
        started = time.monotonic()
        self._file.write(
            (json.dumps(payload, separators=(",", ":")) + "\n")
            .encode("utf-8"))
        self._file.flush()
        line = self._file.readline(MAX_LINE)
        if not line:
            raise ConnectionError("server closed the connection")
        response = expand_findings(json.loads(line.decode("utf-8")))
        self._latencies.append(time.monotonic() - started)
        return response

    def request(self, payload: Dict[str, Any], *,
                idempotent: bool = True) -> Dict[str, Any]:
        """Send one request object, return its response object.

        Idempotent requests retry up to ``retries`` times on connection
        errors (including a mid-exchange drop — the request id is fixed
        before the first attempt, so the server sees a resend, not a new
        request).  A garbled response line desynchronizes the stream, so
        it reconnects too.
        """
        with self._lock:
            if payload.get("id") is None:
                self._serial += 1
                payload = dict(payload, id=self._serial)
            attempts = (self.retries + 1) if idempotent else 1
            last_error: Optional[BaseException] = None
            for attempt in range(attempts):
                if attempt:
                    self.request_retries += 1
                    self._teardown()
                    try:
                        self._connect()
                    except (OSError, ConnectionError) as exc:
                        last_error = exc
                        continue
                try:
                    return self._request_locked(payload)
                except (OSError, ConnectionError, ValueError) as exc:
                    last_error = exc
            assert last_error is not None
            raise last_error

    # -- hedging -----------------------------------------------------------

    def _hedge_delay(self) -> float:
        if isinstance(self.hedge_after, (int, float)):
            return max(0.0, float(self.hedge_after))
        ordered = sorted(self._latencies)
        if len(ordered) < 5:
            return _HEDGE_FLOOR
        return ordered[min(len(ordered) - 1,
                           int(0.95 * len(ordered)))]

    def _hedged_request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """The primary request plus, after the hedge delay, a duplicate
        on a fresh one-shot connection.  First response wins; a losing
        primary finishes its exchange on its own thread (the connection
        lock keeps the stream consistent)."""
        if payload.get("id") is None:
            with self._lock:
                self._serial += 1
            payload = dict(payload, id=self._serial)
        delay = self._hedge_delay()
        results: "Queue[Any]" = Queue()

        def primary() -> None:
            try:
                results.put(("primary", self.request(payload)))
            except BaseException as exc:
                results.put(("primary", exc))

        runner = threading.Thread(target=primary, daemon=True,
                                  name="serve-client-primary")
        runner.start()
        try:
            origin, outcome = results.get(timeout=delay)
        except Empty:
            pass
        else:
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        self.hedges += 1

        def hedge() -> None:
            try:
                with socket.create_connection(
                        (self.host, self.port),
                        timeout=self.timeout) as sock:
                    sock.settimeout(self.timeout)
                    handle = sock.makefile("rwb")
                    handle.write(
                        (json.dumps(payload, separators=(",", ":"))
                         + "\n").encode("utf-8"))
                    handle.flush()
                    line = handle.readline(MAX_LINE)
                    if not line:
                        raise ConnectionError(
                            "server closed the hedge connection")
                    results.put(("hedge", expand_findings(
                        json.loads(line.decode("utf-8")))))
            except BaseException as exc:
                results.put(("hedge", exc))

        threading.Thread(target=hedge, daemon=True,
                         name="serve-client-hedge").start()

        first_error: Optional[BaseException] = None
        for _ in range(2):
            origin, outcome = results.get(timeout=self.timeout + delay)
            if isinstance(outcome, BaseException):
                if first_error is None:
                    first_error = outcome
                continue
            if origin == "hedge":
                self.hedge_wins += 1
            return outcome
        assert first_error is not None
        raise first_error

    # -- operations --------------------------------------------------------

    def query(self, model: str, limit: int = 5,
              deadline_ms: Optional[float] = None,
              request_id: Any = None,
              trace: bool = False,
              traceparent: Optional[str] = None) -> Dict[str, Any]:
        """Hidden-path analysis of one model (see the protocol doc).

        ``traceparent`` joins an existing W3C trace; ``trace=True`` asks
        the server to return the reassembled per-stage timeline on the
        response (tracing must be enabled server-side for either to have
        an effect).  With ``hedge_after`` configured, a slow answer is
        raced by a duplicate on a second connection.
        """
        payload: Dict[str, Any] = {"op": "query", "model": model,
                                   "limit": limit, "id": request_id}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if trace:
            payload["trace"] = True
        if traceparent is not None:
            payload["traceparent"] = traceparent
        if self.hedge_after is not None:
            return self._hedged_request(payload)
        return self.request(payload)

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def metrics(self) -> Dict[str, Any]:
        """The server's counters/gauges/latency snapshot."""
        return self.request({"op": "metrics"})["metrics"]

    def resilience_stats(self) -> Dict[str, int]:
        """Client-side retry/hedge counters (the CLI's --json block)."""
        return {
            "connect_attempts": self.connect_attempts,
            "request_retries": self.request_retries,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
        }

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def wait_until_ready(host: str, port: int, timeout: float = 30.0,
                     interval: float = 0.05) -> bool:
    """Poll until the server answers a ping with state ``ready``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with ServeClient(host, port, timeout=5.0,
                             connect_timeout=0.0, retries=0) as client:
                if client.ping().get("state") == "ready":
                    return True
        except (OSError, ValueError):
            pass
        time.sleep(interval)
    return False
