"""The long-running analysis server: lifecycle, connections, drain.

A listening socket and an accept thread front-end the engine, and each
connection gets one thread of its own that reads a line, answers it and
writes the answer back; a request that finds the engine idle is scanned
on that same thread (see :mod:`repro.serve.batcher`).  Each connection
speaks the line-JSON protocol of :mod:`repro.serve.protocol` — except
that a first line starting with an HTTP method gets the thin HTTP
façade instead: ``GET /healthz`` (readiness: 200 while ``ready``, 503
otherwise; always includes liveness) and ``GET /metrics`` (the
counters/gauges/latency snapshot), so orchestration probes need no
custom client.

Lifecycle is a strict state machine::

    starting → ready → draining → stopped

``drain()`` (wired to SIGTERM/SIGINT by the CLI) is the graceful half
of the contract: the listener closes (no new connections), requests
arriving on open connections are answered with status ``draining``
(an explicit response, never a dropped byte), the admission queue is
closed and the batcher finishes every admitted request (each batch
has already appended its results to the store), and only then — after
in-flight responses hit their sockets and clients close, bounded by a
grace period — does the server stop, shutting down the sockets of
clients still connected so their threads exit.  ``zero dropped responses`` is the invariant the serve
benchmark measures.

Every method is a plain blocking call, safe from any thread.
:class:`ServerThread` is the embedding tests and benchmarks use;
``repro serve`` waits in :meth:`AnalysisServer.serve_until_stopped` on
the main thread with signal handlers installed.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..obs import DEFAULT as _OBS
from ..obs.prometheus import render_exposition
from ..obs.sinks import JsonlSink
from ..obs.trace import (
    TailRules,
    TraceCollector,
    TraceContext,
    emit_span,
    mint_span_id,
    trace_timeline,
)
from .. import faults as _faults
from ..core import dist
from .batcher import MicroBatcher
from .corpus import AnalysisCorpus
from .protocol import (
    MAX_LINE,
    ProtocolError,
    SHED_STATUSES,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_OK,
    decode_request,
    encode_line,
)
from .stats import STAGE_HELP, ServeStats

__all__ = ["ServeConfig", "AnalysisServer", "ServerThread",
           "STARTING", "READY", "DRAINING", "STOPPED"]

STARTING = "starting"
READY = "ready"
DRAINING = "draining"
STOPPED = "stopped"


@dataclass
class ServeConfig:
    """Every serving knob in one place (the CLI maps flags 1:1)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is announced
    max_depth: int = 64  # admission queue bound
    max_batch: int = 16  # requests per dispatch
    store_path: Optional[str] = None  # resumable result JSONL (optional)
    max_limit: int = 1000  # witness-limit clamp per query
    drain_grace: float = 5.0  # seconds to wait for sockets to flush
    trace: bool = False  # end-to-end request tracing (repro.obs.trace)
    trace_sample: float = 1.0  # head-sampling rate for minted traces
    trace_slow_ms: Optional[float] = None  # tail-keep: retain slower traces
    trace_file: Optional[str] = None  # span JSONL for `repro trace export`
    latency_buckets: Optional[tuple] = None  # stage histogram bounds (s)

    def __post_init__(self) -> None:
        for name in ("max_depth", "max_batch", "max_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError(f"trace_sample must be within [0, 1], "
                             f"got {self.trace_sample!r}")


#: How often a blocked ``accept`` re-checks for a drain where shutting
#: the listener down does not wake it (seconds).
_ACCEPT_POLL = 0.5


class AnalysisServer:
    """One corpus, one admission queue, one batcher, a thread per
    connection."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 corpus: Optional[AnalysisCorpus] = None) -> None:
        self.config = config or ServeConfig()
        self.corpus = corpus or AnalysisCorpus()
        self.stats = ServeStats(buckets=self.config.latency_buckets)
        #: The result store each batch appends to; its records are
        #: loaded once, into the scheduler's memo.
        self.store: Optional[dist.ResultStore] = None
        if self.config.store_path is not None:
            self.store = dist.ResultStore(self.config.store_path)
            dist.record_results([
                (key, limit, finding)
                for key, (limit, finding) in self.store.load().items()])
        self.state = STARTING
        self.host = self.config.host
        self.port: Optional[int] = None
        self.batcher: Optional[MicroBatcher] = None
        self.tracer: Optional[TraceCollector] = None
        self._trace_sink: Optional[JsonlSink] = None
        self._obs_owned = False
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        #: Guards the lifecycle transition, the connections and the
        #: pending-response count.
        self._lock = threading.Lock()
        #: Connection thread -> its socket, or ``None`` once the
        #: connection is closed (the entry stays until the thread is
        #: seen dead, so drain can join every thread it started).
        self._connections: Dict[threading.Thread,
                                Optional[socket.socket]] = {}
        self._pending_responses = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind, start accepting, and report ready."""
        if self.config.trace:
            # The collector reassembles per-request traces; the optional
            # JSONL sink persists raw spans for `repro trace export`.
            # The registry is enabled if nobody (e.g. the CLI profile
            # wrapper) did already — and restored on drain.
            self.tracer = TraceCollector(
                head_sample=self.config.trace_sample,
                tail=TailRules(slow_ms=self.config.trace_slow_ms),
            )
            sinks = [self.tracer]
            if self.config.trace_file:
                self._trace_sink = JsonlSink(self.config.trace_file)
                sinks.append(self._trace_sink)
            self._obs_owned = not _OBS.enabled
            _OBS.enable(*sinks)
        self.batcher = MicroBatcher(
            self.stats,
            store=self.store,
            max_depth=self.config.max_depth,
            max_batch=self.config.max_batch,
        )
        self._listener = socket.create_server(
            (self.config.host, self.config.port), backlog=128)
        self._listener.settimeout(_ACCEPT_POLL)
        self.port = self._listener.getsockname()[1]
        self.state = READY
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(self._listener,), daemon=True,
            name="repro-serve-accept")
        self._accept_thread.start()
        if _OBS.enabled:
            _OBS.event("serve.started", host=self.host, port=self.port,
                       store=bool(self.config.store_path))

    def serve_until_stopped(self) -> None:
        """Block until :meth:`drain` completes."""
        self._stopped.wait()

    def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish admitted work,
        release waiters, and close the connections still open."""
        with self._lock:
            if self.state in (DRAINING, STOPPED):
                return
            self.state = DRAINING
        self.stats.incr("lifecycle.drains")
        if _OBS.enabled:
            _OBS.event("serve.drain", phase="begin",
                       queue_depth=self.batcher.queue_depth()
                       if self.batcher else 0)
        if self._listener is not None:
            # Shut down before closing: a plain close leaves a blocked
            # accept — and the listening socket — alive until it returns.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # not every platform shuts a listening socket down
            self._listener.close()
            self._accept_thread.join()
        if self.batcher is not None:
            self.batcher.stop()  # runs the backlog dry
        if self.store is not None:
            self.store.close()
        # Let in-flight responses reach their sockets and clients hang
        # up on their own; the grace bound keeps shutdown finite even
        # against a client that never closes.
        deadline = time.monotonic() + self.config.drain_grace
        while time.monotonic() < deadline:
            with self._lock:
                if self._pending_responses == 0 and \
                        not any(self._connections.values()):
                    break
            time.sleep(0.01)
        self.state = STOPPED
        if _OBS.enabled:
            _OBS.event("serve.drain", phase="complete")
        if self.tracer is not None:
            # Detach tracing sinks (the collector object survives for
            # post-drain inspection) and restore the registry state we
            # found at start.
            _OBS.remove_sink(self.tracer)
            if self._trace_sink is not None:
                _OBS.remove_sink(self._trace_sink)
                self._trace_sink.close()
                self._trace_sink = None
            if self._obs_owned:
                _OBS.disable()
        with self._lock:
            # Under the lock, so no thread closes a socket in between.
            for conn in filter(None, self._connections.values()):
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # its reader sees EOF
                except OSError:
                    pass  # the client already left
            threads = list(self._connections)
        for thread in threads:
            thread.join()
        self._stopped.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → drain, on a thread of its own (call from
        the main thread)."""
        def handler(_signum: int, _frame: Any) -> None:
            threading.Thread(target=self.drain,
                             name="repro-serve-drain").start()

        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, handler)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        snapshot = self.stats.snapshot()
        snapshot["state"] = self.state
        snapshot["queue_depth"] = (self.batcher.queue_depth()
                                   if self.batcher is not None else 0)
        snapshot["inflight"] = (self.batcher.inflight_count()
                                if self.batcher is not None else 0)
        snapshot["config"] = {
            "max_depth": self.config.max_depth,
            "max_batch": self.config.max_batch,
            "trace": self.config.trace,
        }
        faults_snapshot = _faults.snapshot()
        if faults_snapshot is not None:
            snapshot["faults"] = faults_snapshot
        if self.tracer is not None:
            snapshot["trace"] = self.tracer.stats()
        return snapshot

    def prometheus_metrics(self) -> str:
        """The ``GET /metrics`` body: Prometheus text format 0.0.4."""
        snapshot = self.stats.snapshot()
        gauges = dict(snapshot["gauges"])
        gauges["queue.depth"] = (self.batcher.queue_depth()
                                 if self.batcher is not None else 0)
        gauges["inflight"] = (self.batcher.inflight_count()
                              if self.batcher is not None else 0)
        gauges["up"] = 1.0 if self.state == READY else 0.0
        histograms = {
            f"stage.{name}.seconds": snap
            for name, snap in snapshot["histograms"].items()
        }
        labeled = [
            ("state", {"state": state},
             1.0 if state == self.state else 0.0)
            for state in (STARTING, READY, DRAINING, STOPPED)
        ]
        return render_exposition(
            counters=snapshot["counters"],
            gauges=gauges,
            histograms=histograms,
            labeled_gauges=labeled,
            help_text={f"stage.{name}.seconds": text
                       for name, text in STAGE_HELP.items()},
        )

    # -- connections -------------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while self.state == READY:
            try:
                conn, _address = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # drain() closed the listener
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(target=self._on_connection,
                                      args=(conn,), daemon=True,
                                      name="repro-serve-conn")
            with self._lock:
                for done in [t for t, c in self._connections.items()
                             if c is None and not t.is_alive()]:
                    del self._connections[done]
                self._connections[thread] = conn
            thread.start()

    def _on_connection(self, conn: socket.socket) -> None:
        self.stats.incr("connections")
        reader = conn.makefile("rb")
        try:
            raw = reader.readline(MAX_LINE)
            if not raw:
                return
            first = raw.decode("utf-8", "replace").rstrip("\r\n")
            if first.split(" ", 1)[0] in ("GET", "HEAD", "POST"):
                self._serve_http(first, reader, conn)
                return
            line = first
            while True:
                if len(raw) >= MAX_LINE and not raw.endswith(b"\n"):
                    raise ConnectionError("request line over MAX_LINE")
                if line:
                    with self._lock:
                        self._pending_responses += 1
                    try:
                        response = self._dispatch(line)
                        conn.sendall(encode_line(response))
                    finally:
                        with self._lock:
                            self._pending_responses -= 1
                raw = reader.readline(MAX_LINE)
                if not raw:
                    break
                line = raw.decode("utf-8", "replace").strip()
        except OSError:
            self.stats.incr("connections.aborted")
        finally:
            with self._lock:
                self._connections[threading.current_thread()] = None
            reader.close()
            conn.close()

    def _dispatch(self, line: str) -> Dict[str, Any]:
        started = time.monotonic()
        try:
            request = decode_request(line)
        except ProtocolError as exc:
            self.stats.incr("errors.protocol")
            return {"id": None, "status": STATUS_ERROR, "error": str(exc)}
        rid = request.get("id")
        op = request["op"]
        if op == "ping":
            return {"id": rid, "status": STATUS_OK, "op": "ping",
                    "state": self.state}
        if op == "metrics":
            return {"id": rid, "status": STATUS_OK, "op": "metrics",
                    "metrics": self.metrics()}
        self.stats.incr("requests.query")
        tracer = self.tracer
        ctx: Optional[TraceContext] = None
        request_ctx: Optional[TraceContext] = None
        request_hex: Optional[str] = None
        wall_started = 0.0
        if tracer is not None:
            # Accept the client's context (trace joins an existing
            # distributed trace, sampled flag included) or mint one
            # under the collector's head-sampling rate.  The request
            # span's id is minted up front so stage spans can parent
            # under it before it is emitted.
            header = request.get("traceparent")
            ctx = TraceContext.from_traceparent(header) if header else None
            if ctx is None:
                ctx = TraceContext.mint(sampled=tracer.sample())
            request_hex = mint_span_id()
            request_ctx = TraceContext(ctx.trace_id, request_hex,
                                       ctx.sampled)
            wall_started = _OBS._wall()
            tracer.begin(ctx, model=request["model"], id=rid)
        response: Dict[str, Any]
        if self.state != READY:
            self.stats.incr("shed.draining")
            response = {"id": rid, "status": STATUS_DRAINING,
                        "error": "server is draining; no new work admitted"}
        else:
            try:
                query = self.corpus.expand(
                    request["model"],
                    min(request["limit"], self.config.max_limit),
                )
            except KeyError:
                self.stats.incr("errors.request")
                query = None
                response = {"id": rid, "status": STATUS_ERROR,
                            "error": f"unknown model {request['model']!r}",
                            "models": self.corpus.keys()}
            if query is not None:
                assert self.batcher is not None
                response = self.batcher.submit(
                    query, request["deadline_ms"], ctx=request_ctx)
                response["id"] = rid
        elapsed = time.monotonic() - started
        response["elapsed_ms"] = round(elapsed * 1000.0, 3)
        if response["status"] == STATUS_OK:
            self.stats.record_latency(elapsed)
        if tracer is not None and ctx is not None:
            status = response["status"]
            emit_span(_OBS, "serve.request", ctx, wall_started, elapsed,
                      span_hex=request_hex, parent_hex=ctx.span_id,
                      model=request["model"], status=status,
                      cached=bool(response.get("cached")),
                      coalesced=bool(response.get("coalesced")))
            record = tracer.finish(
                ctx.trace_id,
                status=status,
                elapsed_ms=response["elapsed_ms"],
                shed=status in SHED_STATUSES,
                witness=bool(response.get("findings")),
            )
            response["trace_id"] = ctx.trace_id
            if record is not None:
                self.stats.incr("trace.kept")
                if request.get("trace"):
                    response["trace"] = trace_timeline(record)
            else:
                self.stats.incr("trace.dropped")
        return response

    def _serve_http(self, first_line: str, reader: Any,
                    conn: socket.socket) -> None:
        """The two-endpoint HTTP façade (one request per connection)."""
        while True:  # consume headers
            raw = reader.readline(MAX_LINE)
            if not raw or raw in (b"\r\n", b"\n"):
                break
        parts = first_line.split()
        path = parts[1] if len(parts) > 1 else "/"
        content_type = "application/json"
        payload: Optional[bytes] = None
        if path.startswith("/healthz"):
            ready = self.state == READY
            code, reason = (200, "OK") if ready else (503, "Unavailable")
            body: Dict[str, Any] = {"state": self.state, "ready": ready,
                                    "live": self.state != STOPPED}
        elif path.startswith("/metrics.json") or "format=json" in path:
            # The structured snapshot (same payload as the line-JSON
            # `metrics` op) stays addressable for humans and tests.
            code, reason, body = 200, "OK", self.metrics()
        elif path.startswith("/metrics"):
            code, reason = 200, "OK"
            payload = self.prometheus_metrics().encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            code, reason, body = 404, "Not Found", {"error": "not found"}
        if payload is None:
            payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        conn.sendall(head + payload)
        self.stats.incr("http.requests")


class ServerThread:
    """An :class:`AnalysisServer` serving on threads of its own.

    The embedding used by tests and the benchmark: ``start()`` returns
    once the server is ready (host/port resolved), ``shutdown()``
    drains it from any thread and returns once its threads have exited.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 corpus: Optional[AnalysisCorpus] = None) -> None:
        self.server = AnalysisServer(config, corpus=corpus)

    def start(self) -> "ServerThread":
        self.server.start()
        return self

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def shutdown(self) -> None:
        """Drain; idempotent."""
        self.server.drain()
