"""The cluster worker agent: claim chunks, execute locally, stream back.

One agent process serves one coordinator.  It opens a single TCP
connection (every RPC is one request line and one response line under a
lock — the serve framing), announces itself with ``hello``, and runs
``slots`` claim threads plus a heartbeat thread:

* each slot thread loops *claim → execute → result*.  Execution is
  byte-identical to the local process backend: the chunk payload is the
  same ``(task index, pickled task)`` rows, handed to the same
  :func:`repro.core.dist._chunk_worker`, on the agent's own warm
  process pool (``dist._get_pool``) so slots scan in parallel instead
  of serializing on the agent's GIL.  A broken pool is torn down and
  the chunk retried on a fresh one, then inline in the agent — the
  local mirror of dist's crash-retry contract.  A chunk that still
  fails is reported with ``fail`` so the coordinator requeues it under
  its bounded-retry budget;
* the heartbeat thread renews the agent's leases at the interval the
  coordinator announced in its ``hello`` response, so a *busy* worker
  is never mistaken for a dead one mid-chunk.  Each heartbeat names the
  ``(job, lease)`` pairs the slots actually hold: a lease whose claim
  response was lost on the wire is never named, so the coordinator
  lets it expire and requeues its chunk.

Trace contexts ride along: a claimed chunk may carry a ``traceparent``
(the submitting sweep's trace), which the agent passes straight through
to ``_chunk_worker`` — the worker process records its spans under that
context and they ship back inside the pickled result for the
coordinator to replay.

Failure behaviour is deliberately asymmetric.  Failing to *reach* the
coordinator at startup is an operator error (wrong address, service not
up): :meth:`ClusterWorker.run` raises :class:`WorkerConnectError` after
``connect_timeout`` seconds — the CLI turns that into exit code 2, the
same contract as ``repro query --connect-timeout``.  Losing the
coordinator *after* having worked for it is normal lifecycle (a
``repro sweep --listen`` fabric dies with its sweep): the agent retries
for the same window, then exits cleanly.
"""

from __future__ import annotations

import importlib
import os
import pickle
import socket
import threading
import time
import uuid
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from .. import faults as _faults
from ..obs import DEFAULT as _OBS
from .protocol import (
    STATUS_CHUNK,
    STATUS_IDLE,
    ClusterProtocolError,
    decode_payload,
    encode_blob,
    encode_line,
    read_line,
)

__all__ = ["ClusterWorker", "WorkerConnectError", "ChunkTimeout"]


class WorkerConnectError(ConnectionError):
    """The coordinator could not be reached within the connect
    timeout."""


class ChunkTimeout(RuntimeError):
    """A chunk blew through the worker's hard execution deadline.

    Reported to the coordinator as a ``fail`` — the ledger's bounded
    retries take over, so a hung predicate costs one deadline instead
    of holding its lease alive forever through heartbeats."""


class ClusterWorker:
    """One worker agent: local execution slots for a remote queue.

    Parameters
    ----------
    host, port:
        The coordinator's address.
    slots:
        Concurrent chunk claims (and the width of the local warm pool).
    inline:
        Execute chunks in the slot thread instead of the local process
        pool.  Slower (GIL-bound) but with zero subprocesses — used by
        in-process tests and the recovery suite, where SIGKILLing the
        agent must kill the execution with it.
    connect_timeout:
        Seconds to keep retrying the initial connect before raising
        :class:`WorkerConnectError`; also the patience window for
        reconnecting after the coordinator goes away mid-run.
    preload:
        Module names imported before execution starts — the hook for
        registering application predicates
        (:func:`repro.core.predspec.named_predicate`) that shipped
        tasks resolve by name.
    chunk_timeout:
        Optional hard per-chunk execution deadline in seconds
        (``repro worker --chunk-timeout``).  Without it a hung
        predicate holds its lease alive forever (heartbeats renew at
        lease/4 no matter what the slot is doing); with it the chunk is
        killed — pool workers are terminated outright, inline execution
        is abandoned — and reported as ``fail`` so the coordinator's
        bounded retries reassign it.
    """

    def __init__(self, host: str, port: int, *, slots: int = 2,
                 inline: bool = False, connect_timeout: float = 10.0,
                 rpc_timeout: float = 120.0, poll_interval: float = 0.05,
                 preload: Sequence[str] = (),
                 worker_id: Optional[str] = None,
                 chunk_timeout: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self.slots = max(1, slots)
        self.inline = inline
        self.connect_timeout = connect_timeout
        self.rpc_timeout = rpc_timeout
        self.poll_interval = poll_interval
        self.preload = tuple(preload)
        self.chunk_timeout = chunk_timeout
        self.id = worker_id or f"w-{uuid.uuid4().hex[:12]}"
        self.heartbeat_interval = 2.0
        self.chunks_done = 0
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[Any] = None
        self._rpc_lock = threading.Lock()
        #: ``(job, lease)`` pairs the slots are executing — the leases
        #: each heartbeat renews.
        self._held: Set[Tuple[Any, Any]] = set()
        self._held_lock = threading.Lock()
        self._stop = threading.Event()
        self._ever_connected = False
        self._threads: list = []
        self._run_thread: Optional[threading.Thread] = None

    # -- connection management -------------------------------------------

    def _connect_once(self, remaining: float) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=max(0.1, min(2.0, remaining)))
        sock.settimeout(self.rpc_timeout)
        return sock

    def _connect_locked(self) -> bool:
        """(Re)establish the coordinator connection and say hello.
        Caller holds the RPC lock.  ``False`` when the window ran out."""
        deadline = time.monotonic() + self.connect_timeout
        last_error: Optional[Exception] = None
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                sock = self._connect_once(remaining)
            except OSError as exc:
                last_error = exc
                time.sleep(min(0.2, max(0.0, deadline - time.monotonic())))
                continue
            self._sock = sock
            self._reader = sock.makefile("rb")
            try:
                response = self._exchange_locked(
                    {"op": "hello", "worker": self.id, "pid": os.getpid(),
                     "host": socket.gethostname(), "slots": self.slots})
            except (OSError, ValueError, ClusterProtocolError) as exc:
                last_error = exc
                self._teardown_locked()
                continue
            interval = response.get("heartbeat_interval")
            if isinstance(interval, (int, float)) and interval > 0:
                self.heartbeat_interval = float(interval)
            self._ever_connected = True
            return True
        if not self._ever_connected:
            raise WorkerConnectError(
                f"cannot connect to coordinator at "
                f"{self.host}:{self.port} within "
                f"{self.connect_timeout:.1f}s"
                + (f": {last_error}" if last_error else ""))
        return False

    def _teardown_locked(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._reader = None

    def _exchange_locked(self, message: Dict[str, Any]) -> Dict[str, Any]:
        assert self._sock is not None and self._reader is not None
        data = encode_line(message)
        # Request-side fault taps (the recv-side taps live in
        # read_line): a dropped/partial send looks like a dead
        # coordinator and exercises _rpc's reconnect-and-retry.
        if _faults.fire("cluster.send.drop") is not None:
            raise OSError("injected: cluster.send.drop")
        if _faults.fire("cluster.send.partial") is not None:
            self._sock.sendall(data[:max(1, len(data) // 2)])
            raise OSError("injected: cluster.send.partial")
        self._sock.sendall(data)
        line = read_line(self._reader)
        if line is None:
            raise OSError("coordinator closed the connection")
        import json

        return json.loads(line)

    def _rpc(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """One request/response round-trip; reconnects once on a dead
        socket.  ``None`` means the coordinator is gone for good (the
        agent should wind down)."""
        with self._rpc_lock:
            if self._sock is None:
                if not self._connect_locked():
                    self._stop.set()
                    return None
            try:
                return self._exchange_locked(message)
            except (OSError, ValueError, ClusterProtocolError):
                self._teardown_locked()
                if self._stop.is_set():
                    return None
                if not self._connect_locked():
                    self._stop.set()
                    return None
                try:
                    return self._exchange_locked(message)
                except (OSError, ValueError, ClusterProtocolError):
                    self._teardown_locked()
                    self._stop.set()
                    return None

    # -- chunk execution --------------------------------------------------

    def _execute(self, payload: Any,
                 traceparent: Optional[str]) -> Any:
        """Run one chunk exactly like a local pool worker would,
        optionally under the hard ``chunk_timeout`` deadline.

        Without a deadline this is a straight call into
        :meth:`_execute_now`.  With one, execution runs on a watchdog
        thread: on expiry the warm pool's processes are terminated
        (``dist.kill_pool`` — the hung scan dies with them), inline
        execution is abandoned on its daemon thread, and
        :class:`ChunkTimeout` propagates so the chunk is failed back to
        the coordinator.
        """
        if self.chunk_timeout is None:
            return self._execute_now(payload, traceparent)
        from ..core import dist

        box: Dict[str, Any] = {}
        cancelled = threading.Event()

        def target() -> None:
            try:
                box["result"] = self._execute_now(payload, traceparent,
                                                  cancelled)
            except BaseException as exc:
                box["error"] = exc

        runner = threading.Thread(target=target, daemon=True,
                                  name="cluster-chunk-exec")
        runner.start()
        runner.join(self.chunk_timeout)
        if runner.is_alive():
            cancelled.set()
            if not self.inline:
                dist.kill_pool()
            if _OBS.enabled:
                _OBS.incr("cluster.worker.chunk_timeouts")
                _OBS.event("cluster.worker.chunk_timeout",
                           worker=self.id, seconds=self.chunk_timeout)
            raise ChunkTimeout(
                f"chunk exceeded the {self.chunk_timeout:.1f}s hard "
                f"deadline; execution killed")
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _execute_now(self, payload: Any, traceparent: Optional[str],
                     cancelled: Optional[threading.Event] = None) -> Any:
        """Run one chunk exactly like a local pool worker would.

        Pool path mirrors dist's crash-retry contract: broken pool →
        fresh pool → inline.  Exceptions from a *healthy* execution
        propagate to the caller (reported as ``fail``).  A set
        ``cancelled`` event (the watchdog expired and killed the pool)
        stops the retry ladder — the chunk is already being failed.
        """
        from ..core import dist

        rule = _faults.fire("worker.chunk.crash")
        if rule is not None:
            raise _faults.InjectedFault("worker.chunk.crash")
        rule = _faults.fire("worker.chunk.hang") \
            or _faults.fire("worker.chunk.slow")
        if rule is not None:
            _faults.sleep_ms(rule)
        if self.inline:
            return dist._chunk_worker(payload, traceparent)
        from concurrent.futures.process import BrokenProcessPool

        for attempt in range(2):
            pool = dist._get_pool(self.slots)
            try:
                future = pool.submit(dist._chunk_worker, payload,
                                     traceparent)
                return future.result()
            except BrokenProcessPool:
                if cancelled is not None and cancelled.is_set():
                    raise ChunkTimeout("execution cancelled by the "
                                       "chunk deadline watchdog")
                dist.shutdown_pool()
                if attempt == 0:
                    continue
        return dist._chunk_worker(payload, traceparent)

    def _slot_loop(self) -> None:
        while not self._stop.is_set():
            response = self._rpc({"op": "claim", "worker": self.id})
            if response is None:
                return
            status = response.get("status")
            if status == STATUS_CHUNK:
                self._handle_chunk(response)
                continue
            if status == STATUS_IDLE:
                retry_ms = response.get("retry_ms", 50)
                self._stop.wait(max(self.poll_interval,
                                    float(retry_ms) / 1000.0))
                continue
            # Protocol error: back off rather than spin.
            self._stop.wait(self.poll_interval)

    def _handle_chunk(self, response: Dict[str, Any]) -> None:
        held = (response.get("job"), response.get("lease"))
        with self._held_lock:
            self._held.add(held)
        try:
            self._run_chunk(response)
        finally:
            with self._held_lock:
                self._held.discard(held)

    def _run_chunk(self, response: Dict[str, Any]) -> None:
        job = response.get("job")
        chunk = response.get("chunk")
        lease = response.get("lease")
        traceparent = response.get("traceparent")
        try:
            payload = decode_payload(response.get("payload"))
            outcome = self._execute(payload, traceparent)
        except Exception as exc:
            self._rpc({"op": "fail", "worker": self.id, "job": job,
                       "chunk": chunk, "lease": lease,
                       "error": f"{type(exc).__name__}: {exc}"})
            return
        data = encode_blob(pickle.dumps(outcome))
        reply = self._rpc({"op": "result", "worker": self.id, "job": job,
                           "chunk": chunk, "lease": lease, "data": data})
        if reply is not None:
            self.chunks_done += 1

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._held_lock:
                held = [list(pair) for pair in self._held]
            if self._rpc({"op": "heartbeat", "worker": self.id,
                          "leases": held}) is None:
                return

    # -- lifecycle --------------------------------------------------------

    def run(self) -> int:
        """Serve the coordinator until :meth:`stop` or it goes away.

        Raises :class:`WorkerConnectError` when the coordinator was
        never reachable; returns 0 otherwise (losing a coordinator that
        we did work for is a clean end of life).
        """
        for module in self.preload:
            importlib.import_module(module)
        with self._rpc_lock:
            self._connect_locked()  # raises WorkerConnectError
        if _OBS.enabled:
            _OBS.event("cluster.worker.started", worker=self.id,
                       coordinator=f"{self.host}:{self.port}",
                       slots=self.slots)
        self._threads = [
            threading.Thread(target=self._slot_loop,
                             name=f"cluster-slot-{n}", daemon=True)
            for n in range(self.slots)
        ]
        self._threads.append(threading.Thread(
            target=self._heartbeat_loop, name="cluster-heartbeat",
            daemon=True))
        for thread in self._threads:
            thread.start()
        for thread in self._threads:
            while thread.is_alive():
                thread.join(timeout=0.2)
        with self._rpc_lock:
            if self._sock is not None:
                try:
                    self._exchange_locked(
                        {"op": "bye", "worker": self.id})
                except (OSError, ValueError, ClusterProtocolError):
                    pass
                self._teardown_locked()
        return 0

    def start(self) -> None:
        """Run the agent on a background thread (tests, embedding)."""
        self._run_thread = threading.Thread(
            target=self.run, name=f"cluster-worker-{self.id}",
            daemon=True)
        self._run_thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Finish in-flight chunks, say goodbye, stop claiming."""
        self._stop.set()
        if self._run_thread is not None:
            self._run_thread.join(timeout=timeout)
