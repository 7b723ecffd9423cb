"""The cluster worker agent: claim chunks, execute them, stream back.

An agent is one execution slot in its own process.  It holds a single
connection to its coordinator (every RPC is one request line and one
response line under a lock — the serve framing) and runs two loops:

* the claim loop, on the thread that calls :meth:`ClusterWorker.run`:
  *claim → execute → result*.  Execution is the same
  :func:`repro.core.dist._chunk_worker` call on ``(task index, pickled
  task)`` rows whichever backend shipped them; an agent handed its
  sweep's task list (a local agent) scans ``tasks[index]`` instead of
  unpickling, and a process sweep's rows carry no task bytes.  A chunk
  that raises is reported with ``fail`` so the coordinator requeues it
  under its bounded-retry budget;
* the heartbeat thread renews the agent's lease at the interval the
  coordinator announced in its ``hello`` response, so a *busy* agent
  is never mistaken for a dead one mid-chunk.  Each heartbeat names the
  ``(job, lease)`` pair the agent actually holds: a lease whose claim
  response was lost on the wire is never named, so the coordinator
  lets it expire and requeues its chunk.

Agents run as forked processes, started one of two ways.  ``repro
worker --connect HOST:PORT --workers N`` runs :func:`supervise`: N
agents, each dialled over TCP before its fork, and a replacement for
any agent that exits on its chunk deadline.  A ``backend="process"``
sweep runs :func:`local_workers`: N agents on a private coordinator,
each connected over a ``socketpair`` so nothing listens on a port,
forked after the sweep's task list exists and living for that one
sweep.  Every forked agent holds the read end of a *lifeline* pipe
whose write end only its parent keeps; when the parent dies (SIGKILL
included) the pipe reaches EOF and the agent exits at once, mid-scan
or not.  No agent outlives the process that forked it.

Trace contexts ride along: a claimed chunk may carry a ``traceparent``
(the submitting sweep's trace), which the agent passes straight through
to ``_chunk_worker`` — its spans are recorded under that context and
ship back inside the pickled result for the coordinator to replay.

Failure behaviour is deliberately asymmetric.  Failing to *reach* the
coordinator at startup is an operator error (wrong address, service not
up): :meth:`ClusterWorker.connect` raises :class:`WorkerConnectError`
after ``connect_timeout`` seconds — the CLI turns that into exit code
2, the same contract as ``repro query --connect-timeout``.  Losing the
coordinator *after* having worked for it is normal lifecycle (a
``repro sweep --listen`` fabric dies with its sweep): the agent retries
for the same window, then exits cleanly.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import socket
import threading
import time
import traceback
import uuid
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Set)

from .. import faults as _faults
from ..obs import DEFAULT as _OBS
from .coordinator import ClusterCoordinator
from .protocol import (
    STATUS_CHUNK,
    STATUS_IDLE,
    ClusterProtocolError,
    decode_payload,
    encode_blob,
    encode_line,
    read_line,
)

__all__ = ["ClusterWorker", "WorkerConnectError", "ChunkTimeout",
           "EXIT_TIMED_OUT", "local_workers", "supervise"]

#: Exit status of a forked agent stopped by its chunk deadline;
#: :func:`supervise` starts a replacement for it.
EXIT_TIMED_OUT = 3


class WorkerConnectError(ConnectionError):
    """The coordinator could not be reached within the connect
    timeout."""


class ChunkTimeout(RuntimeError):
    """A chunk blew through the worker's hard execution deadline.

    Reported to the coordinator as a ``fail`` — the ledger's bounded
    retries take over, so a hung predicate costs one deadline instead
    of holding its lease alive forever through heartbeats."""


class ClusterWorker:
    """One worker agent: a single execution slot for a coordinator.

    Parameters
    ----------
    host, port:
        The coordinator's TCP address.
    sock:
        Instead of an address, an already-connected socket the
        coordinator adopted (:meth:`ClusterCoordinator.adopt`): no
        ``hello`` is sent, and a lost connection is never redialled.
    connect_timeout:
        Seconds to keep retrying the initial connect before raising
        :class:`WorkerConnectError`; also the patience window for
        reconnecting after the coordinator goes away mid-run.
    chunk_timeout:
        Optional hard per-chunk execution deadline in seconds
        (``repro worker --chunk-timeout``).  Without it a hung
        predicate holds its lease alive forever (heartbeats renew at
        lease/4 no matter what the scan is doing); with it the chunk is
        reported as ``fail`` so the coordinator's bounded retries
        reassign it, and the agent stops (:attr:`timed_out`) — a forked
        agent exits with :data:`EXIT_TIMED_OUT`, taking the hung scan
        with it.
    tasks:
        The sweep's task list, for an agent forked after it exists
        (:func:`local_workers`): each chunk row names its task by index
        and the agent scans ``tasks[index]``.  Without it, rows carry
        pickled tasks.
    """

    def __init__(self, host: Optional[str] = None, port: int = 0, *,
                 sock: Optional[socket.socket] = None,
                 connect_timeout: float = 10.0,
                 rpc_timeout: float = 120.0, poll_interval: float = 0.05,
                 worker_id: Optional[str] = None,
                 chunk_timeout: Optional[float] = None,
                 tasks: Optional[Sequence[Any]] = None) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.rpc_timeout = rpc_timeout
        self.poll_interval = poll_interval
        self.chunk_timeout = chunk_timeout
        self.tasks = tasks
        self.id = worker_id or f"w-{uuid.uuid4().hex[:12]}"
        self.heartbeat_interval = 2.0
        self.chunks_done = 0
        self.timed_out = False
        self._sock: Optional[socket.socket] = None
        self._reader: Optional[Any] = None
        self._rpc_lock = threading.Lock()
        #: The ``[job, lease]`` pair under execution — the lease each
        #: heartbeat renews.
        self._held: Optional[List[Any]] = None
        self._stop = threading.Event()
        self._ever_connected = sock is not None
        self._run_thread: Optional[threading.Thread] = None
        if sock is not None:
            self._attach_locked(sock)

    # -- connection management -------------------------------------------

    def _attach_locked(self, sock: socket.socket) -> None:
        sock.settimeout(self.rpc_timeout)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def connect(self) -> None:
        """Dial the coordinator and say hello, unless connected already;
        raises :class:`WorkerConnectError` if it cannot be reached."""
        with self._rpc_lock:
            if self._sock is None:
                self._connect_locked()

    def _connect_locked(self) -> bool:
        """(Re)establish the coordinator connection and say hello.
        Caller holds the RPC lock.  ``False`` when the window ran out
        (or the connection was adopted and cannot be redialled)."""
        if self.host is None:
            return False
        deadline = time.monotonic() + self.connect_timeout
        last_error: Optional[Exception] = None
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                sock = socket.create_connection(
                    (self.host, self.port),
                    timeout=max(0.1, min(2.0, remaining)))
            except OSError as exc:
                last_error = exc
                time.sleep(min(0.2, max(0.0, deadline - time.monotonic())))
                continue
            self._attach_locked(sock)
            try:
                response = self._exchange_locked(
                    {"op": "hello", "worker": self.id, "pid": os.getpid(),
                     "host": socket.gethostname()})
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
        for handle in (self._reader, self._sock):
            if handle is not None:
                try:
                    handle.close()
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

    def _execute(self, payload: Any, traceparent: Optional[str]) -> Any:
        """Run one chunk, optionally under the hard ``chunk_timeout``
        deadline.

        With a deadline, execution runs on a watchdog thread; on expiry
        that daemon thread is abandoned, the agent is marked
        :attr:`timed_out`, and :class:`ChunkTimeout` propagates so the
        chunk is failed back to the coordinator.
        """
        if self.chunk_timeout is None:
            return self._execute_now(payload, traceparent)
        box: Dict[str, Any] = {}

        def target() -> None:
            try:
                box["result"] = self._execute_now(payload, traceparent)
            except BaseException as exc:
                box["error"] = exc

        runner = threading.Thread(target=target, daemon=True,
                                  name="cluster-chunk-exec")
        runner.start()
        runner.join(self.chunk_timeout)
        if runner.is_alive():
            self.timed_out = True
            if _OBS.enabled:
                _OBS.incr("cluster.worker.chunk_timeouts")
                _OBS.event("cluster.worker.chunk_timeout",
                           worker=self.id, seconds=self.chunk_timeout)
            raise ChunkTimeout(
                f"chunk exceeded the {self.chunk_timeout:.1f}s hard "
                f"deadline; execution abandoned")
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _execute_now(self, payload: Any, traceparent: Optional[str]) -> Any:
        from ..core import dist

        rule = _faults.fire("worker.chunk.crash")
        if rule is not None:
            raise _faults.InjectedFault("worker.chunk.crash")
        rule = _faults.fire("worker.chunk.hang") \
            or _faults.fire("worker.chunk.slow")
        if rule is not None:
            _faults.sleep_ms(rule)
        return dist._chunk_worker(payload, traceparent, self.tasks)

    def _claim_loop(self) -> None:
        while not self._stop.is_set():
            response = self._rpc({"op": "claim", "worker": self.id})
            if response is None:
                return
            status = response.get("status")
            if status == STATUS_CHUNK:
                self._held = [response.get("job"), response.get("lease")]
                try:
                    self._run_chunk(response)
                finally:
                    self._held = None
                continue
            if status == STATUS_IDLE:
                retry_ms = response.get("retry_ms", 50)
                self._stop.wait(max(self.poll_interval,
                                    float(retry_ms) / 1000.0))
                continue
            # Protocol error: back off rather than spin.
            self._stop.wait(self.poll_interval)

    def _run_chunk(self, response: Dict[str, Any]) -> None:
        job = response.get("job")
        chunk = response.get("chunk")
        lease = response.get("lease")
        try:
            payload = decode_payload(response.get("payload"))
            outcome = self._execute(payload, response.get("traceparent"))
            # A witness from an inherited domain need not pickle.
            data = encode_blob(pickle.dumps(outcome))
        except Exception as exc:
            self._rpc({"op": "fail", "worker": self.id, "job": job,
                       "chunk": chunk, "lease": lease,
                       "error": f"{type(exc).__name__}: {exc}"})
            if self.timed_out:
                self._stop.set()
            return
        reply = self._rpc({"op": "result", "worker": self.id, "job": job,
                           "chunk": chunk, "lease": lease, "data": data})
        if reply is not None:
            self.chunks_done += 1

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            held = self._held
            if self._rpc({"op": "heartbeat", "worker": self.id,
                          "leases": [held] if held else []}) is None:
                return

    # -- lifecycle --------------------------------------------------------

    def run(self) -> int:
        """Serve the coordinator until :meth:`stop`, a chunk deadline,
        or the coordinator goes away.

        Raises :class:`WorkerConnectError` when the coordinator was
        never reachable; returns 0 otherwise (losing a coordinator that
        we did work for is a clean end of life).
        """
        self.connect()
        if _OBS.enabled:
            _OBS.event("cluster.worker.started", worker=self.id,
                       coordinator=f"{self.host}:{self.port}")
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name="cluster-heartbeat", daemon=True)
        heartbeat.start()
        self._claim_loop()
        self._stop.set()
        heartbeat.join()
        with self._rpc_lock:
            if self._sock is not None:
                try:
                    self._exchange_locked({"op": "bye", "worker": self.id})
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
        """Finish the in-flight chunk, say goodbye, stop claiming."""
        self._stop.set()
        if self._run_thread is not None:
            self._run_thread.join(timeout=timeout)


# ---------------------------------------------------------------------------
# Forked agents.
# ---------------------------------------------------------------------------

#: Serializes fork phases across threads.  Every child inherits its
#: parent's open descriptors, including the lifeline write ends of other
#: sweeps' agents.  With forks serialized, which agents hold whose
#: lifeline is acyclic, so a dead parent's agents always unwind.
_FORK_LOCK = threading.Lock()


def _exit_on_eof(lifeline: int) -> None:
    while os.read(lifeline, 1):  # nobody writes; b"" is EOF
        pass
    os._exit(0)


def _fork_agent(worker: ClusterWorker, lifeline: int,
                inherited: Sequence[Any]) -> int:
    """Fork one process serving ``worker``; returns its pid.

    The parent's copy of the worker's connection is closed on return.
    The child closes ``inherited`` (the parent's ends of sockets and
    pipes, as descriptors or objects with ``close()``), exits the
    moment ``lifeline`` reaches EOF, stops gracefully on SIGTERM or
    SIGINT, and otherwise exits when :meth:`ClusterWorker.run` returns:
    with 0, or :data:`EXIT_TIMED_OUT` after a chunk deadline.
    """
    pid = os.fork()
    if pid:
        with worker._rpc_lock:
            worker._teardown_locked()
        return pid
    code = 1
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda _s, _f: worker.stop(timeout=0.0))
        for handle in inherited:
            if isinstance(handle, int):
                os.close(handle)
            else:
                handle.close()
        threading.Thread(target=_exit_on_eof, args=(lifeline,),
                         daemon=True).start()
        worker.run()
        code = EXIT_TIMED_OUT if worker.timed_out else 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)


@contextmanager
def local_workers(count: int,
                  tasks: Sequence[Any]) -> Iterator[ClusterCoordinator]:
    """A private coordinator served by ``count`` forked agents.

    Each agent talks to the coordinator over its own ``socketpair`` and
    is registered before the block runs, so the block's first job waits
    for agents to claim it instead of coming back unplaced.  Forking
    happens on entry: whatever the caller set up before (the ``tasks``
    list with its domains, encodings and compiled programs) is the
    agents' too, and each agent scans ``tasks[index]`` for the index
    rows it claims.
    Leaving the block closes the coordinator; the agents exit and are
    reaped before it returns.  Without ``os.fork`` the coordinator has
    no workers and hands every chunk back unplaced, for the caller to
    run inline.
    """
    coordinator = ClusterCoordinator(host=None)
    adopted: List[Any] = []  # (our socket end, worker id, pid)
    lifeline, keep_alive = os.pipe()
    try:
        with _FORK_LOCK:
            for n in range(count if hasattr(os, "fork") else 0):
                ours, theirs = socket.socketpair()
                worker = ClusterWorker(
                    sock=theirs, worker_id=f"local-{os.getpid()}-{n}",
                    tasks=tasks)
                inherited = [keep_alive, ours] + [a[0] for a in adopted]
                adopted.append((ours, worker.id,
                                _fork_agent(worker, lifeline, inherited)))
        for ours, worker_id, pid in adopted:
            coordinator.adopt(ours, worker_id, pid)
        coordinator.start()
        yield coordinator
    finally:
        coordinator.close()
        os.close(lifeline)
        os.close(keep_alive)  # EOF on every agent's lifeline
        for ours, _worker_id, pid in adopted:
            ours.close()
            os.waitpid(pid, 0)


def supervise(count: int,
              make_worker: Callable[[], ClusterWorker]) -> int:
    """Run ``count`` forked agents until every one has exited.

    ``make_worker`` builds and connects one agent in this process
    (raising :class:`WorkerConnectError` if its coordinator cannot be
    reached); the agent is forked once connected.  An agent that exits
    on its chunk deadline is replaced while its coordinator still
    answers.  SIGTERM and SIGINT are forwarded to the agents, which
    finish their chunk and say goodbye.  Returns the highest agent exit
    status (0 when every agent wound down cleanly).
    """
    lifeline, keep_alive = os.pipe()
    children: Set[int] = set()
    stopping = False

    def spawn() -> None:
        children.add(_fork_agent(make_worker(), lifeline, [keep_alive]))

    def forward(_signum: int, _frame: Any) -> None:
        nonlocal stopping
        stopping = True
        for pid in list(children):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    previous = {signum: signal.signal(signum, forward)
                for signum in (signal.SIGTERM, signal.SIGINT)}
    codes: List[int] = []
    try:
        for _ in range(count):
            spawn()
        while children:
            pid, status = os.wait()
            children.discard(pid)
            code = os.waitstatus_to_exitcode(status)
            if code == EXIT_TIMED_OUT and not stopping:
                try:
                    spawn()
                    continue
                except WorkerConnectError:  # the coordinator left
                    stopping = True
                    code = 0
            codes.append(code)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        os.close(lifeline)
        os.close(keep_alive)
    return max(codes, default=0)
