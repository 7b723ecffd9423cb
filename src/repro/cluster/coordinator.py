"""The cluster coordinator: the dist chunk scheduler's one transport.

One coordinator serves many sweeps and many workers.  Sweeps enter
through :meth:`ClusterCoordinator.run_chunks` — the scheduler hands
over wire-ready chunks (lists of ``(task index, serialized task)``
rows, exactly the payloads :func:`repro.core.dist._chunk_worker`
executes) and blocks until every chunk has an outcome.  Workers speak
the line-JSON protocol (:mod:`repro.cluster.protocol`): they claim
chunks, execute them in their own process, and stream results back.
A coordinator either listens on TCP for ``repro worker`` agents
(``backend="cluster"``) or, built with ``host=None``, is *private*: it
listens nowhere and serves only the socketpairs of the workers
:func:`repro.cluster.worker.local_workers` forks for one
``backend="process"`` sweep (:meth:`adopt`).  In between sits one
:class:`~repro.cluster.lease.ChunkLedger` per job: every claim carries
a lease, heartbeats renew it, and a reaper thread reclaims chunks from
workers that stop renewing — plus a fast path that reclaims
immediately when a worker's connection drops (a SIGKILLed worker is
detected in milliseconds, not a lease timeout later).

**Liveness without workers.**  The coordinator never strands a sweep:
while no worker is connected, the submitting thread itself claims
chunks and runs them inline (``cluster.chunks.inline``), so a sweep
with zero workers — or one whose every worker died mid-run — degrades
to local execution and still completes.  Chunks whose retries are
exhausted surface back to the scheduler, which falls back to its usual
inline per-task path.  Either way the result set is bit-for-bit what
the thread backend would have produced.

**Observability.**  Counters are kept unconditionally in the
coordinator (:meth:`snapshot` — the CLI's ``--json`` cluster block and
the recovery tests read them) and mirrored to the obs registry under
``cluster.*`` when it is enabled; both backends share them.  When the
submitting sweep runs under an ambient trace, each chunk ships a
``traceparent`` continuing that trace; the worker's finished spans
come back with the results and are replayed into this process's sinks
under a per-chunk ``cluster.chunk`` span — one timeline across
processes and hosts.
"""

from __future__ import annotations

import itertools
import pickle
import socket
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import faults as _faults
from ..obs import DEFAULT as _OBS
from ..obs.trace import TraceContext, emit_span, mint_span_id
from .lease import ChunkLedger
from .protocol import (
    STATUS_CHUNK,
    STATUS_ERROR,
    STATUS_IDLE,
    STATUS_OK,
    ClusterProtocolError,
    decode_message,
    decode_blob,
    encode_line,
    encode_payload,
    read_line,
)

__all__ = ["ClusterCoordinator"]

#: How often the reaper scans for expired leases (seconds).
_REAP_INTERVAL = 0.05

#: Idle workers are told to poll again after this many milliseconds.
_IDLE_RETRY_MS = 50

#: A worker silent for this many lease timeouts is dropped outright
#: (backstop for connections that die without a FIN).
_STALE_FACTOR = 3.0


class _Job:
    """One ``run_chunks`` call in flight: its ledger and completion
    signal, plus the submitting sweep's trace context."""

    __slots__ = ("id", "ledger", "trace_ctx", "done")

    def __init__(self, job_id: int, ledger: ChunkLedger,
                 trace_ctx: Optional[TraceContext]) -> None:
        self.id = job_id
        self.ledger = ledger
        self.trace_ctx = trace_ctx
        self.done = threading.Event()


class ClusterCoordinator:
    """Serve the chunked work queue to worker agents over loopback or
    LAN TCP.

    Parameters
    ----------
    host, port:
        Listen address.  ``port=0`` binds an ephemeral port; read the
        bound address back from :attr:`address` after :meth:`start`.
        ``host=None`` makes a private coordinator that listens nowhere
        and serves only the connections handed to :meth:`adopt`.
    lease_timeout:
        Seconds a claimed chunk may go un-renewed before it is
        reclaimed.  Workers are told to heartbeat at a quarter of this.
    max_retries:
        Default per-chunk reclaim budget (mirrors the process
        scheduler's crash-retry bound); :meth:`run_chunks` can override
        per job.
    """

    def __init__(self, host: Optional[str] = "127.0.0.1", port: int = 0, *,
                 lease_timeout: float = 10.0, max_retries: int = 2) -> None:
        self._host = host
        self._port = port
        self.lease_timeout = lease_timeout
        self.max_retries = max_retries
        self._lock = threading.RLock()
        #: Wakes claims parked waiting for work (see :meth:`_op_claim`).
        self._work = threading.Condition(self._lock)
        self._jobs: "OrderedDict[int, _Job]" = OrderedDict()
        self._job_ids = itertools.count(1)
        self._workers: Dict[str, Dict[str, Any]] = {}
        #: ``(job id, chunk id)`` → claim-time metadata (chunk span id,
        #: monotonic/wall claim stamps, attempt) for span emission.
        self._lease_meta: Dict[Tuple[int, int], Dict[str, Any]] = {}
        self._counters: Dict[str, int] = {}
        self._closed = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []

    # -- lifecycle --------------------------------------------------------

    def start(self) -> Tuple[Optional[str], int]:
        """Spin up the reaper thread and, unless private, bind, listen
        and accept.  Returns the bound ``(host, port)``."""
        self._threads = [threading.Thread(target=self._reap_loop,
                                          name="cluster-reaper",
                                          daemon=True)]
        if self._host is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(64)
            self._listener = listener
            self._port = listener.getsockname()[1]
            self._threads.append(threading.Thread(
                target=self._accept_loop, name="cluster-accept",
                daemon=True))
        for thread in self._threads:
            thread.start()
        return self.address

    def adopt(self, conn: socket.socket, worker: str,
              pid: Optional[int] = None) -> None:
        """Serve one pre-connected worker (a forked local worker's end
        of a socketpair).  The worker counts as joined at once, before
        it sends anything, so the next job's claims go to it rather
        than to the zero-worker inline path; it never says ``hello``."""
        self._join(worker, pid, socket.gethostname())
        self._serve(conn, worker)

    @property
    def address(self) -> Tuple[Optional[str], int]:
        return (self._host, self._port)

    @property
    def port(self) -> int:
        return self._port

    def close(self) -> None:
        """Stop accepting, drop every connection, wake pending jobs.

        Chunks still unfinished surface to their submitters as failed
        (the scheduler's inline fallback picks them up) — closing the
        fabric degrades sweeps, never loses them.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._conns)
            jobs = list(self._jobs.values())
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for job in jobs:
            job.done.set()
        with self._work:
            self._work.notify_all()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "ClusterCoordinator":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- counters ---------------------------------------------------------

    def _incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
        if _OBS.enabled:
            _OBS.incr(f"cluster.{name}", n)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, Any]:
        """Counters plus live gauges (connected workers, outstanding
        leases, unclaimed chunks)."""
        with self._lock:
            counters = dict(self._counters)
            workers = len(self._workers)
            leases = sum(len(job.ledger.leases())
                         for job in self._jobs.values())
            pending = sum(job.ledger.pending()
                          for job in self._jobs.values())
        return {"counters": counters, "workers": workers,
                "leases": leases, "pending_chunks": pending}

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def wait_for_workers(self, count: int,
                         timeout: Optional[float] = None) -> bool:
        """Block until ``count`` workers are connected (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.worker_count() < count:
            if self._closed.is_set():
                return False
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    # -- job submission (the scheduler side) ------------------------------

    def run_chunks(
        self,
        chunks: List[List[Tuple[int, bytes]]],
        *,
        max_retries: Optional[int] = None,
        on_chunk: Optional[Callable[[Any], None]] = None,
    ) -> Tuple[Dict[int, Any], List[int]]:
        """Dispatch one sweep's chunks across the fabric and block until
        every chunk has an outcome.

        ``chunks`` are wire-ready payload rows — ``(task index,
        serialized task bytes)`` — the scheduler's dispatch payloads.
        Returns ``(results, failed)``:
        ``results`` maps task index → finding for every task whose
        chunk completed anywhere on the fabric, ``failed`` lists the
        task indexes of retry-exhausted (or fabric-closed) chunks, for
        the caller's inline fallback.

        While no worker is connected the submitting thread executes
        chunks itself, so completion never depends on external agents.

        ``on_chunk(pairs)`` is called once per accepted chunk with its
        ``(task index, finding)`` pairs — on the submitting thread,
        outside the coordinator lock, within one poll interval of the
        acceptance and always before this method returns.  The
        scheduler appends them to its result store.
        """
        retries = self.max_retries if max_retries is None else max_retries
        trace_ctx = _OBS.current_trace() if _OBS.enabled else None
        ledger = ChunkLedger(
            {cid: rows for cid, rows in enumerate(chunks)},
            max_retries=retries)
        with self._work:
            job = _Job(next(self._job_ids), ledger, trace_ctx)
            self._jobs[job.id] = job
            self._work.notify_all()
        self._incr("jobs.submitted")
        if ledger.done:
            job.done.set()
        delivered = 0
        try:
            while not job.done.is_set() and not self._closed.is_set():
                delivered = self._deliver(job, on_chunk, delivered)
                if self.worker_count() == 0 and self._run_one_inline(job):
                    continue
                job.done.wait(0.02)
        finally:
            with self._lock:
                self._jobs.pop(job.id, None)
        self._deliver(job, on_chunk, delivered)
        self._incr("jobs.completed")
        results: Dict[int, Any] = {}
        for outcome in job.ledger.outcomes.values():
            for index, finding in outcome:
                results[index] = finding
        every = {index for rows in chunks for index, _raw in rows}
        failed = sorted(every - set(results))
        return results, failed

    def _run_one_inline(self, job: _Job) -> bool:
        """Claim and execute one chunk in the submitting thread (the
        zero-workers degrade path).  ``True`` if a chunk ran."""
        from ..core.dist import _chunk_worker

        with self._lock:
            lease = job.ledger.claim(
                "coordinator-inline", now=time.monotonic(),
                ttl=float("inf"))
            if lease is None:
                return False
            payload = job.ledger.payload(lease.chunk_id)
        self._incr("chunks.claimed")
        try:
            pairs = _chunk_worker(payload)
        except Exception:
            with self._lock:
                disposition = job.ledger.release(lease.chunk_id)
                if job.ledger.done:
                    job.done.set()
            if disposition == "exhausted":
                self._incr("chunks.failed")
            return True
        with self._lock:
            accepted = job.ledger.complete(lease.chunk_id, pairs)
            if job.ledger.done:
                job.done.set()
        if accepted:
            self._incr("chunks.inline")
            self._incr("chunks.completed")
        return True

    def _deliver(self, job: _Job, on_chunk: Optional[Callable[[Any], None]],
                 delivered: int) -> int:
        """Hand the chunk outcomes accepted since the last call to
        ``on_chunk`` (outside the lock; the ledger's outcomes only ever
        grow, in acceptance order).  Returns the new delivered count."""
        if on_chunk is None:
            return delivered
        with self._lock:
            fresh = list(job.ledger.outcomes.values())[delivered:]
        for pairs in fresh:
            on_chunk(pairs)
        return delivered + len(fresh)

    # -- the TCP face -----------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            self._serve(conn)

    def _serve(self, conn: socket.socket,
               worker: Optional[str] = None) -> None:
        with self._lock:
            self._conns.append(conn)
        threading.Thread(target=self._serve_connection, args=(conn, worker),
                         name="cluster-conn", daemon=True).start()

    def _serve_connection(self, conn: socket.socket,
                          worker_id: Optional[str] = None) -> None:
        clean = False
        reader = conn.makefile("rb")
        try:
            while not self._closed.is_set():
                try:
                    line = read_line(reader)
                except (ClusterProtocolError, OSError):
                    break
                if line is None:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = decode_message(line)
                except ClusterProtocolError as exc:
                    conn.sendall(encode_line(
                        {"status": STATUS_ERROR, "message": str(exc)}))
                    continue
                if message["op"] == "hello":
                    worker_id = message["worker"]
                if message["op"] == "bye":
                    clean = True
                try:
                    response = self._dispatch(message)
                except Exception as exc:  # never kill the connection
                    response = {"status": STATUS_ERROR,
                                "message": f"{type(exc).__name__}: {exc}"}
                try:
                    data = encode_line(response)
                    # Fault taps on the response path: a dropped send
                    # kills the connection (the worker reconnects); a
                    # partial write leaves a torn frame on the wire and
                    # then kills it.  Either way the EOF fast path
                    # reclaims this worker's leases.
                    if _faults.fire("cluster.send.drop") is not None:
                        raise OSError("injected: cluster.send.drop")
                    if _faults.fire("cluster.send.partial") is not None:
                        conn.sendall(data[:max(1, len(data) // 2)])
                        raise OSError("injected: cluster.send.partial")
                    conn.sendall(data)
                except OSError:
                    self._undeliverable(response)
                    break
                if message["op"] == "bye":
                    break
        finally:
            try:
                reader.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)
            if worker_id is not None:
                self._connection_closed(worker_id, clean)

    def _undeliverable(self, response: Dict[str, Any]) -> None:
        """A response failed to send.  If it carried a chunk assignment
        the worker never learned of the lease — release it now instead
        of waiting out the lease (the worker's heartbeats never name it,
        so the reaper would reclaim it one lease timeout later).  The
        reconnect race makes the EOF fast path insufficient here: by the
        time this connection's cleanup runs, the worker may already be
        back on a fresh connection, so ``_connection_closed`` sees a
        live worker and releases nothing."""
        if response.get("status") != STATUS_CHUNK:
            return
        job_id = response.get("job")
        chunk_id = response.get("chunk")
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            lease = next((lease for lease in job.ledger.leases()
                          if lease.chunk_id == chunk_id), None)
            if lease is None or lease.token != response.get("lease"):
                return  # already completed, reaped, or re-claimed
            disposition = job.ledger.release(chunk_id)
            self._lease_meta.pop((job_id, chunk_id), None)
            if job.ledger.done:
                job.done.set()
        self._incr("chunks.undelivered")
        if disposition == "requeued":
            self._incr("chunks.reclaimed")
        elif disposition == "exhausted":
            self._incr("chunks.failed")

    def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message["op"]
        if op == "hello":
            return self._op_hello(message)
        if op == "claim":
            return self._op_claim(message)
        if op == "result":
            return self._op_result(message)
        if op == "fail":
            return self._op_fail(message)
        if op == "heartbeat":
            return self._op_heartbeat(message)
        if op == "bye":
            return self._op_bye(message)
        return self._op_ping(message)

    def _join(self, worker: str, pid: Any, host: Any) -> None:
        """Count one more connection for ``worker``, registering it on
        its first."""
        with self._lock:
            record = self._workers.get(worker)
            joined = record is None
            if joined:
                record = self._workers[worker] = {"pid": pid, "host": host,
                                                  "conns": 0}
            record["conns"] += 1
            record["last_seen"] = time.monotonic()
        if joined:
            self._incr("workers.joined")
            if _OBS.enabled:
                _OBS.event("cluster.worker.joined", worker=worker, pid=pid,
                           host=host)

    def _op_hello(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._join(message["worker"], message.get("pid"),
                   message.get("host"))
        return {"status": STATUS_OK,
                "lease_timeout": self.lease_timeout,
                "heartbeat_interval": self.lease_timeout / 4.0}

    def _touch(self, worker: str) -> None:
        record = self._workers.get(worker)
        if record is not None:
            record["last_seen"] = time.monotonic()

    def _claim_locked(self, worker: str) -> Optional[Tuple[_Job, Any]]:
        """The first unclaimed chunk of any job, leased to ``worker``.
        Caller holds the lock."""
        now = time.monotonic()
        for job in self._jobs.values():
            lease = job.ledger.claim(worker, now=now,
                                     ttl=self.lease_timeout)
            if lease is not None:
                return job, lease
        return None

    def _op_claim(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = message["worker"]
        with self._work:
            self._touch(worker)
            claimed = self._claim_locked(worker)
            if claimed is None and not self._closed.is_set():
                # Park one idle interval: a job submitted meanwhile is
                # claimed at once instead of one poll later (a forked
                # local worker's first claim races its sweep's submit).
                self._work.wait(_IDLE_RETRY_MS / 1000.0)
                claimed = self._claim_locked(worker)
            if claimed is None:
                return {"status": STATUS_IDLE, "retry_ms": _IDLE_RETRY_MS,
                        "active": any(job.ledger.remaining()
                                      for job in self._jobs.values())}
            job, lease = claimed
            rows = job.ledger.payload(lease.chunk_id)
            traceparent = None
            span_hex = None
            if job.trace_ctx is not None:
                # Minted at claim so the worker's spans can parent
                # under the chunk span before it is emitted.
                span_hex = mint_span_id()
                traceparent = TraceContext(
                    job.trace_ctx.trace_id, span_hex,
                    job.trace_ctx.sampled).to_traceparent()
            self._lease_meta[(job.id, lease.chunk_id)] = {
                "span_hex": span_hex, "claimed_mono": time.monotonic(),
                "claimed_wall": _OBS._wall(), "attempt": lease.attempt}
        self._incr("chunks.claimed")
        self._incr("bytes.shipped", sum(len(raw) for _i, raw in rows))
        return {"status": STATUS_CHUNK, "job": job.id,
                "chunk": lease.chunk_id, "lease": lease.token,
                "attempt": lease.attempt, "traceparent": traceparent,
                "payload": encode_payload(rows)}

    def _op_result(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = message["worker"]
        job_id = message.get("job")
        chunk_id = message.get("chunk")
        data = message.get("data")
        if not isinstance(data, str):
            return {"status": STATUS_ERROR,
                    "message": "result requires base64 'data'"}
        raw = decode_blob(data)
        try:
            outcome = pickle.loads(raw)
        except Exception:
            return {"status": STATUS_ERROR,
                    "message": "result payload does not unpickle"}
        if isinstance(outcome, tuple) and len(outcome) == 2:
            pairs, remote_spans = outcome
        else:
            pairs, remote_spans = outcome, ()
        with self._lock:
            self._touch(worker)
            job = self._jobs.get(job_id)
            accepted = (job is not None
                        and job.ledger.complete(chunk_id, pairs))
            meta = self._lease_meta.pop((job_id, chunk_id), None)
            if accepted and job is not None and job.ledger.done:
                job.done.set()
        self._incr("bytes.received", len(raw))
        if not accepted:
            # Late duplicate after a reclaim: identical by determinism,
            # so dropping it loses nothing.
            self._incr("chunks.duplicate")
            return {"status": STATUS_OK, "accepted": False}
        self._incr("chunks.completed")
        if meta is not None and meta["span_hex"] is not None \
                and job is not None and job.trace_ctx is not None:
            elapsed = time.monotonic() - meta["claimed_mono"]
            emit_span(_OBS, "cluster.chunk", job.trace_ctx,
                      meta["claimed_wall"], elapsed,
                      span_hex=meta["span_hex"], worker=worker,
                      tasks=len(pairs), attempt=meta["attempt"])
            for event in remote_spans:
                _OBS._emit(event)
        if _OBS.enabled:
            _OBS.event("cluster.chunk", worker=worker, tasks=len(pairs))
        return {"status": STATUS_OK, "accepted": True}

    def _op_fail(self, message: Dict[str, Any]) -> Dict[str, Any]:
        worker = message["worker"]
        job_id = message.get("job")
        chunk_id = message.get("chunk")
        with self._lock:
            self._touch(worker)
            job = self._jobs.get(job_id)
            if job is None:
                return {"status": STATUS_OK, "requeued": False}
            disposition = job.ledger.release(chunk_id)
            self._lease_meta.pop((job_id, chunk_id), None)
            if job.ledger.done:
                job.done.set()
        if disposition == "requeued":
            self._incr("chunks.reclaimed")
        elif disposition == "exhausted":
            self._incr("chunks.failed")
        if _OBS.enabled:
            _OBS.event("cluster.chunk.failed", worker=worker,
                       error=message.get("error"),
                       disposition=disposition)
        return {"status": STATUS_OK,
                "requeued": disposition == "requeued"}

    def _op_heartbeat(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Renew the ``[job, lease]`` pairs the worker says it holds,
        each in its own job's ledger only (lease tokens are numbered
        per ledger, so a token alone is ambiguous across jobs)."""
        worker = message["worker"]
        held: Dict[Any, List[Any]] = {}
        for pair in message.get("leases") or ():
            if isinstance(pair, list) and len(pair) == 2:
                held.setdefault(pair[0], []).append(pair[1])
        with self._lock:
            self._touch(worker)
            now = time.monotonic()
            renewed = sum(
                job.ledger.renew(worker, held[job.id], now=now,
                                 ttl=self.lease_timeout)
                for job in self._jobs.values() if job.id in held)
        self._incr("heartbeats")
        return {"status": STATUS_OK, "renewed": renewed}

    def _op_bye(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"status": STATUS_OK}

    def _op_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        snap = self.snapshot()
        return {"status": STATUS_OK, "workers": snap["workers"],
                "leases": snap["leases"],
                "pending_chunks": snap["pending_chunks"]}

    # -- failure detection ------------------------------------------------

    def _connection_closed(self, worker: str, clean: bool) -> None:
        """A worker connection dropped: release its leases immediately
        (the fast recovery path — no need to wait out the lease)."""
        with self._lock:
            record = self._workers.get(worker)
            if record is None:
                return
            record["conns"] -= 1
            if record["conns"] > 0:
                return
            del self._workers[worker]
            reclaimed = self._release_worker_locked(worker)
        # Connections this coordinator shut itself are not losses.
        if not clean and not self._closed.is_set():
            self._incr("workers.lost")
            if _OBS.enabled:
                _OBS.event("cluster.worker.lost", worker=worker,
                           reclaimed=reclaimed)

    def _release_worker_locked(self, worker: str) -> int:
        """Requeue every chunk ``worker`` holds.  Caller holds the
        lock; returns how many chunks were reclaimed."""
        reclaimed = 0
        failed = 0
        for job in self._jobs.values():
            for chunk_id, disposition in \
                    job.ledger.release_claimant(worker):
                self._lease_meta.pop((job.id, chunk_id), None)
                if disposition == "requeued":
                    reclaimed += 1
                elif disposition == "exhausted":
                    failed += 1
            if job.ledger.done:
                job.done.set()
        if reclaimed:
            self._counters["chunks.reclaimed"] = \
                self._counters.get("chunks.reclaimed", 0) + reclaimed
            if _OBS.enabled:
                _OBS.incr("cluster.chunks.reclaimed", reclaimed)
        if failed:
            self._counters["chunks.failed"] = \
                self._counters.get("chunks.failed", 0) + failed
            if _OBS.enabled:
                _OBS.incr("cluster.chunks.failed", failed)
        return reclaimed

    def _reap_loop(self) -> None:
        while not self._closed.wait(_REAP_INTERVAL):
            now = time.monotonic()
            expired_total = 0
            with self._lock:
                for job in self._jobs.values():
                    for chunk_id, claimant, disposition in \
                            job.ledger.reap(now):
                        if claimant == "coordinator-inline":
                            continue  # inline leases never expire
                        self._lease_meta.pop((job.id, chunk_id), None)
                        expired_total += 1
                        name = ("chunks.reclaimed"
                                if disposition == "requeued"
                                else "chunks.failed")
                        self._counters[name] = \
                            self._counters.get(name, 0) + 1
                        if _OBS.enabled:
                            _OBS.incr(f"cluster.{name}")
                    if job.ledger.done:
                        job.done.set()
                stale_cutoff = now - _STALE_FACTOR * self.lease_timeout
                stale = [w for w, rec in self._workers.items()
                         if rec.get("last_seen", now) < stale_cutoff]
                for worker in stale:
                    del self._workers[worker]
                    self._release_worker_locked(worker)
            if expired_total:
                self._incr("leases.expired", expired_total)
                if _OBS.enabled:
                    _OBS.event("cluster.leases.expired", n=expired_total)
            for worker in stale if not self._closed.is_set() else ():
                self._incr("workers.lost")
                if _OBS.enabled:
                    _OBS.event("cluster.worker.stale", worker=worker)
