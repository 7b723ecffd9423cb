"""The micro-batcher: single-flight coalescing + batched dispatch.

Three mechanisms stack between admission and the engine:

**Single-flight coalescing.**  Every query has a request fingerprint
(model key + limit + per-task ``sweep_task_fingerprint``s — see
:mod:`repro.serve.corpus`).  The first request with a given fingerprint
is the *leader*; identical requests arriving while the leader is in
flight attach to the leader's future instead of being admitted again —
they consume no queue depth and no compute, and every waiter receives
the leader's response (including its sheds; a coalesced request shares
its leader's fate).

**Cache fast path.**  A query whose every task key hits the tiered
cache is answered inline — it never touches the queue, so warm traffic
cannot crowd out cold traffic at admission.

**Work-conserving, deduplicated dispatch.**  The batcher never waits
for a batch to fill: as soon as the engine is free it takes the queue
head plus whatever is already queued behind it (up to ``max_batch``
requests), expires overdue deadlines, dedupes the union of their tasks
by fingerprint key (two *different* requests that share a pFSM×domain
compute it once), and runs the remaining unique tasks inline.
A failed dispatch answers every member of its batch with status
``error``; the next batch dispatches afresh.  A lone request on an idle
server is dispatched at once.  Batches form under load alone: one
dispatch runs at a time, and while it computes, new identical requests
coalesce and new distinct requests accumulate into the next batch (or
shed, once the queue fills — that is admission control doing its job).
Each unique task is one scan (:func:`repro.core.sweep._scan_task`), the
same as in a sweep, so its ``sweep.task`` span times its own work.

**Leader/follower dispatch.**  No thread of the batcher's own runs
batches: :meth:`MicroBatcher.submit` is a blocking call, and the request
admitted while no batch is running becomes the *dispatcher*.  It runs
batches on its own thread (the scans are GIL-bound Python, so a second
thread would add a hand-off and no parallelism) until its own request
is resolved, then hands the dispatcher role to the thread of the oldest
queued request, if any, and returns.  So a lone query on an idle server
is scanned on the thread that read it.  One lock guards the
single-flight map, the cache fast path, the queue and the dispatcher
slot.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional

from .. import faults as _faults
from ..core.sweep import _run_tasks
from ..obs import DEFAULT as _OBS
from ..obs.trace import TraceContext, emit_span, mint_span_id
from .admission import AdmissionQueue, AdmittedRequest
from .protocol import (
    STATUS_DRAINING,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_TIMEOUT,
    finding_payload,
)

__all__ = ["MicroBatcher"]

#: Token placeholder for "scheduled for compute in this batch".
_PENDING = object()


def _engine_compute(tasks: List[Any],
                    keys: List[Optional[str]]) -> List[Any]:
    """The default compute function: one inline engine dispatch on the
    dispatching thread.  ``keys`` completes the compute-function
    signature; the inline path does not need them."""
    return _run_tasks(tasks, 1, "thread")


class MicroBatcher:
    """Coalesces, batches, and dispatches admitted queries.

    Submit from any thread; :meth:`stop` drains the backlog and
    returns once every admitted request has been resolved.
    """

    def __init__(
        self,
        cache: Any,
        stats: Any,
        *,
        max_depth: int = 64,
        max_batch: int = 16,
        compute_fn: Any = None,
    ) -> None:
        self._cache = cache
        self._stats = stats
        self._queue = AdmissionQueue(max_depth)
        self._max_batch = max_batch
        self._compute_fn = compute_fn or _engine_compute
        self._inflight: Dict[str, "Future[Any]"] = {}
        #: Trace contexts of coalesced requests, keyed by fingerprint —
        #: the batch span links to every one, so each coalesced trace
        #: still sees the batch that computed its answer.
        self._trace_links: Dict[str, List[Any]] = {}
        self._serial = 0
        #: Guards the single-flight map, the trace links, the queue and
        #: the dispatcher slot.
        self._lock = threading.Lock()
        #: Notified when the dispatcher slot frees (the queue is empty).
        self._idle = threading.Condition(self._lock)
        #: Is a thread running batches (the dispatcher slot)?
        self._dispatching = False

    # -- guarded dispatch --------------------------------------------------

    def _guarded_compute(self, tasks: List[Any],
                         keys: List[Optional[str]]) -> List[Any]:
        """One batch dispatch, on the dispatching thread.
        The ``serve.dispatch.crash`` fault tap fires in front of the
        compute call, so chaos tests can fail a batch on demand."""
        if _faults.fire("serve.dispatch.crash") is not None:
            raise _faults.InjectedFault("serve.dispatch.crash")
        return self._compute_fn(tasks, keys)

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        """Close admission, wait for the backlog to run dry, flush the
        cold store.  (The dispatcher slot is only ever freed with the
        queue empty, and a closed queue admits nothing more.)"""
        with self._lock:
            self._queue.close()
            while self._dispatching:
                self._idle.wait()
        self._cache.flush()

    def queue_depth(self) -> int:
        return self._queue.depth()

    def inflight_count(self) -> int:
        return len(self._inflight)

    # -- the request path --------------------------------------------------

    def submit(self, query: Any,
               deadline_ms: Optional[float] = None,
               ctx: Any = None) -> Dict[str, Any]:
        """Resolve one expanded query to a response payload; blocks the
        calling thread until it is resolved.

        Fast paths (coalesce, full cache hit) answer inline; otherwise
        the query is admitted (or refused) and waited for — on an idle
        engine the calling thread dispatches it itself.  ``ctx`` is the
        request's :class:`~repro.obs.trace.TraceContext` on a tracing
        server; the admission decision is emitted as a span under it.
        The returned dict is freshly owned by the caller.
        """
        tracing = ctx is not None and _OBS.enabled
        admit_wall = _OBS._wall() if tracing else 0.0
        admit_at = time.monotonic() if tracing else 0.0

        def admission_span(outcome: str) -> None:
            if tracing:
                emit_span(_OBS, "serve.admission", ctx, admit_wall,
                          max(0.0, time.monotonic() - admit_at),
                          outcome=outcome, queue_depth=self._queue.depth())

        with self._lock:
            outcome, value = self._admit(query, deadline_ms,
                                         ctx if tracing else None,
                                         admit_wall)
        admission_span(outcome)
        if outcome == "coalesced":
            response = dict(value.result())
            response["coalesced"] = True
            return response
        if outcome != "admitted":
            return value
        value.wake.wait()
        if not value.future.done():  # handed the dispatcher role
            self._lead(value)
        return dict(value.future.result())

    def _admit(self, query: Any, deadline_ms: Optional[float], ctx: Any,
               admit_wall: float) -> Any:
        """The admission decision (caller holds the lock), as
        ``(outcome, value)``: ``("coalesced", leader future)``,
        ``("admitted", AdmittedRequest)``, or a shed or cached outcome
        with its response.  A request admitted while no batch runs
        takes the dispatcher slot — its ``wake`` is set, so its thread
        dispatches at once."""
        fingerprint = query.fingerprint
        leader = self._inflight.get(fingerprint)
        if leader is not None:
            self._stats.incr("coalesced")
            if ctx is not None:
                # Link this trace into the leader's batch span.
                self._trace_links.setdefault(fingerprint, []).append(ctx)
            return "coalesced", leader
        cached = self._lookup_all(query)
        if cached is not None:
            self._stats.incr("requests.cached")
            cached["cached"] = True
            return "cached", cached
        if _faults.fire("serve.admission.refuse") is not None:
            self._stats.incr("shed.injected")
            return "injected_refusal", {
                "status": STATUS_OVERLOADED,
                "model": query.model_key,
                "error": "admission refused (injected fault)",
            }
        now = time.monotonic()
        item = AdmittedRequest(
            query=query,
            future=Future(),
            enqueued_at=now,
            deadline_at=(now + deadline_ms / 1000.0)
            if deadline_ms is not None else None,
            ctx=ctx,
            wall_enqueued=admit_wall,
        )
        if not self._queue.offer(item):
            if self._queue.closed:  # a drain began after the state check
                self._stats.incr("shed.draining")
                return "draining", {
                    "status": STATUS_DRAINING,
                    "model": query.model_key,
                    "error": "server is draining; no new work admitted",
                }
            self._stats.incr("shed.overload")
            return "overloaded", {
                "status": STATUS_OVERLOADED,
                "model": query.model_key,
                "error": f"admission queue full "
                         f"(depth {self._queue.max_depth})",
            }
        self._inflight[fingerprint] = item.future
        self._stats.incr("admitted")
        self._stats.gauge("queue.depth", self._queue.depth())
        if not self._dispatching:
            self._dispatching = True
            item.wake.set()
        return "admitted", item

    def _lookup_all(self, query: Any) -> Optional[Dict[str, Any]]:
        """The full response if *every* task key is cached, else None
        (recording tier hits only on full success — partial probes are
        re-counted at batch time)."""
        if not query.task_keys or any(k is None for k in query.task_keys):
            return None if query.task_keys else self._ok_response(query, [])
        findings = []
        tiers = []
        for key in query.task_keys:
            tier, finding = self._cache.lookup(key)
            if tier is None:
                return None
            tiers.append(tier)
            findings.append(finding)
        for tier in tiers:
            self._stats.incr(f"cache.{tier}_hits")
        return self._ok_response(query, findings)

    def _ok_response(self, query: Any, findings: List[Any]) -> Dict[str, Any]:
        present = [f for f in findings if f is not None]
        return {
            "status": STATUS_OK,
            "model": query.model_key,
            "model_name": query.model_name,
            "limit": query.limit,
            "vulnerable": bool(present),
            "findings": [finding_payload(f) for f in present],
            "cached": False,
            "coalesced": False,
        }

    def _resolve(self, item: AdmittedRequest,
                 response: Dict[str, Any]) -> None:
        with self._lock:
            # Drop the single-flight entry *before* resolving so a
            # request arriving after resolution starts fresh (and hits
            # the cache).
            self._inflight.pop(item.query.fingerprint, None)
            # Any link contexts not consumed by a batch span (timeout
            # and error paths) must not accumulate.
            self._trace_links.pop(item.query.fingerprint, None)
        if not item.future.done():
            item.future.set_result(response)
        item.wake.set()

    # -- the dispatcher ----------------------------------------------------

    def _lead(self, mine: AdmittedRequest) -> None:
        """Run batches on this thread (which holds the dispatcher slot)
        until ``mine`` is resolved, then hand the slot to the oldest
        queued request's thread, or free it."""
        try:
            while not mine.future.done():
                with self._lock:
                    batch = []
                    while len(batch) < self._max_batch:
                        item = self._queue.get_nowait()
                        if item is None:
                            break
                        batch.append(item)
                if not batch:
                    break
                self._process(batch)
                self._stats.gauge("queue.depth", self._queue.depth())
        finally:
            with self._lock:
                head = self._queue.peek()
                if head is not None:
                    head.wake.set()  # its thread dispatches next
                else:
                    self._dispatching = False
                    self._idle.notify_all()

    def _process(self, batch: List[AdmittedRequest]) -> None:
        now = time.monotonic()
        live: List[AdmittedRequest] = []
        for item in batch:
            expired = item.expired(now)
            wait_s = max(0.0, now - item.enqueued_at)
            self._stats.observe("queue_wait", wait_s)
            if item.ctx is not None and _OBS.enabled:
                emit_span(_OBS, "serve.queue_wait", item.ctx,
                          item.wall_enqueued, wait_s,
                          outcome="timeout" if expired else "dispatched")
            if expired:
                self._stats.incr("shed.deadline")
                self._resolve(item, {
                    "status": STATUS_TIMEOUT,
                    "model": item.query.model_key,
                    "error": "deadline expired while queued",
                })
            else:
                live.append(item)
        if not live:
            return
        # Batch formation: the oldest member's admission to dispatch.
        self._stats.observe(
            "batch_window",
            max(0.0, now - min(item.enqueued_at for item in live)))

        # Union the batch's tasks, deduped by fingerprint key; keyless
        # tasks get a unique token and always compute.
        resolved: Dict[Any, Any] = {}
        compute_tasks: List[Any] = []
        compute_tokens: List[Any] = []
        compute_keys: List[Optional[str]] = []
        for item in live:
            item.tokens = []
            for task, key in zip(item.query.tasks, item.query.task_keys):
                if key is None:
                    self._serial += 1
                    token: Any = ("!", self._serial)
                else:
                    token = key
                item.tokens.append(token)
                if token in resolved:
                    continue
                if key is not None:
                    tier, finding = self._cache.lookup(key)
                    if tier is not None:
                        self._stats.incr(f"cache.{tier}_hits")
                        resolved[token] = finding
                        continue
                    self._stats.incr("cache.misses")
                resolved[token] = _PENDING
                compute_tasks.append(task)
                compute_tokens.append(token)
                compute_keys.append(key)

        self._stats.incr("batches")
        self._stats.incr("batch.requests", len(live))
        self._stats.incr("batch.tasks", len(compute_tasks))
        if _OBS.enabled:
            _OBS.event("serve.batch", requests=len(live),
                       unique_tasks=len(compute_tasks),
                       queue_depth=self._queue.depth())

        # The batch span serves every traced request in the batch: it
        # adopts the first traced request's trace and *links* to all of
        # them (plus every coalesced context), so each trace reassembles
        # with the batch — and the engine spans under it — attached.
        traced = [item for item in live if item.ctx is not None]
        batch_ctx = None
        batch_hex = None
        batch_wall = 0.0
        batch_started = 0.0
        if traced and _OBS.enabled:
            lead = traced[0].ctx
            batch_hex = mint_span_id()
            batch_ctx = TraceContext(lead.trace_id, batch_hex, lead.sampled)
            batch_wall = _OBS._wall()
            batch_started = time.monotonic()

        if compute_tasks:
            engine_started = time.monotonic()
            # The batch context is this thread's ambient trace context
            # during compute, so engine spans (``dist.run`` and below)
            # chain under the batch span.
            previous = _OBS.set_trace(batch_ctx)
            try:
                findings = self._guarded_compute(compute_tasks,
                                                 compute_keys)
            except Exception as exc:  # engine failure, not protocol
                self._stats.incr("errors.compute")
                self._stats.observe("engine",
                                    time.monotonic() - engine_started)
                for item in live:
                    self._resolve(item, {
                        "status": "error",
                        "model": item.query.model_key,
                        "error": f"analysis failed: {exc!r}",
                    })
                return
            finally:
                _OBS.set_trace(previous)
            self._stats.observe("engine", time.monotonic() - engine_started)
            write_started = time.monotonic()
            write_wall = _OBS._wall() if batch_ctx is not None else 0.0
            for token, key, finding in zip(compute_tokens, compute_keys,
                                           findings):
                resolved[token] = finding
                if key is not None:
                    self._cache.insert(key, finding)
            self._cache.flush()
            write_s = time.monotonic() - write_started
            self._stats.observe("cache_write", write_s)
            if batch_ctx is not None:
                emit_span(_OBS, "serve.cache_write", batch_ctx,
                          write_wall, write_s, keys=len(compute_tasks))

        if batch_ctx is not None:
            links = [item.ctx for item in traced]
            with self._lock:
                for item in live:
                    links.extend(
                        self._trace_links.pop(item.query.fingerprint, ()))
            emit_span(_OBS, "serve.batch", traced[0].ctx, batch_wall,
                      max(0.0, time.monotonic() - batch_started),
                      span_hex=batch_hex, parent_hex=traced[0].ctx.span_id,
                      links=links, requests=len(live),
                      unique_tasks=len(compute_tasks))

        for item in live:
            findings = [resolved[token] for token in item.tokens]
            response = self._ok_response(item.query, findings)
            self._stats.incr("requests.computed")
            self._resolve(item, response)
