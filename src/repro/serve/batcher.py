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
compute it once), and runs the remaining unique tasks inline on one
executor thread (the scans are GIL-bound Python, so a pool would add
set-up and no parallelism).
A failed dispatch answers every member of its batch with status
``error``; the next batch dispatches afresh.  A lone request on an idle
server is dispatched at once.  Batches form under load alone: one
dispatch runs at a time, and while it computes, new identical requests
coalesce and new distinct requests accumulate into the next batch (or
shed, once the queue fills — that is admission control doing its job).
Each unique task is one scan (:func:`repro.core.sweep._scan_task`), the
same as in a sweep, so its ``sweep.task`` span times its own work.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any, Dict, List, Optional

from .. import faults as _faults
from ..core.sweep import _run_tasks
from ..obs import DEFAULT as _OBS
from ..obs.trace import TraceContext, emit_span, mint_span_id
from .admission import AdmissionQueue, AdmittedRequest
from .protocol import (
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_TIMEOUT,
    finding_payload,
)

__all__ = ["MicroBatcher"]

#: Token placeholder for "scheduled for compute in this batch".
_PENDING = object()


def _traced_compute(fn: Any, tasks: List[Any], keys: List[Optional[str]],
                    ctx: Any) -> Any:
    """Run the compute function with ``ctx`` as the executor thread's
    ambient trace context, so engine spans (``dist.run`` and below)
    chain under the batch span — restored before the thread returns to
    the pool."""
    previous = _OBS.set_trace(ctx)
    try:
        return fn(tasks, keys)
    finally:
        _OBS.set_trace(previous)


def _engine_compute(tasks: List[Any],
                    keys: List[Optional[str]]) -> List[Any]:
    """The default compute function: one inline engine dispatch on an
    executor thread (never the event loop).  ``keys`` completes the
    compute-function signature; the inline path does not need them."""
    return _run_tasks(tasks, 1, "thread")


class MicroBatcher:
    """Coalesces, batches, and dispatches admitted queries.

    Construct and :meth:`start` on the event loop; submit from
    connection handlers; :meth:`stop` drains the backlog and returns
    once every admitted request has been resolved.
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
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}
        #: Trace contexts of coalesced requests, keyed by fingerprint —
        #: the batch span links to every one, so each coalesced trace
        #: still sees the batch that computed its answer.
        self._trace_links: Dict[str, List[Any]] = {}
        self._task: Optional["asyncio.Task[Any]"] = None
        self._serial = 0

    # -- guarded dispatch --------------------------------------------------

    def _guarded_compute(self, tasks: List[Any],
                         keys: List[Optional[str]]) -> List[Any]:
        """One batch dispatch (executor thread, never the event loop).
        The ``serve.dispatch.crash`` fault tap fires in front of the
        compute call, so chaos tests can fail a batch on demand."""
        if _faults.fire("serve.dispatch.crash") is not None:
            raise _faults.InjectedFault("serve.dispatch.crash")
        return self._compute_fn(tasks, keys)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the batch loop on the running event loop."""
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Close admission, drain the backlog, flush the cold store."""
        self._queue.close()
        if self._task is not None:
            await self._task
            self._task = None
        self._cache.flush()

    def queue_depth(self) -> int:
        return self._queue.depth()

    def inflight_count(self) -> int:
        return len(self._inflight)

    # -- the request path --------------------------------------------------

    async def submit(self, query: Any,
                     deadline_ms: Optional[float] = None,
                     ctx: Any = None) -> Dict[str, Any]:
        """Resolve one expanded query to a response payload.

        Fast paths (coalesce, full cache hit) answer inline; otherwise
        the query is admitted (or refused) and awaited.  ``ctx`` is the
        request's :class:`~repro.obs.trace.TraceContext` on a tracing
        server; the admission decision is emitted as a span under it.
        The returned dict is freshly owned by the caller.
        """
        loop = asyncio.get_running_loop()
        tracing = ctx is not None and _OBS.enabled
        admit_wall = _OBS._wall() if tracing else 0.0
        admit_at = loop.time() if tracing else 0.0

        def admission_span(outcome: str) -> None:
            if tracing:
                emit_span(_OBS, "serve.admission", ctx, admit_wall,
                          max(0.0, loop.time() - admit_at),
                          outcome=outcome, queue_depth=self._queue.depth())

        fingerprint = query.fingerprint
        register = getattr(self._cache, "register", None)
        if register is not None:
            register(query.model_key, query.task_keys)

        leader = self._inflight.get(fingerprint)
        if leader is not None:
            self._stats.incr("coalesced")
            if tracing:
                # Link this trace into the leader's batch span.
                self._trace_links.setdefault(fingerprint, []).append(ctx)
            admission_span("coalesced")
            response = dict(await leader)
            response["coalesced"] = True
            return response

        cached = self._lookup_all(query)
        if cached is not None:
            self._stats.incr("requests.cached")
            cached["cached"] = True
            admission_span("cached")
            return cached

        if _faults.fire("serve.admission.refuse") is not None:
            self._stats.incr("shed.injected")
            admission_span("injected_refusal")
            return {
                "status": STATUS_OVERLOADED,
                "model": query.model_key,
                "error": "admission refused (injected fault)",
            }

        now = loop.time()
        item = AdmittedRequest(
            query=query,
            future=loop.create_future(),
            enqueued_at=now,
            deadline_at=(now + deadline_ms / 1000.0)
            if deadline_ms is not None else None,
            ctx=ctx if tracing else None,
            wall_enqueued=admit_wall,
        )
        # No awaits between registering the leader and offering — the
        # single-flight map and the queue stay consistent.
        self._inflight[fingerprint] = item.future
        if not self._queue.offer(item):
            del self._inflight[fingerprint]
            self._stats.incr("shed.overload")
            admission_span("overloaded")
            return {
                "status": STATUS_OVERLOADED,
                "model": query.model_key,
                "error": f"admission queue full "
                         f"(depth {self._queue.max_depth})",
            }
        self._stats.incr("admitted")
        self._stats.gauge("queue.depth", self._queue.depth())
        admission_span("admitted")
        return dict(await item.future)

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
        # Drop the single-flight entry *before* resolving so a request
        # arriving after resolution starts fresh (and hits the cache).
        self._inflight.pop(item.query.fingerprint, None)
        # Any link contexts not consumed by a batch span (timeout and
        # error paths) must not accumulate.
        self._trace_links.pop(item.query.fingerprint, None)
        if not item.future.done():
            item.future.set_result(response)

    # -- the batch loop ----------------------------------------------------

    async def _run(self) -> None:
        while True:
            first = await self._queue.get()
            if first is None:
                break
            batch = [first]
            while len(batch) < self._max_batch:
                nxt = self._queue.get_nowait()
                if nxt is None:
                    break
                batch.append(nxt)
            await self._process(batch)
            self._stats.gauge("queue.depth", self._queue.depth())
        self._cache.flush()

    async def _process(self, batch: List[AdmittedRequest]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
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
            batch_started = loop.time()

        if compute_tasks:
            engine_started = loop.time()
            if batch_ctx is not None:
                call = partial(_traced_compute, self._guarded_compute,
                               compute_tasks, compute_keys, batch_ctx)
            else:
                call = partial(self._guarded_compute, compute_tasks,
                               compute_keys)
            try:
                findings = await loop.run_in_executor(None, call)
            except Exception as exc:  # engine failure, not protocol
                self._stats.incr("errors.compute")
                self._stats.observe("engine", loop.time() - engine_started)
                for item in live:
                    self._resolve(item, {
                        "status": "error",
                        "model": item.query.model_key,
                        "error": f"analysis failed: {exc!r}",
                    })
                return
            self._stats.observe("engine", loop.time() - engine_started)
            write_started = loop.time()
            write_wall = _OBS._wall() if batch_ctx is not None else 0.0
            for token, key, finding in zip(compute_tokens, compute_keys,
                                           findings):
                resolved[token] = finding
                if key is not None:
                    self._cache.insert(key, finding)
            self._cache.flush()
            write_s = loop.time() - write_started
            self._stats.observe("cache_write", write_s)
            if batch_ctx is not None:
                emit_span(_OBS, "serve.cache_write", batch_ctx,
                          write_wall, write_s, keys=len(compute_tasks))

        if batch_ctx is not None:
            links = [item.ctx for item in traced]
            for item in live:
                links.extend(
                    self._trace_links.pop(item.query.fingerprint, ()))
            emit_span(_OBS, "serve.batch", traced[0].ctx, batch_wall,
                      max(0.0, loop.time() - batch_started),
                      span_hex=batch_hex, parent_hex=traced[0].ctx.span_id,
                      links=links, requests=len(live),
                      unique_tasks=len(compute_tasks))

        for item in live:
            findings = [resolved[token] for token in item.tokens]
            response = self._ok_response(item.query, findings)
            self._stats.incr("requests.computed")
            self._resolve(item, response)
