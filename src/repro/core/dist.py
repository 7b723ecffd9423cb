"""Chunked, resumable, process-distributed sweep scheduling.

:func:`repro.core.sweep.sweep_models` turns a corpus into a flat list of
``(model, operation, pfsm, domain, limit)`` scan tasks; this module is
the scheduler that runs that list across process boundaries.  It adds
three layers on top of the plain executor in :mod:`repro.core.sweep`:

**Chunked dispatch over one transport.**  Tasks are grouped into
size-balanced chunks (greedy longest-processing-time packing, with
the plan cost estimate) so a handful of huge domains cannot serialize
the sweep behind one worker.  Both backends hand the chunks to a
:class:`~repro.cluster.ClusterCoordinator`: ``"cluster"`` to the
ambient one that ``repro worker`` agents join over TCP, ``"process"``
to a private one served by local agents forked for this one call
(:func:`repro.cluster.worker.local_workers`, one ``socketpair`` each —
nothing listens on a port, and a memo-only call forks none).  Leases
and reclaim on worker death are the same code for both.  A worker runs
each task as its own scan, with the program its pFSM already carries
(inherited through the fork) or one it compiles itself (a cluster
task, whose pickled pFSM ships without it).

**One degrade path.**  The coordinator never scans: it hands back
every chunk no worker ran, tagged ``exhausted`` (its retries ran out)
or ``unplaced`` (no worker was connected, or the fabric closed).  A
cluster task that does not pickle (an unregistered opaque predicate)
joins them as ``unpicklable``.  :func:`run_tasks` runs all of it in
one inline loop in the parent, counting each task under
``dist.inline.<reason>``, so a poisoned worker or an empty fabric
degrades throughput, never correctness.

**What a chunk carries.**  A process chunk names its tasks by index
and carries no task bytes: its workers are forked after the task list
exists, so each scans ``tasks[index]`` from the list it inherited,
domains and already-built columnar encodings included.  A cluster
chunk crosses hosts, so it ships each task pickled.

**Fingerprint-keyed result reuse.**  Every task whose components have a
stable cross-run identity (predicate spec hashes, domain digest, model
fingerprint — see :func:`repro.core.serialize.sweep_task_fingerprint`)
gets a result key, without the witness limit: a limit only cuts a
prefix of the task's witnesses, so a result held with its limit answers
every limit it covers (:func:`answer`).  Keyed results are memoized
in-process (the warm tier — repeated corpus sweeps in one session skip
re-scanning unchanged tasks, ``dist.memo.hits``) and can be persisted to
a JSONL :class:`ResultStore` (the cold tier —
``sweep_models(resume_from=...)`` re-runs only the delta,
``dist.resume.skips``).
Handed a store, :func:`run_tasks` appends each chunk's keyed results as
that chunk completes, on a worker or in the inline loop, so a sweep
killed mid-run resumes from every chunk that landed.  The memo and the
store are :mod:`repro.serve`'s result cache too: the server reads
through :func:`memo_lookup` and writes each batch through
:func:`record_results`, the function that records every chunk here.
Keys are purely semantic: a rebound predicate or an edited domain
changes the key, so reuse is never stale.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from collections import OrderedDict
from contextlib import nullcontext
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import faults as _faults
from ..obs import DEFAULT as _OBS
from ..obs.sinks import MemorySink
from ..obs.trace import TraceContext
from .predspec import decode_value, encode_value, spec_digest
from .sweep import SweepFinding, _scan_task
from .witness import DistinctRows, _LazyProduct, distinct_rows

__all__ = [
    "ResultStore",
    "chunk_tasks",
    "domain_digest",
    "task_key",
    "run_tasks",
    "answer",
    "memo_lookup",
    "record_results",
    "clear_memo",
]

#: Result slot not yet filled (``None`` is a real "no finding" result).
_PENDING = object()

#: Chunks per worker — mild oversubscription so LPT imbalance and
#: straggler chunks backfill instead of idling workers.
_CHUNKS_PER_WORKER = 4


# ---------------------------------------------------------------------------
# Stable task identity.
# ---------------------------------------------------------------------------

#: Rows hashed per joined slice of a domain digest.
_DIGEST_ROWS = 1 << 14


def _digest_items(index: DistinctRows) -> str:
    """Digest of a materialized item sequence, from its distinct-row
    index.

    Each distinct object's canonical encoding is computed once, and the
    rows are hashed as the concatenation of their objects' encodings
    (each followed by ``\x1f``), joined a slice at a time.
    """
    parts = [json.dumps(encode_value(item), sort_keys=True,
                        separators=(",", ":")).encode("utf-8") + b"\x1f"
             for item in index.objects]
    hasher = hashlib.sha256(b"items\x1f")
    codes = index.codes
    for start in range(0, len(codes), _DIGEST_ROWS):
        hasher.update(b"".join(map(parts.__getitem__,
                                   codes[start:start + _DIGEST_ROWS])))
    return hasher.hexdigest()


def domain_digest(domain: Any) -> Optional[str]:
    """Stable digest of a domain's contents, or ``None`` when the
    contents have no canonical encodable form.

    Works from the raw backing container (``Domain.backing``): ranges
    digest from their arithmetic triple in O(1), lazy record products
    from their field columns (never materializing the product), anything
    else from the materialized item sequence via the spec value codec,
    encoding each distinct object of the domain's distinct-row index
    (:func:`repro.core.witness.distinct_rows`, the index its scans walk)
    once.  The digest is memoized on the domain object.
    """
    cached = getattr(domain, "_dist_digest", None)
    if cached is not None:
        return cached or None  # "" marks a known-undigestable domain
    backing = getattr(domain, "backing", domain)
    digest = ""
    try:
        if isinstance(backing, range):
            digest = spec_digest(["range", backing.start, backing.stop,
                                  backing.step])
        elif isinstance(backing, _LazyProduct):
            digest = spec_digest(encode_value(
                ["records", list(backing._names),
                 [list(column) for column in backing._columns]]
            ))
        else:
            digest = _digest_items(distinct_rows(domain))
    except (ValueError, TypeError):
        digest = ""
    try:
        setattr(domain, "_dist_digest", digest)
    except Exception:
        pass
    return digest or None


def _model_stamp(model: Any) -> Optional[Tuple[Any, ...]]:
    """Mutation stamp of a model's predicates: every pFSM predicate's
    ``cache_key`` (token + rebind version).  Rebinding any check changes
    the stamp, so fingerprint memos validated against it never go stale
    (the ROADMAP's cache-invalidation-on-version-bump item)."""
    try:
        parts: List[Any] = []
        for _operation, pfsm in model.all_pfsms():
            impl = pfsm.impl_accepts
            parts.append((pfsm.spec_accepts.cache_key,
                          impl.cache_key if impl is not None else None))
        return tuple(parts)
    except Exception:
        return None


def _model_fingerprint(model: Any) -> str:
    """:func:`repro.core.serialize.model_fingerprint`, memoized on the
    model object (corpus models are long-lived; the canonical-JSON dump
    is not free at sweep frequency).  The memo is validated against the
    model's predicate mutation stamp — a rebound check recomputes."""
    stamp = _model_stamp(model)
    cached = getattr(model, "_dist_fingerprint", None)
    if (isinstance(cached, tuple) and len(cached) == 2
            and stamp is not None and cached[0] == stamp):
        return cached[1]
    from .serialize import model_fingerprint

    fingerprint = model_fingerprint(model)
    try:
        setattr(model, "_dist_fingerprint", (stamp, fingerprint))
    except Exception:
        try:
            object.__setattr__(model, "_dist_fingerprint",
                               (stamp, fingerprint))
        except Exception:
            pass
    return fingerprint


def task_key(model: Any, task: Sequence[Any]) -> Optional[str]:
    """The result key of one sweep task, or ``None`` when the task has
    no stable cross-run identity (see
    :func:`repro.core.serialize.sweep_task_fingerprint`).  ``model`` may
    be the model or its :func:`_model_fingerprint`; the task's limit,
    if it has one, is not part of the key."""
    _model_name, operation_name, pfsm, domain = task[:4]
    digest = domain_digest(domain)
    if digest is None:
        return None
    from .serialize import sweep_task_fingerprint

    # The model fingerprint dominates the cost; hand over the memoized
    # digest instead of the model.
    return sweep_task_fingerprint(
        model if isinstance(model, str) else _model_fingerprint(model),
        operation_name, pfsm, digest,
    )


#: A held answer: ``(the limit it was computed at, its finding)``.
Held = Tuple[int, Optional[SweepFinding]]


def _covers(held: Held, limit: int) -> bool:
    """Does ``held`` answer ``limit``?  It does when it was computed at
    a limit of at least ``limit``, or when it is exhaustive: computed at
    a limit of at least 1 and holding fewer witnesses than that."""
    held_limit, finding = held
    return limit <= held_limit or held_limit >= 1 and (
        finding is None or len(finding.witnesses) < held_limit)


def answer(held: Held, limit: int) -> Tuple[bool, Optional[SweepFinding]]:
    """``(covered, finding)``: does ``held`` answer ``limit``, and if so
    its finding cut to ``limit`` (:meth:`SweepFinding.prefix`)."""
    if not _covers(held, limit):
        return False, None
    finding = held[1]
    return True, None if finding is None else finding.prefix(limit)


# ---------------------------------------------------------------------------
# The persistent result store (cold tier).
# ---------------------------------------------------------------------------

#: ``json.dumps(value, separators=(",", ":"))``, with the encoder built
#: once rather than per record.
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _store_line(key: str, limit: int,
                finding: Optional[SweepFinding]) -> str:
    """One compact store record, ``{"key": …, "limit": …, "finding":
    {…}}``, with the finding's memoized witness table text
    (``wire_table``) spliced in rather than serialized again.  Raises
    :class:`ValueError` for witnesses outside the value codec."""
    if finding is None:
        return _compact({"key": key, "limit": limit, "finding": None})
    table = finding.wire_table
    # The text search spares the scan of values when nothing degraded.
    if '{"__repr__":' in table.text and any(
            type(value) is dict and "__repr__" in value
            for value in table.values):
        raise ValueError(f"{finding.model_name}/{finding.pfsm_name}: "
                         f"a witness is outside the value codec")
    head = _compact({"key": key, "limit": limit, "finding": {
        "model_name": finding.model_name,
        "operation_name": finding.operation_name,
        "pfsm_name": finding.pfsm_name,
        "activity": finding.activity,
    }})
    # head ends in the two closing braces; witnesses go last.
    return head[:-2] + ',"witnesses":' + table.text + "}}"


def _decode_finding(payload: Any) -> Optional[SweepFinding]:
    """A stored finding, decoding each distinct witness value once."""
    if payload is None:
        return None
    table = payload["witnesses"]
    decoded = list(map(decode_value, table["values"]))
    return SweepFinding(
        model_name=payload["model_name"],
        operation_name=payload["operation_name"],
        pfsm_name=payload["pfsm_name"],
        activity=payload["activity"],
        witnesses=tuple(map(decoded.__getitem__, table["codes"])),
    )


class ResultStore:
    """Append-only JSONL store of sweep results keyed by task fingerprint.

    One record per line, in compact JSON: ``{"key": <fingerprint>,
    "limit": <the limit it was computed at>, "finding": <its fields and
    witness table, or null>}``, the table being the finding's
    ``wire_table``.  ``load`` parses any JSON spacing and returns, per
    key, the last of the records that answer the most limits, so no
    compaction is needed.  Malformed lines (and records without a
    ``limit``, keyed per limit) are skipped and counted
    (``dist.store.malformed``), keeping a store that died mid-write
    usable for resume.

    A process that crashes mid-append leaves a truncated trailing line
    with no newline.  Both halves of the failure are tolerated: ``load``
    skips the partial tail (counted as ``dist.store.truncated``, with an
    event naming the path), and the append paths heal the file by
    prefixing a newline before the next record — without the repair,
    the next append would glue onto the partial line and silently
    swallow one valid record.

    Appends degrade instead of crashing: an :class:`OSError` mid-write
    (disk full, permissions yanked) is counted
    (``dist.store.write_errors``) and reported as an unrecorded result —
    the sweep keeps its in-memory answer and later runs simply rescan
    the missing keys.  The ``store.append.torn`` / ``store.append.enospc``
    fault taps (:mod:`repro.faults`) exercise exactly these paths.

    Appends are serialized by a lock, so threads sharing one store never
    interleave or tear each other's records.  Every record that reaches
    the file counts into ``dist.store.appended``.

    The first append opens one handle, which later appends reuse, and
    checks the file's tail then.  A later append checks the tail again
    only when the file's size is not the size its last append left,
    which means another writer appended or its own write tore.  Each
    batch is flushed before the lock is released.  :meth:`close` closes
    the handle; an append after it opens a new one.
    """

    def __init__(self, path: Any) -> None:
        self.path = str(path)
        self.write_errors = 0
        self._lock = threading.Lock()
        self._handle: Any = None
        self._end = 0  # the file size this handle's last append left

    def close(self) -> None:
        """Close the append handle (a later append reopens it)."""
        with self._lock:
            self._drop_handle()

    def __del__(self) -> None:
        self._drop_handle()

    def _write_failed(self) -> None:
        self.write_errors += 1
        if _OBS.enabled:
            _OBS.incr("dist.store.write_errors")
            _OBS.event("dist.store.write_error", path=self.path)

    def _drop_handle(self) -> None:
        """Close the append handle, if open: on :meth:`close`, and after
        a failed write (its buffer may hold part of the batch), so the
        next append reopens and checks the tail."""
        handle, self._handle = getattr(self, "_handle", None), None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _append_prefix(self, handle: Any) -> bytes:
        """``b"\\n"`` when the previous append died mid-line (the file
        open on ``handle`` is non-empty and does not end in a newline),
        else ``b""`` — counting and reporting the repair."""
        try:
            handle.seek(-1, os.SEEK_END)
        except OSError:
            return b""  # empty file
        if handle.read(1) == b"\n":
            return b""
        if _OBS.enabled:
            _OBS.incr("dist.store.truncated")
            _OBS.event("dist.store.truncated", path=self.path,
                       action="repaired")
        return b"\n"

    def load(self) -> Dict[str, Held]:
        """Every stored ``key → (limit, finding)`` (a ``None`` finding =
        scanned, clean)."""
        results: Dict[str, Held] = {}
        if not os.path.exists(self.path):
            return results
        with open(self.path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        truncated_tail = bool(raw) and not raw.endswith("\n")
        lines = raw.split("\n")
        for position, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key, limit = record["key"], record["limit"]
                if type(limit) is not int:
                    raise ValueError(f"limit {limit!r}")
                held = (limit, _decode_finding(record["finding"]))
                known = results.get(key)
                if known is None or _covers(held, known[0]):
                    results[key] = held
            except Exception:
                if not _OBS.enabled:
                    continue
                if truncated_tail and position == len(lines) - 1:
                    _OBS.incr("dist.store.truncated")
                    _OBS.event("dist.store.truncated", path=self.path,
                               action="skipped")
                else:
                    _OBS.incr("dist.store.malformed")
        return results

    def record(self, key: str, limit: int,
               finding: Optional[SweepFinding]) -> bool:
        """Append one result computed at ``limit``; ``False`` (not an
        error) when the finding's witnesses fall outside the value codec
        or the write failed."""
        return self.record_many([(key, limit, finding)]) == 1

    def record_many(
        self, items: Sequence[Tuple[str, int, Optional[SweepFinding]]]
    ) -> int:
        """Batch append of ``(key, limit, finding)`` results; returns
        how many were recorded."""
        lines: List[str] = []
        for key, limit, finding in items:
            try:
                lines.append(_store_line(key, limit, finding))
            except ValueError:
                if _OBS.enabled:
                    _OBS.incr("dist.store.unencodable")
        if not lines:
            return 0
        blob = ("\n".join(lines) + "\n").encode("utf-8")
        with self._lock:
            try:
                # The tail check reads through the handle the append
                # writes through (appends always land at the end).
                handle = self._handle
                if handle is None:
                    handle = self._handle = open(self.path, "a+b")
                    self._end = -1
                size = os.fstat(handle.fileno()).st_size
                if size != self._end:
                    blob = self._append_prefix(handle) + blob
                if _faults.fire("store.append.enospc") is not None:
                    raise OSError(28, "injected: store.append.enospc")
                if _faults.fire("store.append.torn") is not None:
                    handle.write(blob[: max(1, len(blob) // 2)])
                    handle.flush()
                    self._write_failed()
                    return 0
                handle.write(blob)
                handle.flush()
                self._end = size + len(blob)
            except OSError:
                self._drop_handle()
                self._write_failed()
                return 0
        if _OBS.enabled:
            _OBS.incr("dist.store.appended", len(lines))
        return len(lines)


# ---------------------------------------------------------------------------
# In-memory result memo (warm tier).
# ---------------------------------------------------------------------------

_MEMO_MAX = 1 << 12
_MEMO_LOCK = threading.Lock()
_RESULT_MEMO: "OrderedDict[str, Held]" = OrderedDict()


def memo_lookup(key: str, limit: int) -> Tuple[bool, Optional[SweepFinding]]:
    """``(hit, finding)`` for one fingerprint key at ``limit`` in the
    warm tier (see :func:`answer`).  A lookup refreshes the key's LRU
    position, and ``None`` findings ("scanned, clean") are
    distinguishable from misses by the boolean.  The scheduler and
    :mod:`repro.serve` share this one memo.
    """
    with _MEMO_LOCK:
        held = _RESULT_MEMO.get(key)
        if held is None:
            return False, None
        _RESULT_MEMO.move_to_end(key)
    return answer(held, limit)


def record_results(
    items: Sequence[Tuple[str, int, Optional[SweepFinding]]],
    store: Optional[ResultStore] = None,
) -> None:
    """Memoize fingerprint-keyed ``(key, limit, finding)`` results, then
    append them to ``store``.

    The one write path for computed results: :func:`run_tasks` records
    each chunk through it, and :mod:`repro.serve` each batch.  A result
    replaces a key's held answer only if it covers the held limit.  The
    memo keeps the :data:`_MEMO_MAX` most recent keys; a key it has
    evicted is recomputed and appended again, which
    :meth:`ResultStore.load` absorbs.
    """
    with _MEMO_LOCK:
        for key, limit, finding in items:
            held = _RESULT_MEMO.get(key)
            if held is None or _covers((limit, finding), held[0]):
                _RESULT_MEMO[key] = (limit, finding)
            _RESULT_MEMO.move_to_end(key)
        while len(_RESULT_MEMO) > _MEMO_MAX:
            _RESULT_MEMO.popitem(last=False)
    if store is not None:
        store.record_many(items)


def clear_memo() -> None:
    """Drop every memoized task result (the in-process warm tier)."""
    with _MEMO_LOCK:
        _RESULT_MEMO.clear()


# ---------------------------------------------------------------------------
# Chunking.
# ---------------------------------------------------------------------------

def _task_cost(task: Sequence[Any]) -> float:
    """Plan-estimated scan cost of one task (see
    :func:`repro.core.plan.task_cost`): interval-strategy tasks are
    O(limit)-cheap however large their domain, compiled tasks weigh
    their program's per-object cost.  Falls back to domain cardinality
    when the planner is bypassed or cannot size the task."""
    from . import plan

    cost = None
    try:
        cost = plan.task_cost(task)
    except Exception:
        cost = None
    if cost is not None:
        return cost
    try:
        return float(max(1, len(task[3])))
    except TypeError:
        return 1.0


def chunk_tasks(tasks: Sequence[Any], indexes: Sequence[int],
                n_chunks: int) -> List[List[int]]:
    """Pack ``indexes`` (into ``tasks``) into ``n_chunks`` size-balanced
    chunks — greedy LPT on the plan cost estimate, deterministic ties.

    Never returns empty chunks: with fewer tasks than chunks, the chunk
    count shrinks.
    """
    n_chunks = max(1, min(n_chunks, len(indexes)))
    costs = {index: _task_cost(tasks[index]) for index in indexes}
    ordered = sorted(indexes, key=lambda i: (-costs[i], i))
    chunks: List[List[int]] = [[] for _ in range(n_chunks)]
    heap: List[Tuple[float, int]] = [(0.0, c) for c in range(n_chunks)]
    for index in ordered:
        load, chunk_id = heappop(heap)
        chunks[chunk_id].append(index)
        heappush(heap, (load + costs[index], chunk_id))
    # Tasks inside a chunk run in submission order for determinism of
    # any per-chunk telemetry; results are reassembled by index anyway.
    for chunk in chunks:
        chunk.sort()
    return chunks


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------

def _chunk_worker(
    chunk: List[Tuple[int, bytes]],
    traceparent: Optional[str] = None,
    tasks: Optional[Sequence[Any]] = None,
) -> Any:
    """Run one chunk of ``(task index, task bytes)`` rows in a worker
    process.

    Handed ``tasks`` (the sweep's task list, inherited through the
    fork), the worker scans ``tasks[index]`` and ignores the row's
    bytes, which a process chunk leaves empty.  Otherwise each row's
    bytes are one pickled task, rebuilt through predicate specs (see
    :mod:`repro.core.predspec`).  Each task runs its own scan; a
    rebuilt pFSM compiles its program in this worker.

    With a ``traceparent`` (the shipping chunk's trace context,
    serialized W3C-style), the worker continues the parent's trace: its
    registry records for the chunk's duration under the decoded ambient
    context, and the return value becomes ``(results, span_events)`` —
    the worker's finished spans, stamped with its pid, ship back with
    the chunk results for the parent to replay into its own sinks.
    Without one, the return shape is the bare results list, unchanged.
    """
    ctx = TraceContext.from_traceparent(traceparent) \
        if traceparent is not None else None
    sink: Optional[MemorySink] = None
    restore = None
    was_enabled = _OBS.enabled
    if ctx is not None:
        sink = MemorySink()
        _OBS.enable(sink)
        restore = _OBS.set_trace(ctx)
    try:
        results = [(index, _scan_task(pickle.loads(raw) if tasks is None
                                      else tasks[index]))
                   for index, raw in chunk]
    finally:
        if sink is not None:
            _OBS.set_trace(restore)
            if not was_enabled:
                _OBS.disable()
            _OBS.remove_sink(sink)
    if sink is None:
        return results
    pid = os.getpid()
    span_events = []
    for event in sink.events:
        if event.get("type") == "span":
            event["pid"] = pid
            span_events.append(event)
    return results, span_events


# ---------------------------------------------------------------------------
# The scheduler.
# ---------------------------------------------------------------------------

def _serialize_task(task: Any) -> Optional[bytes]:
    """Cluster payload of one task: the pickled task, or ``None`` when
    it does not pickle (it then runs in the inline loop)."""
    try:
        return pickle.dumps(task)
    except Exception:
        return None


def run_tasks(
    tasks: Sequence[Any],
    workers: int,
    *,
    backend: str = "process",
    keys: Optional[Sequence[Optional[str]]] = None,
    store: Optional[ResultStore] = None,
) -> List[Optional[SweepFinding]]:
    """Execute scan tasks through the chunked scheduler.

    Parameters
    ----------
    tasks:
        ``(model_name, operation_name, pfsm, domain, limit)`` tuples (the
        :mod:`repro.core.sweep` task shape).
    workers:
        Local worker processes to fork (``"process"``); the chunking
        width hint (``"cluster"``).
    backend:
        ``"process"`` forks ``workers`` local workers on a private
        coordinator for this call; ``"cluster"`` ships chunks through
        the ambient :mod:`repro.cluster` coordinator to remote worker
        agents.  Both are lease-tracked and reclaimed on worker death;
        whatever no worker ran runs in this process's inline loop —
        results stay bit-for-bit equal to the thread backend's.
    keys:
        Optional per-task result keys (from :func:`task_key`).  A keyed
        task is answered from the in-memory result memo when the answer
        held for its key covers its limit; ``None`` entries always
        compute.
    store:
        Optional :class:`ResultStore`.  Every keyed result is recorded
        (:func:`record_results`) once: memo hits up front, computed
        results chunk by chunk as each chunk completes, so a killed run
        keeps what landed.

    Returns results in task order, exactly like the inline executor.
    """
    if backend not in ("process", "cluster"):
        raise ValueError(f"unknown backend {backend!r}: "
                         f"expected one of process, cluster")
    obs_on = _OBS.enabled
    count = len(tasks)
    results: List[Any] = [_PENDING] * count

    def persist(pairs: Sequence[Tuple[int, Optional[SweepFinding]]]) -> None:
        if keys is not None:
            record_results([(keys[index], tasks[index][4], finding)
                            for index, finding in pairs
                            if keys[index] is not None], store)

    # Warm tier: reuse fingerprint-keyed results computed earlier in the
    # session.
    if keys is not None:
        hits = []
        for index, key in enumerate(keys):
            if key is None:
                continue
            hit, memoized = memo_lookup(key, tasks[index][4])
            if hit:
                results[index] = memoized
                hits.append((index, memoized))
        persist(hits)
        if obs_on and hits:
            _OBS.incr("dist.memo.hits", len(hits))

    # Cluster chunks ship pickled tasks; a task that does not pickle
    # goes to the inline loop.  Process chunks ship bare indexes: their
    # workers inherit the task list.
    payloads: List[bytes] = [b""] * count
    pending: List[int] = []
    unpicklable: List[int] = []
    for index in range(count):
        if results[index] is not _PENDING:
            continue
        if backend == "cluster":
            raw = _serialize_task(tasks[index])
            if raw is None:
                unpicklable.append(index)
                continue
            payloads[index] = raw
        pending.append(index)

    with _OBS.span("dist.run", backend=backend, tasks=count,
                   pending=len(pending), workers=workers) as span:
        inline = [("unpicklable", unpicklable)] if unpicklable else []
        if pending:
            inline += _run_chunks(tasks, payloads, pending, workers,
                                  backend, results, persist)

        # The one parent-side scan loop: every chunk no worker ran,
        # stored as each chunk finishes.
        for reason, indexes in inline:
            if obs_on:
                _OBS.incr(f"dist.inline.{reason}", len(indexes))
            for index in indexes:
                results[index] = _scan_task(tasks[index])
            persist([(index, results[index]) for index in indexes])

        span.set(computed=len(pending) + len(unpicklable))
    return [None if r is _PENDING else r for r in results]


def _run_chunks(
    tasks: Sequence[Any],
    payloads: Sequence[bytes],
    pending: Sequence[int],
    workers: int,
    backend: str,
    results: List[Any],
    persist: Callable[[Sequence[Tuple[int, Any]]], None],
) -> List[Tuple[str, List[int]]]:
    """Ship the pending chunks through a coordinator: the ambient one
    (``"cluster"``), or a private one with freshly forked local workers
    (``"process"``).

    Chunk width scales with the fabric (connected workers beat the
    ``workers`` hint when larger) and execution happens wherever a
    worker claims the chunk.  Fills ``results`` for every chunk a
    worker ran (``persist`` sees each chunk's pairs as the coordinator
    accepts them) and returns the rest as ``(reason, task indexes)``
    per chunk, for the inline loop.
    """
    from ..cluster import get_coordinator
    from ..cluster.worker import local_workers

    if backend == "cluster":
        coordinator = get_coordinator()
        if coordinator is None:
            raise RuntimeError(
                "backend='cluster' needs a running coordinator: start one "
                "with `repro sweep --listen HOST:PORT` or "
                "repro.cluster.set_coordinator()")
        width = max(int(workers), coordinator.worker_count(), 1)
    else:
        width = max(int(workers), 1)
    chunks = chunk_tasks(tasks, pending, width * _CHUNKS_PER_WORKER)
    if _OBS.enabled:
        _OBS.incr("dist.chunks", len(chunks))
    payload_chunks = [[(index, payloads[index]) for index in chunk]
                      for chunk in chunks]
    # Local workers inherit the task list through the fork.
    fabric = (nullcontext(coordinator) if backend == "cluster" else
              local_workers(min(width, len(chunks)), tasks))
    with fabric as coordinator:
        got, returned = coordinator.run_chunks(payload_chunks,
                                               on_chunk=persist)
    for index, finding in got.items():
        results[index] = finding
    return returned
