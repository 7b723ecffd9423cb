"""Batched, cached, parallel analysis sweeps — the domain-scale engine.

The paper's future-work vision (and this repo's north star) is a tool
that sweeps derived predicates over whole input corpora and
vulnerability databases.  The primitives in :mod:`repro.core.pfsm` and
:mod:`repro.core.analysis` answer one query at a time; this module makes
the *sweep* — many pFSMs × many domains × many models — the unit of
work, with three cooperating layers:

1. **Closed-form batch paths.**  A pFSM's hidden set is
   ``¬spec ∧ impl`` over its object domain.  When both predicates carry
   a closed-form integer denotation (see
   :mod:`repro.core.predicates`) and the domain is ``range``-backed,
   the hidden set is computed by interval algebra: witness *counting*
   is O(1) and witness *listing* is O(limit), independent of domain
   size.
2. **A shared, bounded predicate cache.**  :class:`PredicateCache`
   memoizes ``(predicate, object) → bool`` with an LRU bound, keyed on
   each predicate's :attr:`~repro.core.predicates.Predicate.cache_key`
   (which changes when the predicate is rebound, so mutated predicates
   are never served stale verdicts).  One cache instance is shared
   across :func:`hidden_witness_scan`,
   :meth:`repro.core.pfsm.PrimitiveFSM.hidden_witnesses`,
   :func:`repro.core.analysis.hidden_path_report`, and
   :class:`repro.core.discovery.DiscoveryEngine` sweeps, so repeated
   sweeps of the same domain do not re-call user predicates.
3. **A parallel executor.**  :func:`sweep_models` fans the per-pFSM
   witness searches across workers and reassembles results in
   deterministic (model, operation, pFSM) order.  Thread pools share
   the caller's cache; ``mode="process"`` and ``mode="cluster"`` route
   through the chunked scheduler in :mod:`repro.core.dist` (predicate
   specs make the tasks picklable — see :mod:`repro.core.predspec`).
   ``resume_from`` persists fingerprint-keyed results to a JSONL store
   so re-running a corpus sweep only computes the delta.

The module deliberately duck-types models and operations (anything with
``all_pfsms()`` / ``pfsms``) so it sits below
:mod:`repro.core.analysis` in the import graph.

Every layer reports through :mod:`repro.obs` when telemetry is enabled:
per-task spans, scan-strategy counters (``sweep.scans.fastpath`` /
``.compiled`` / ``.cached`` / ``.plain``, mirrored as
``plan.strategy.*`` picks), executor decisions (``sweep.pool.*``), and
per-sweep cache-counter deltas (``sweep.cache.*``).  The checks are
hoisted to once per scan/task — the per-object loops are untouched, so
a disabled registry costs nothing measurable.  (Process-pool children
carry their own disabled registries, so per-task telemetry under
``mode="process"`` stays in the children; the parent still records the
pool decision and queue size.)
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from itertools import islice
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..obs import DEFAULT as _OBS
from . import columnar as _columnar
from . import plan as _plan
from .predicates import (
    Predicate,
    _clipped_subranges,
    _complement_intervals,
    _intersect_intervals,
    _FULL_LINE,
    _range_backing,
)
from .predspec import encode_value

__all__ = [
    "PredicateCache",
    "shared_cache",
    "cached_evaluate",
    "hidden_witness_scan",
    "hidden_witness_count",
    "SweepFinding",
    "ModelSweep",
    "sweep_operation",
    "sweep_model",
    "sweep_models",
    "BACKENDS",
]

#: The executors a sweep can run on (``mode=`` / ``backend=``).
BACKENDS = ("thread", "process", "cluster")


# ---------------------------------------------------------------------------
# Layer 2: the memoized predicate cache.
# ---------------------------------------------------------------------------

#: Shared miss sentinel (``None`` and ``False`` are real verdicts).
_MISS = object()

#: Default scan window: how many domain objects a compiled scan pulls
#: per bulk cache round-trip (``PredicateCache(scan_window=...)`` and
#: ``hidden_witness_scan(scan_window=...)`` override it).
_COMPILED_CHUNK = 512


class PredicateCache:
    """A bounded, thread-safe LRU memo of predicate verdicts.

    Keys prefer the predicate's **spec hash** (semantic identity — see
    :mod:`repro.core.predspec`) so equivalent predicates built in
    different runs, sweeps, or processes share entries; opaque
    predicates fall back to the per-instance :attr:`cache_key` (token +
    mutation version).  Unhashable objects are simply not cached.  The
    LRU bound keeps memory flat across arbitrarily long sweep sessions.

    ``hits``/``misses``/``evictions`` count since construction —
    ``spec_hits`` is the subset of hits served under spec-hash keys (the
    cross-instance hit class); :meth:`stats` packages them (plus
    occupancy and hit rate) for the CLI, the benchmark, and the
    telemetry layer.
    """

    _MISS = _MISS

    def __init__(self, maxsize: int = 1 << 17,
                 scan_window: int = _COMPILED_CHUNK) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        if scan_window <= 0:
            raise ValueError("scan_window must be positive")
        self.maxsize = maxsize
        #: How many domain objects a compiled scan pulls per bulk cache
        #: round-trip through this cache (see
        #: :meth:`evaluate_digest_many`).
        self.scan_window = scan_window
        self._data: "OrderedDict[Tuple[Any, ...], bool]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.spec_hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop every memoized verdict (counters survive)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot: hits (and the spec-keyed subset), misses,
        evictions, size, maxsize, and the hit rate over every lookup so
        far."""
        with self._lock:
            hits, misses = self.hits, self.misses
            spec_hits = self.spec_hits
            evictions, size = self.evictions, len(self._data)
        total = hits + misses
        return {
            "hits": hits,
            "spec_hits": spec_hits,
            "misses": misses,
            "evictions": evictions,
            "size": size,
            "maxsize": self.maxsize,
            "hit_rate": hits / total if total else 0.0,
        }

    def evaluate(self, pred: Predicate, obj: Any) -> bool:
        """``pred.evaluate(obj)``, memoized when ``obj`` is hashable."""
        spec_hash = pred.spec_hash
        try:
            # Spec-hash keys (str) and cache keys (int pair) cannot
            # collide, so both classes share one table.
            key = ((spec_hash, obj) if spec_hash is not None
                   else (pred.cache_key, obj))
            hash(key)
        except TypeError:
            return pred.evaluate(obj)
        with self._lock:
            verdict = self._data.get(key, self._MISS)
            if verdict is not self._MISS:
                self._data.move_to_end(key)
                self.hits += 1
                if spec_hash is not None:
                    self.spec_hits += 1
                return verdict
            self.misses += 1
        verdict = pred.evaluate(obj)
        with self._lock:
            self._data[key] = verdict
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
        return verdict

    def evaluate_digest(self, digest: str, obj: Any,
                        evaluate: Callable[[Any, Any], bool],
                        memo: Any = None) -> bool:
        """``evaluate(obj, memo)`` memoized under ``(digest, obj)`` — the
        compiled-program twin of :meth:`evaluate`.  ``digest`` is a
        :class:`~repro.core.plan.ScanProgram` structural digest
        (order-insensitive over folded spec trees), so structurally
        equal programs compiled from differently-associated source specs
        share entries; it lives in a separate digest space from the
        predicate spec hashes sharing this table, so the two key classes
        never alias.
        """
        try:
            key = (digest, obj)
            hash(key)
        except TypeError:
            return evaluate(obj, memo)
        with self._lock:
            verdict = self._data.get(key, self._MISS)
            if verdict is not self._MISS:
                self._data.move_to_end(key)
                self.hits += 1
                self.spec_hits += 1
                return verdict
            self.misses += 1
        verdict = evaluate(obj, memo)
        with self._lock:
            self._data[key] = verdict
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
        return verdict

    def evaluate_digest_many(self, digest: str, chunk: List[Any],
                             evaluate: Callable[[Any, Any], bool],
                             memo: Any = None) -> Tuple[List[Any], int]:
        """Bulk :meth:`evaluate_digest` over ``chunk``: one lock
        round-trip for all the lookups and one for all the stores,
        instead of two per object.  Returns ``(verdicts, computed)``
        where ``verdicts`` matches ``chunk`` order and ``computed`` is
        how many verdicts were actually evaluated (equal hashable
        objects repeated within the chunk are judged once; unhashable
        objects bypass the cache and are always evaluated).
        """
        _miss = self._MISS
        verdicts: List[Any] = [_miss] * len(chunk)
        keys: List[Any] = [None] * len(chunk)
        pending: List[int] = []
        with self._lock:
            data = self._data
            for i, obj in enumerate(chunk):
                try:
                    key = (digest, obj)
                    cached = data.get(key, _miss)
                except TypeError:
                    pending.append(i)
                    continue
                keys[i] = key
                if cached is _miss:
                    pending.append(i)
                else:
                    data.move_to_end(key)
                    verdicts[i] = cached
            hits = len(chunk) - len(pending)
            self.hits += hits
            self.spec_hits += hits
            self.misses += len(pending)
        firsts: Dict[Any, int] = {}
        compute: List[int] = []
        for i in pending:
            key = keys[i]
            if key is None or firsts.setdefault(key, i) is i:
                compute.append(i)
        for i in compute:
            verdicts[i] = evaluate(chunk[i], memo)
        for i in pending:
            if verdicts[i] is _miss:
                verdicts[i] = verdicts[firsts[keys[i]]]
        with self._lock:
            data = self._data
            for i in pending:
                key = keys[i]
                if key is not None:
                    data[key] = verdicts[i]
                    data.move_to_end(key)
            while len(data) > self.maxsize:
                data.popitem(last=False)
                self.evictions += 1
        return verdicts, len(compute)


#: The process-wide default cache shared by every sweep entry point that
#: is not handed an explicit cache.
_SHARED_CACHE = PredicateCache()

#: Sentinel: pass as ``cache=`` to disable memoization entirely.
NO_CACHE = "no-cache"


def shared_cache() -> PredicateCache:
    """The process-wide default :class:`PredicateCache`."""
    return _SHARED_CACHE


def _resolve_cache(cache: Any) -> Optional[PredicateCache]:
    if cache is None:
        return _SHARED_CACHE
    if cache is NO_CACHE or cache is False:
        return None
    return cache


def cached_evaluate(pred: Predicate, obj: Any,
                    cache: Optional[PredicateCache] = None) -> bool:
    """Evaluate ``pred`` on ``obj`` through a cache (shared by default)."""
    resolved = _resolve_cache(cache)
    if resolved is None:
        return pred.evaluate(obj)
    return resolved.evaluate(pred, obj)


# ---------------------------------------------------------------------------
# Layer 1: closed-form and batched hidden-path scans.
# ---------------------------------------------------------------------------

def _hidden_intervals(pfsm: Any):
    """The interval set of ``¬spec ∧ impl``, or None if either predicate
    is opaque."""
    spec_iv = pfsm.spec_accepts.intervals
    if spec_iv is None:
        return None
    impl = pfsm.impl_accepts
    if impl is None:
        impl_iv = _FULL_LINE  # no check at all accepts everything
    else:
        impl_iv = impl.intervals
        if impl_iv is None:
            return None
    return _intersect_intervals(_complement_intervals(spec_iv), impl_iv)


def hidden_witness_count(pfsm: Any, domain: Iterable[Any]) -> int:
    """How many domain objects ride the hidden path — O(1) per interval
    on the closed-form path, an O(n) scan otherwise."""
    backing = _range_backing(domain)
    if backing is not None:
        hidden = _hidden_intervals(pfsm)
        if hidden is not None:
            if _OBS.enabled:
                _OBS.incr("sweep.counts.fastpath")
            return sum(
                len(sub) for sub in _clipped_subranges(backing, hidden)
            )
    if _OBS.enabled:
        _OBS.incr("sweep.counts.scan")
    takes = pfsm.takes_hidden_path
    return sum(1 for obj in domain if takes(obj))


def _compiled_scan(program: Any, domain: Iterable[Any], limit: int,
                   resolved: Optional[PredicateCache],
                   memo: Any, scan_window: Optional[int] = None) -> List[Any]:
    """Scan a domain through a compiled hidden-set program.

    With a :class:`PredicateCache` the scan runs in
    ``_COMPILED_CHUNK``-sized windows through
    :meth:`PredicateCache.evaluate_digest_many` — two lock round-trips
    per window instead of two per object — and verdicts stay memoized
    under the program digest so repeated sweeps are warm across calls.
    Without a cache it keeps the cached path's per-scan identity memo
    (each distinct object reference is judged once).  ``memo`` is the
    cross-task :class:`~repro.core.plan.NodeMemo` carrying CSE verdicts
    between tasks of one sweep (``None`` gets a scan-local one).
    ``scan_window`` overrides the window size; by default the cache's
    own :attr:`PredicateCache.scan_window` governs.
    """
    if memo is None:
        memo = _plan.NodeMemo()
    evaluate = program.evaluate
    _miss = _MISS
    found: List[Any] = []
    judged = 0
    seen: Dict[int, Any] = {}  # id(obj) -> rides the hidden path
    pinned: List[Any] = []  # keep memoized objects alive: no id reuse
    if resolved is not None:
        window = scan_window if scan_window else \
            getattr(resolved, "scan_window", _COMPILED_CHUNK)
        digest = program.digest
        bulk = resolved.evaluate_digest_many
        pull = iter(domain)
        while len(found) < limit:
            chunk = list(islice(pull, window))
            if not chunk:
                break
            # The identity memo screens repeated references lock-free;
            # only first occurrences pay a cache round-trip.
            fresh = []
            for candidate in chunk:
                ident = id(candidate)
                if ident not in seen:
                    seen[ident] = _miss
                    pinned.append(candidate)
                    fresh.append(candidate)
            if fresh:
                verdicts, computed = bulk(digest, fresh, evaluate, memo)
                judged += computed
                for candidate, verdict in zip(fresh, verdicts):
                    seen[id(candidate)] = verdict
            for candidate in chunk:
                if seen[id(candidate)]:
                    found.append(candidate)
                    if len(found) >= limit:
                        break
    else:
        for candidate in domain:
            ident = id(candidate)
            hidden = seen.get(ident, _miss)
            if hidden is _miss:
                hidden = evaluate(candidate, memo)
                seen[ident] = hidden
                pinned.append(candidate)
            if hidden:
                found.append(candidate)
                if len(found) >= limit:
                    break
        judged = len(seen)
    if _OBS.enabled:
        _OBS.incr("sweep.scans.compiled")
        _OBS.incr("plan.strategy.compiled")
        _OBS.incr("sweep.objects.judged", judged)
        _OBS.incr("sweep.witnesses", len(found))
        hits, misses = memo.drain()
        if hits or misses:
            _OBS.incr("plan.cse.hits", hits)
            _OBS.incr("plan.cse.misses", misses)
    return found


def hidden_witness_scan(
    pfsm: Any,
    domain: Iterable[Any],
    limit: int = 10,
    cache: Any = NO_CACHE,
    memo: Any = None,
    scan_window: Optional[int] = None,
) -> List[Any]:
    """Hidden-path witnesses of one pFSM over one domain.

    Five strategies, fastest applicable wins (the dominance order of
    :func:`repro.core.plan.plan_scan`):

    * closed-form interval algebra when both predicates have one and the
      domain is ``range``-backed (O(limit), not O(n));
    * a columnar whole-domain mask pass when the compiled program
      vectorizes over the domain's struct-of-arrays encoding (see
      :mod:`repro.core.columnar`; requires the planner, bypass with
      :func:`repro.core.columnar.set_enabled`);
    * a compiled single-pass scan program when both predicates carry
      specs and the planner is enabled (see :mod:`repro.core.plan`) —
      ``memo`` optionally shares CSE verdicts across the tasks of one
      sweep;
    * cached scalar scan when a :class:`PredicateCache` is supplied
      (``cache=None`` selects the shared cache) — repeated *references*
      within the domain are additionally memoized per scan by identity
      (each distinct object is judged once, however often it recurs),
      with every memoized object pinned so ids stay unique for the
      scan's duration;
    * plain scalar scan otherwise — bit-identical to the seed behaviour.

    Witness order always matches domain iteration order, and repeated
    occurrences of a witness are reported per occurrence, exactly as the
    scalar scan would.  Objects are assumed value-stable for the
    duration of one scan (predicates are pure).  ``limit <= 0`` returns
    no witnesses.  ``scan_window`` overrides the compiled strategy's
    bulk cache window (default: the cache's own
    :attr:`PredicateCache.scan_window`).
    """
    if limit <= 0:
        return []
    backing = _range_backing(domain)
    if backing is not None:
        hidden = _hidden_intervals(pfsm)
        if hidden is not None:
            found: List[Any] = []
            for sub in _clipped_subranges(backing, hidden):
                take = min(limit - len(found), len(sub))
                found.extend(sub[:take])
                if len(found) >= limit:
                    break
            if _OBS.enabled:
                _OBS.incr("sweep.scans.fastpath")
                _OBS.incr("plan.strategy.interval")
                _OBS.incr("sweep.witnesses", len(found))
            return found
    resolved = _resolve_cache(cache)
    program = _plan.program_for(pfsm)
    if program is not None:
        found = _columnar.scan_program(program, domain, limit)
        if found is not None:
            if _OBS.enabled:
                _OBS.incr("sweep.scans.columnar")
                _OBS.incr("plan.strategy.columnar")
                try:
                    _OBS.incr("sweep.objects.judged", len(domain))
                except TypeError:
                    pass
                _OBS.incr("sweep.witnesses", len(found))
            return found
        return _compiled_scan(program, domain, limit, resolved, memo,
                              scan_window)
    found = []
    if resolved is None:
        takes = pfsm.takes_hidden_path
        for candidate in domain:
            if takes(candidate):
                found.append(candidate)
                if len(found) >= limit:
                    break
        if _OBS.enabled:
            _OBS.incr("sweep.scans.plain")
            _OBS.incr("plan.strategy.plain")
            _OBS.incr("sweep.witnesses", len(found))
        return found
    spec, impl = pfsm.spec_accepts, pfsm.impl_accepts
    _miss = _MISS
    verdicts: Dict[int, bool] = {}  # id(obj) -> rides the hidden path
    pinned: List[Any] = []  # keep memoized objects alive: no id reuse
    for candidate in domain:
        ident = id(candidate)
        hidden = verdicts.get(ident, _miss)
        if hidden is _miss:
            hidden = not resolved.evaluate(spec, candidate) and (
                impl is None or resolved.evaluate(impl, candidate)
            )
            verdicts[ident] = hidden
            pinned.append(candidate)
        if hidden:
            found.append(candidate)
            if len(found) >= limit:
                break
    if _OBS.enabled:
        _OBS.incr("sweep.scans.cached")
        _OBS.incr("plan.strategy.cached")
        _OBS.incr("sweep.objects.judged", len(verdicts))
        _OBS.incr("sweep.witnesses", len(found))
    return found


# ---------------------------------------------------------------------------
# Layer 3: the parallel sweep executor.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepFinding:
    """One pFSM with hidden-path witnesses, located within a sweep."""

    model_name: str
    operation_name: str
    pfsm_name: str
    activity: str
    witnesses: Tuple[Any, ...]

    @cached_property
    def wire_witnesses(self) -> Optional[List[Any]]:
        """The witnesses in the tagged-JSON codec, or ``None`` when any
        witness falls outside it.

        The one wire form of a finding: the cold store and every server
        response (computed or cached) reuse this list and its text
        (:attr:`wire_json`), so each finding is encoded and serialized
        once.  Each distinct witness object is encoded once
        too (an identity memo, as in ``dist._digest_items``), because
        tiled domains repeat the same objects by reference.  Not a
        field, so ``==``, ``hash`` and ``dataclasses.replace`` ignore
        it.  Assumes witnesses are domain objects that are not mutated
        after a scan — the assumption ``dist.domain_digest`` already
        makes.  Callers must not mutate the returned list.
        """
        by_id: Dict[int, Any] = {}
        encoded: List[Any] = []
        try:
            for witness in self.witnesses:
                key = id(witness)
                if key not in by_id:
                    by_id[key] = encode_value(witness)
                encoded.append(by_id[key])
        except ValueError:
            return None
        return encoded

    @cached_property
    def wire_json(self) -> Optional[str]:
        """:attr:`wire_witnesses` as compact JSON text, or ``None`` when
        a witness falls outside the codec.

        Serialized once per finding: the store line
        (``dist.ResultStore.record_many``) and every response line
        (``serve.protocol.encode_line``) splice this text verbatim
        instead of dumping the witness list again.
        """
        witnesses = self.wire_witnesses
        if witnesses is None:
            return None
        # No sort_keys: record-shaped witnesses must round-trip with
        # their field order intact.
        return json.dumps(witnesses, separators=(",", ":"))

    def __str__(self) -> str:
        sample = self.witnesses[0] if self.witnesses else None
        return (
            f"{self.model_name}/{self.operation_name}/{self.pfsm_name} "
            f"({self.activity}): hidden path, e.g. {sample!r}"
        )


@dataclass(frozen=True)
class ModelSweep:
    """All findings for one model, in cascade order."""

    model_name: str
    findings: Tuple[SweepFinding, ...]

    @property
    def vulnerable(self) -> bool:
        """Did any pFSM admit a hidden-path witness?"""
        return bool(self.findings)


#: The sweep task shape: ``(model_name, operation_name, pfsm, domain,
#: limit)``.  Caches are *not* part of the tuple (they hold locks, so
#: they would poison picklability); each executor decides its own cache.
SweepTask = Tuple[str, str, Any, Any, int]


def _scan_task(task: SweepTask, cache: Any = NO_CACHE, memo: Any = None
               ) -> Optional[SweepFinding]:
    """One unit of sweep work: scan a single pFSM's domain."""
    model_name, operation_name, pfsm, domain, limit = task
    with _OBS.span("sweep.task", model=model_name,
                   operation=operation_name, pfsm=pfsm.name) as span:
        witnesses = hidden_witness_scan(pfsm, domain, limit=limit,
                                        cache=cache, memo=memo)
        span.set(witnesses=len(witnesses))
    if _OBS.enabled:
        _OBS.incr("sweep.tasks.completed")
    if not witnesses:
        return None
    return SweepFinding(
        model_name=model_name,
        operation_name=operation_name,
        pfsm_name=pfsm.name,
        activity=pfsm.activity,
        witnesses=tuple(witnesses),
    )


def _scan_task_with(cache: Any, parent_id: Optional[int] = None,
                    memo: Any = None, trace_ctx: Any = None
                    ) -> Callable[[SweepTask], Optional[SweepFinding]]:
    """A :func:`_scan_task` closure binding the executor's cache (and
    shared plan memo) and — for worker threads — parenting spans under
    the submitting thread's live span and continuing its ambient trace
    context (captured at submission)."""
    def run(task: SweepTask) -> Optional[SweepFinding]:
        if parent_id is None and trace_ctx is None:
            return _scan_task(task, cache=cache, memo=memo)
        previous = _OBS.set_inherited_parent(parent_id)
        previous_trace = _OBS.set_trace(trace_ctx)
        try:
            return _scan_task(task, cache=cache, memo=memo)
        finally:
            _OBS.set_inherited_parent(previous)
            _OBS.set_trace(previous_trace)
    return run


def _run_tasks(
    tasks: Sequence[SweepTask],
    workers: Optional[int],
    mode: str,
    cache: Any = NO_CACHE,
    keys: Optional[Sequence[Optional[str]]] = None,
    memo: Any = None,
    store: Any = None,
) -> List[Optional[SweepFinding]]:
    """Execute scan tasks, preserving submission order in the results.

    ``mode`` selects the executor (anything outside :data:`BACKENDS`
    raises :class:`ValueError`):

    * ``"thread"`` — thread pool sharing ``cache``; ``workers`` of
      ``None``/``<= 1`` runs inline.
    * ``"process"`` — the chunked warm-pool scheduler in
      :mod:`repro.core.dist` (workers use their own per-process shared
      caches; ``keys`` enables fingerprint-keyed result reuse, and a
      ``store`` receives each chunk's keyed results as it completes).
    * ``"cluster"`` — the same scheduler, dispatching chunks through
      the ambient :mod:`repro.cluster` coordinator to worker agents
      (results bit-for-bit equal to ``"process"``).

    Each executor decision is recorded as a ``sweep.pool`` telemetry
    event.
    """
    if mode not in BACKENDS:
        raise ValueError(f"unknown backend {mode!r}: "
                         f"expected one of {', '.join(BACKENDS)}")
    obs_on = _OBS.enabled
    if obs_on:
        _OBS.incr("sweep.tasks.queued", len(tasks))
    if mode != "thread":
        from . import dist

        results = dist.run_tasks(tasks, workers or 1, backend=mode,
                                 keys=keys, store=store)
        if obs_on:
            _OBS.incr("sweep.pool.process")
            _OBS.event("sweep.pool", kind=mode, workers=workers or 1,
                       tasks=len(tasks))
        return results
    if not workers or workers <= 1 or len(tasks) <= 1:
        if obs_on:
            _OBS.incr("sweep.pool.inline")
            _OBS.event("sweep.pool", kind="inline", tasks=len(tasks))
        return [_scan_task(task, cache=cache, memo=memo) for task in tasks]
    parent_id = None
    trace_ctx = None
    if obs_on:
        parent = _OBS.current_span()
        if parent is not None:
            parent_id = parent.span_id
        trace_ctx = _OBS.current_trace()
    worker_fn = _scan_task_with(cache, parent_id, memo, trace_ctx)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(worker_fn, tasks))
    if obs_on:
        _OBS.incr("sweep.pool.thread")
        _OBS.event("sweep.pool", kind="thread", workers=workers,
                   tasks=len(tasks))
    return results


def _record_cache_delta(before: Optional[Mapping[str, Any]],
                        cache: Optional[PredicateCache]) -> None:
    """Fold the cache-counter movement of one sweep into the registry.

    Recorded at sweep granularity (not per lookup) so the memoized hot
    path never touches the registry; with a shared cache under
    concurrent sweeps the deltas are attributed to whichever sweep reads
    them first — totals stay exact.
    """
    if before is None or cache is None:
        return
    after = cache.stats()
    _OBS.incr("sweep.cache.hits", after["hits"] - before["hits"])
    _OBS.incr("sweep.cache.misses", after["misses"] - before["misses"])
    _OBS.incr("sweep.cache.evictions",
              after["evictions"] - before["evictions"])
    # every cache miss is one real predicate evaluation
    _OBS.incr("sweep.predicates.evaluated",
              after["misses"] - before["misses"])
    _OBS.gauge("sweep.cache.size", after["size"])


def sweep_operation(
    operation: Any,
    domains: Mapping[str, Any],
    *,
    model_name: str = "",
    limit: int = 5,
    workers: Optional[int] = None,
    cache: Any = None,
    mode: str = "thread",
) -> List[SweepFinding]:
    """Witness-scan every pFSM of one operation (see :func:`sweep_models`)."""
    resolved = _resolve_cache(cache)
    tasks: List[SweepTask] = [
        (model_name, operation.name, pfsm, domains[pfsm.name], limit)
        for pfsm in operation.pfsms
        if domains.get(pfsm.name) is not None
    ]
    with _OBS.span("sweep.operation", operation=operation.name,
                   tasks=len(tasks)) as span:
        before = resolved.stats() if _OBS.enabled and resolved is not None else None
        memo = _plan.NodeMemo() if _plan.is_enabled() else None
        findings = [
            f for f in _run_tasks(tasks, workers, mode,
                                  cache=NO_CACHE if resolved is None
                                  else resolved, memo=memo)
            if f is not None
        ]
        _record_cache_delta(before, resolved)
        span.set(findings=len(findings))
    return findings


def sweep_model(
    model: Any,
    domains: Mapping[str, Any],
    *,
    limit: int = 5,
    workers: Optional[int] = None,
    cache: Any = None,
    mode: str = "thread",
) -> ModelSweep:
    """Witness-scan every pFSM of one model (see :func:`sweep_models`)."""
    resolved = _resolve_cache(cache)
    tasks: List[SweepTask] = [
        (model.name, operation.name, pfsm, domains[pfsm.name], limit)
        for operation, pfsm in model.all_pfsms()
        if domains.get(pfsm.name) is not None
    ]
    with _OBS.span("sweep.model", model=model.name,
                   tasks=len(tasks)) as span:
        before = resolved.stats() if _OBS.enabled and resolved is not None else None
        memo = _plan.NodeMemo() if _plan.is_enabled() else None
        findings = [
            f for f in _run_tasks(tasks, workers, mode,
                                  cache=NO_CACHE if resolved is None
                                  else resolved, memo=memo)
            if f is not None
        ]
        _record_cache_delta(before, resolved)
        span.set(findings=len(findings))
    return ModelSweep(model_name=model.name, findings=tuple(findings))


def sweep_models(
    models: Mapping[str, Any],
    domains: Mapping[str, Mapping[str, Any]],
    *,
    limit: int = 5,
    workers: Optional[int] = None,
    cache: Any = None,
    mode: str = "thread",
    backend: Optional[str] = None,
    resume_from: Optional[str] = None,
) -> List[ModelSweep]:
    """Hidden-path sweep across a whole corpus of models.

    Parameters
    ----------
    models:
        Label → model mapping (e.g. ``repro.models.all_extended_models()``).
    domains:
        Label → (pFSM name → domain) mapping, matching
        ``all_extended_pfsm_domains()``.  pFSMs without a domain entry
        are skipped.
    limit:
        Max witnesses recorded per pFSM.
    workers:
        ``None``/``0``/``1`` runs inline (thread mode); otherwise the
        per-pFSM scans fan out across this many workers.
    cache:
        A :class:`PredicateCache` to share, ``None`` for the process-wide
        shared cache, or :data:`NO_CACHE` to disable memoization
        (thread/inline executors; process workers always use their own
        per-process shared cache).
    mode:
        ``"thread"`` (default), ``"process"`` (the chunked warm-pool
        scheduler of :mod:`repro.core.dist`, which also reuses
        fingerprint-keyed results within the session), or
        ``"cluster"`` (the same scheduler dispatching through the
        ambient :mod:`repro.cluster` coordinator to worker agents —
        results bit-for-bit equal to ``"process"``).  Anything else
        raises :class:`ValueError`.
    backend:
        Alias for ``mode`` (``sweep_models(..., backend="cluster")``);
        when given it wins over ``mode``.
    resume_from:
        Path to a JSONL :class:`~repro.core.dist.ResultStore`.  Tasks
        whose fingerprint key is already stored are *not* re-scanned
        (``dist.resume.skips``); newly computed keyed results are
        appended, so a corpus sweep re-run after adding one model only
        computes the delta.  Works with every mode: ``"process"`` and
        ``"cluster"`` append each chunk as it completes, so a killed
        sweep resumes from every chunk that landed; the thread and
        inline paths append once at the end of the sweep.

    Results are deterministic: one :class:`ModelSweep` per input model in
    mapping order, findings in cascade order — identical to the serial
    sweep regardless of worker count or how many results were resumed.
    """
    if backend is not None:
        mode = backend
    resolved = _resolve_cache(cache)
    tasks: List[SweepTask] = []
    task_models: List[Any] = []  # the model behind tasks[i], for keying
    boundaries: List[Tuple[str, int]] = []  # (label, task count) per model
    for label, model in models.items():
        model_domains = domains.get(label, {})
        start = len(tasks)
        for operation, pfsm in model.all_pfsms():
            domain = model_domains.get(pfsm.name)
            if domain is None:
                continue
            tasks.append((model.name, operation.name, pfsm, domain, limit))
            task_models.append(model)
        boundaries.append((label, len(tasks) - start))

    keys: Optional[List[Optional[str]]] = None
    if resume_from is not None or mode != "thread":
        from . import dist

        keys = [dist.task_key(model, task)
                for model, task in zip(task_models, tasks)]
    store = None
    known: Mapping[str, Any] = {}
    resumed: Dict[int, Optional[SweepFinding]] = {}
    if resume_from is not None:
        from . import dist

        store = dist.ResultStore(resume_from)
        known = store.load()
        for index, key in enumerate(keys or []):
            if key is not None and key in known:
                resumed[index] = known[key]
        if _OBS.enabled and resumed:
            _OBS.incr("dist.resume.skips", len(resumed))
    remaining = [i for i in range(len(tasks)) if i not in resumed]
    # The chunked scheduler appends chunk by chunk; the thread and
    # inline paths append once, after the sweep.
    chunked_store = store if mode != "thread" else None

    with _OBS.span("sweep.models", models=len(models), tasks=len(tasks),
                   workers=workers or 1, mode=mode,
                   resumed=len(resumed)) as span:
        before = resolved.stats() if _OBS.enabled and resolved is not None else None
        memo = _plan.NodeMemo() if _plan.is_enabled() else None
        computed = _run_tasks(
            [tasks[i] for i in remaining], workers, mode,
            cache=NO_CACHE if resolved is None else resolved,
            keys=[keys[i] for i in remaining] if keys is not None else None,
            memo=memo,
            store=chunked_store,
        )
        _record_cache_delta(before, resolved)
        results: List[Optional[SweepFinding]] = [None] * len(tasks)
        for index, finding in resumed.items():
            results[index] = finding
        for index, finding in zip(remaining, computed):
            results[index] = finding
        if store is not None and chunked_store is None and keys is not None:
            store.record_many([(keys[i], results[i]) for i in remaining
                               if keys[i] is not None])
        sweeps: List[ModelSweep] = []
        cursor = 0
        for (label, count), model in zip(boundaries, models.values()):
            chunk = results[cursor:cursor + count]
            cursor += count
            sweeps.append(
                ModelSweep(
                    model_name=model.name,
                    findings=tuple(f for f in chunk if f is not None),
                )
            )
        span.set(findings=sum(len(s.findings) for s in sweeps))
    return sweeps
