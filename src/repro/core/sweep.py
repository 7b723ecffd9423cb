"""Batched analysis sweeps — the domain-scale engine.

The paper's future-work vision (and this repo's north star) is a tool
that sweeps derived predicates over whole input corpora and
vulnerability databases.  The primitives in :mod:`repro.core.pfsm` and
:mod:`repro.core.analysis` answer one query at a time; this module makes
the *sweep* — many pFSMs × many domains × many models — the unit of
work, in two layers:

1. **Hidden-path scans.**  A pFSM's hidden set is ``¬spec ∧ impl``
   over its object domain.  :func:`hidden_witness_scan` finds it with
   the fastest of four strategies: closed-form interval algebra when
   both predicates carry an integer denotation (see
   :mod:`repro.core.predicates`) and the domain is ``range``-backed
   (witness *counting* is O(1), *listing* O(limit)); a columnar mask
   pass (:mod:`repro.core.columnar`); a compiled single-pass program
   (:mod:`repro.core.plan`); or the scalar predicate calls.  The
   compiled and scalar scans share one per-scan identity memo: each
   distinct object is judged once per scan, however often the domain
   repeats it.  Nothing outlives the scan, and every task — inline, in
   a worker's chunk or in a serve batch — runs its own scan.
2. **The sweep executor.**  :func:`sweep_models` runs the per-pFSM
   witness searches and reassembles results in deterministic (model,
   operation, pFSM) order.  The ``thread`` backend runs every task on
   the calling thread; ``mode="process"`` and ``mode="cluster"`` route
   through the chunked scheduler in :mod:`repro.core.dist` (predicate
   specs make the tasks picklable — see :mod:`repro.core.predspec`).
   ``resume_from`` persists fingerprint-keyed results to a JSONL store
   so re-running a corpus sweep only computes the delta.

The module deliberately duck-types models and operations (anything with
``all_pfsms()`` / ``pfsms``) so it sits below
:mod:`repro.core.analysis` in the import graph.

Every layer reports through :mod:`repro.obs` when telemetry is enabled:
per-task spans, scan-strategy counters (``sweep.scans.fastpath`` /
``.columnar`` / ``.compiled`` / ``.plain``, mirrored as
``plan.strategy.*`` picks) and executor decisions (``sweep.pool.*``).
The checks are hoisted to once per scan/task — the per-object loops are
untouched, so a disabled registry costs nothing measurable.
(Worker processes keep their own registries, so per-task telemetry
under ``mode="process"`` stays in the workers; the parent still records
the executor decision and queue size.)
"""

from __future__ import annotations

import json
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
    _clipped_subranges,
    _complement_intervals,
    _intersect_intervals,
    _FULL_LINE,
    _range_backing,
)
from .predspec import encode_value

__all__ = [
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

#: Identity-memo miss sentinel (``False`` is a real verdict).
_MISS = object()


# ---------------------------------------------------------------------------
# Layer 1: hidden-path scans.
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


def _identity_scan(judge: Callable[[Any], bool], domain: Iterable[Any],
                   limit: int) -> Tuple[List[Any], int]:
    """Collect up to ``limit`` objects of ``domain`` that ``judge``
    accepts, in domain order.

    The per-scan identity memo: each distinct object reference is
    judged once, however often the domain repeats it, and each judged
    object is pinned so its id cannot be reused while the scan runs.
    Returns ``(witnesses, judged)``.
    """
    found: List[Any] = []
    seen: Dict[int, bool] = {}  # id(obj) -> rides the hidden path
    pinned: List[Any] = []  # keep memoized objects alive: no id reuse
    for candidate in domain:
        ident = id(candidate)
        hidden = seen.get(ident, _MISS)
        if hidden is _MISS:
            hidden = judge(candidate)
            seen[ident] = hidden
            pinned.append(candidate)
        if hidden:
            found.append(candidate)
            if len(found) >= limit:
                break
    return found, len(seen)


def hidden_witness_scan(
    pfsm: Any,
    domain: Iterable[Any],
    limit: int = 10,
) -> List[Any]:
    """Hidden-path witnesses of one pFSM over one domain.

    Four strategies, fastest applicable wins (the dominance order of
    :func:`repro.core.plan.plan_scan`):

    * closed-form interval algebra when both predicates have one and the
      domain is ``range``-backed (O(limit), not O(n));
    * a columnar whole-domain mask pass when the compiled program
      vectorizes over the domain's struct-of-arrays encoding (see
      :mod:`repro.core.columnar`; requires the planner, bypass with
      :func:`repro.core.columnar.set_enabled`);
    * a compiled single-pass scan program when both predicates carry
      specs and the planner is enabled (see :mod:`repro.core.plan`);
    * a scalar scan calling the predicates themselves otherwise
      (counted as ``plain``).

    The compiled and scalar scans run one loop, the per-scan identity
    memo: each distinct object is judged once per scan, however often
    it recurs.  It is the only verdict memo: nothing is shared between
    scans.  Witness order always matches domain iteration order,
    and repeated occurrences of a witness are reported per occurrence.
    Objects are assumed value-stable for the duration of one scan
    (predicates are pure).  ``limit <= 0`` returns no witnesses.
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
        found, judged = _identity_scan(program.evaluate, domain, limit)
        strategy = "compiled"
    else:
        found, judged = _identity_scan(pfsm.takes_hidden_path, domain,
                                       limit)
        strategy = "plain"
    if _OBS.enabled:
        _OBS.incr(f"sweep.scans.{strategy}")
        _OBS.incr(f"plan.strategy.{strategy}")
        _OBS.incr("sweep.objects.judged", judged)
        _OBS.incr("sweep.witnesses", len(found))
    return found


# ---------------------------------------------------------------------------
# Layer 2: the sweep executor.
# ---------------------------------------------------------------------------

#: ``json.dumps(value, separators=(",", ":"))``, with the encoder built
#: once.
_dumps = json.JSONEncoder(separators=(",", ":")).encode

#: A finding's wire text is joined from one dumped fragment per distinct
#: witness object when each distinct object appears at least this many
#: times on average (EXPERIMENTS.md, "Wire text from fragments").
_REPEATS_PER_FRAGMENT = 4


@dataclass(frozen=True)
class SweepFinding:
    """One pFSM with hidden-path witnesses, located within a sweep."""

    model_name: str
    operation_name: str
    pfsm_name: str
    activity: str
    witnesses: Tuple[Any, ...]

    @cached_property
    def _wire(self) -> Tuple[Optional[List[Any]], Optional[str]]:
        """``(wire_witnesses, wire_json)``, built in one pass, or
        ``(None, None)`` when a witness falls outside the codec.

        Each distinct witness object is encoded once (an identity memo,
        as in ``dist._digest_items``), because tiled domains repeat the
        same objects by reference.  When few of the witnesses are
        distinct objects, each distinct object is also dumped once and
        the text joined from those fragments; otherwise the list is
        dumped whole, which is cheaper per item than a dump per object
        (EXPERIMENTS.md, "Wire text from fragments").  Either way the
        text equals ``json.dumps(wire_witnesses, separators=(",",
        ":"))``.
        """
        ids = list(map(id, self.witnesses))
        distinct = dict(zip(ids, self.witnesses))
        try:
            values = {key: encode_value(w) for key, w in distinct.items()}
        except ValueError:
            return None, None
        wire = list(map(values.__getitem__, ids))
        if len(values) * _REPEATS_PER_FRAGMENT <= len(ids):
            texts = {key: _dumps(value) for key, value in values.items()}
            return wire, "[" + ",".join(map(texts.__getitem__, ids)) + "]"
        # No sort_keys: record-shaped witnesses must round-trip with
        # their field order intact.
        return wire, _dumps(wire)

    @property
    def wire_witnesses(self) -> Optional[List[Any]]:
        """The witnesses in the tagged-JSON codec, or ``None`` when any
        witness falls outside it.

        The one wire form of a finding: the cold store and every server
        response (computed or cached) reuse this list and its text
        (:attr:`wire_json`), so each finding is encoded and serialized
        once.  Memoized on the finding but not a field, so ``==``,
        ``hash`` and ``dataclasses.replace`` ignore it.  Assumes
        witnesses are domain objects that are not mutated after a scan
        — the assumption ``dist.domain_digest`` already makes.  Callers
        must not mutate the returned list.
        """
        return self._wire[0]

    @property
    def wire_json(self) -> Optional[str]:
        """:attr:`wire_witnesses` as compact JSON text, or ``None`` when
        a witness falls outside the codec.

        Serialized once per finding: the store line
        (``dist.ResultStore.record_many``) and every response line
        (``serve.protocol.encode_line``) splice this text verbatim
        instead of dumping the witness list again.
        """
        return self._wire[1]

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
#: limit)`` — picklable, so the process and cluster backends ship it.
SweepTask = Tuple[str, str, Any, Any, int]


def _scan_task(task: SweepTask) -> Optional[SweepFinding]:
    """One unit of sweep work: scan a single pFSM's domain."""
    model_name, operation_name, pfsm, domain, limit = task
    with _OBS.span("sweep.task", model=model_name,
                   operation=operation_name, pfsm=pfsm.name) as span:
        witnesses = hidden_witness_scan(pfsm, domain, limit=limit)
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


def _run_tasks(
    tasks: Sequence[SweepTask],
    workers: Optional[int],
    mode: str,
    keys: Optional[Sequence[Optional[str]]] = None,
    store: Any = None,
) -> List[Optional[SweepFinding]]:
    """Execute scan tasks, preserving submission order in the results.

    ``mode`` selects the executor (anything outside :data:`BACKENDS`
    raises :class:`ValueError`):

    * ``"thread"`` — every task runs on the calling thread; ``workers``
      is ignored.
    * ``"process"`` — the chunked scheduler in :mod:`repro.core.dist`
      with ``workers`` forked local worker processes (``keys``
      enables fingerprint-keyed result reuse, and a ``store`` receives
      each chunk's keyed results as it completes).
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
    if obs_on:
        _OBS.incr("sweep.pool.inline")
        _OBS.event("sweep.pool", kind="inline", tasks=len(tasks))
    return [_scan_task(task) for task in tasks]


def _sweep_tasks(tasks: Sequence[SweepTask]) -> List[SweepFinding]:
    """Run ``tasks`` inline; the findings only."""
    return [f for f in _run_tasks(tasks, None, "thread") if f is not None]


def sweep_operation(
    operation: Any,
    domains: Mapping[str, Any],
    *,
    model_name: str = "",
    limit: int = 5,
) -> List[SweepFinding]:
    """Witness-scan every pFSM of one operation (see :func:`sweep_models`)."""
    tasks: List[SweepTask] = [
        (model_name, operation.name, pfsm, domains[pfsm.name], limit)
        for pfsm in operation.pfsms
        if domains.get(pfsm.name) is not None
    ]
    with _OBS.span("sweep.operation", operation=operation.name,
                   tasks=len(tasks)) as span:
        findings = _sweep_tasks(tasks)
        span.set(findings=len(findings))
    return findings


def sweep_model(
    model: Any,
    domains: Mapping[str, Any],
    *,
    limit: int = 5,
) -> ModelSweep:
    """Witness-scan every pFSM of one model (see :func:`sweep_models`)."""
    tasks: List[SweepTask] = [
        (model.name, operation.name, pfsm, domains[pfsm.name], limit)
        for operation, pfsm in model.all_pfsms()
        if domains.get(pfsm.name) is not None
    ]
    with _OBS.span("sweep.model", model=model.name,
                   tasks=len(tasks)) as span:
        findings = _sweep_tasks(tasks)
        span.set(findings=len(findings))
    return ModelSweep(model_name=model.name, findings=tuple(findings))


def sweep_models(
    models: Mapping[str, Any],
    domains: Mapping[str, Mapping[str, Any]],
    *,
    limit: int = 5,
    workers: Optional[int] = None,
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
        Worker processes of the process backend, chunking width of the
        cluster backend (``None`` means 1); the thread backend ignores
        it.
    mode:
        ``"thread"`` (default: every task on the calling thread),
        ``"process"`` (the chunked scheduler of :mod:`repro.core.dist`
        on forked local workers, which also reuses fingerprint-keyed
        results within the session), or
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
        sweep resumes from every chunk that landed; the thread backend
        appends once at the end of the sweep.

    Results are deterministic: one :class:`ModelSweep` per input model in
    mapping order, findings in cascade order — identical to the serial
    sweep regardless of backend, worker count or how many results were
    resumed.
    """
    if backend is not None:
        mode = backend
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
    # The chunked scheduler appends chunk by chunk; the thread backend
    # appends once, after the sweep.
    chunked_store = store if mode != "thread" else None

    with _OBS.span("sweep.models", models=len(models), tasks=len(tasks),
                   workers=workers or 1, mode=mode,
                   resumed=len(resumed)) as span:
        computed = _run_tasks(
            [tasks[i] for i in remaining], workers, mode,
            keys=[keys[i] for i in remaining] if keys is not None else None,
            store=chunked_store,
        )
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
