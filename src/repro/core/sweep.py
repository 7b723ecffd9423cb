"""Batched analysis sweeps — the domain-scale engine.

The paper's future-work vision (and this repo's north star) is a tool
that sweeps derived predicates over whole input corpora and
vulnerability databases.  The primitives in :mod:`repro.core.pfsm` and
:mod:`repro.core.analysis` answer one query at a time; this module makes
the *sweep* — many pFSMs × many domains × many models — the unit of
work, in two layers:

1. **Hidden-path scans.**  A pFSM's hidden set is ``¬spec ∧ impl``
   over its object domain.  :func:`hidden_witness_scan` runs the
   strategy :func:`repro.core.plan.plan_scan` reports for the task.
   Every task — inline, in a worker's chunk or in a serve batch — runs
   its own scan, but a compiled program's verdicts outlive it: they
   are kept on the domain's distinct-row index, so each distinct
   object is judged once per program for the index's lifetime, and a
   later scan of the program judges only objects no earlier scan
   reached.  Opaque predicates keep no verdict past their scan.  A
   finding from a scan of an indexed domain encodes its witnesses from
   the index's per-object fragments, so each distinct object is
   encoded once for the domain's lifetime.
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
``.columnar`` / ``.compiled`` / ``.plain``, the planner's choice),
the objects each scan judged (``sweep.objects.judged``) and the
verdicts it read from a table instead (``sweep.objects.reused``), and
executor decisions (``sweep.pool.*``).
The checks are hoisted to once per scan/task — the per-object loops are
untouched, so a disabled registry costs nothing measurable.
(Worker processes keep their own registries, so per-task telemetry
under ``mode="process"`` stays in the workers; the parent still records
the executor decision and queue size.)
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress, islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..obs import DEFAULT as _OBS
from . import plan as _plan
from .plan import _clipped_subranges, _range_backing
from .predspec import encode_witness
from .witness import DistinctRows

__all__ = [
    "hidden_witness_scan",
    "hidden_witness_count",
    "SweepFinding",
    "WitnessTable",
    "ModelSweep",
    "sweep_operation",
    "sweep_model",
    "sweep_models",
    "BACKENDS",
]

#: The executors a sweep can run on (``mode=``).
BACKENDS = ("thread", "process", "cluster")


# ---------------------------------------------------------------------------
# Layer 1: hidden-path scans.
# ---------------------------------------------------------------------------

def hidden_witness_count(pfsm: Any, domain: Iterable[Any]) -> int:
    """How many domain rows ride the hidden path: the rows an unlimited
    :func:`hidden_witness_scan` selects, summed in closed form (O(1) per
    interval) when the scan is an interval one."""
    chosen = _plan._choose(pfsm, domain, scan=True)
    intervals = chosen[4]
    if intervals is None:
        return len(_scan(pfsm, domain, sys.maxsize, chosen)[0])
    if _OBS.enabled:
        _OBS.incr("sweep.scans.fastpath")
    return sum(map(len, _clipped_subranges(_range_backing(domain),
                                           intervals)))


#: Flag selection switches from ``bytes.find`` to ``compress`` once hits
#: are denser than one per this many rows.
_SPARSE_ROWS = 16


def _flagged_rows(flags: bytes, limit: int) -> List[int]:
    """The first ``limit`` rows whose flag is 1, in order.  Hits are
    taken one ``bytes.find`` at a time while sparse; once a hit lands
    before row ``_SPARSE_ROWS`` × (hits so far), the rest of the flags
    are selected by ``compress`` in one C pass."""
    found: List[int] = []
    row = flags.find(1)
    while row >= 0:
        found.append(row)
        if len(found) >= limit:
            break
        if row < _SPARSE_ROWS * len(found):
            found += islice(compress(range(row + 1, len(flags)),
                                     flags[row + 1:]), limit - len(found))
            break
        row = flags.find(1, row + 1)
    return found


def _verdict_table(index: DistinctRows, flags: bytes = b"") -> bytearray:
    """A verdict table for ``index``'s codes, one byte per code, 1 when
    the object of that code rides the hidden path, ``flags`` filling its
    head.  When codes are narrow it is 256 bytes long, so a slice of
    codes maps through it in one ``bytes.translate``."""
    table = bytearray(256 if isinstance(index.codes, bytes)
                      else len(index.objects))
    table[:len(flags)] = flags
    return table


def _hidden_codes(codes: Any, table: bytearray, count: int,
                  start: int = 0, stop: Optional[int] = None
                  ) -> Iterator[int]:
    """The codes of up to ``count`` rows of ``codes[start:stop]`` whose
    verdict in ``table`` is 1, in row order, selected at C speed: one
    ``bytes.translate`` through the table (a lookup per row for wide
    codes), then ``compress``."""
    part = codes[start:stop]
    flags = part.translate(table) if isinstance(part, bytes) \
        else map(table.__getitem__, part)
    return islice(compress(part, flags), count)


def _row_flags(index: DistinctRows, table: bytes, stop: int) -> bytes:
    """One verdict byte per row of ``index`` below ``stop``, read from
    ``table``."""
    codes = index.codes
    if len(codes) == len(index.objects):
        # No row repeats an object, so each row is its own code.
        return table[:stop]
    part = codes[:stop]
    return part.translate(table) if isinstance(part, bytes) \
        else bytes(map(table.__getitem__, part))


#: The ``(table, codes covered)`` of a program no scan has judged with.
_NO_VERDICTS: Tuple[bytes, int] = (b"", 0)


def _scan_codes(judge: Callable[[Any], bool], index: DistinctRows,
                limit: int, program: Any = None
                ) -> Tuple[List[int], int, int]:
    """The codes (``index.objects`` positions) of up to ``limit`` domain
    rows that ``judge`` accepts, in domain order; how many distinct
    objects it judged; and how many verdicts it read from a table kept
    by an earlier scan instead (left at 0 while telemetry is off, for a
    scan that stops inside the table).

    Each distinct object of ``index`` is judged at most once, in order
    of first appearance, and its verdict entered in a
    :func:`_verdict_table`.  Before the object first seen at row ``r``
    is judged, the rows below ``r`` not yet taken repeat only objects
    already judged, so their witnesses are selected by
    :func:`_hidden_codes`.  The scan stops at ``limit``, having judged
    the objects that first appear before the stopping row.

    ``program``, when given, is the compiled program ``judge`` runs,
    and the table outlives the scan: it is published in
    ``index.verdicts[program]`` with how many codes it covers, and a
    later scan of the same program resumes from there.  Such a scan
    selects the rows below the first object no scan reached from the
    table, and judges only the objects no earlier scan judged.  Without
    a program the table dies with the scan.
    """
    objects, codes, first_rows = index.objects, index.codes, index.first_rows
    table, start = _NO_VERDICTS if program is None \
        else index.verdicts.get(program, _NO_VERDICTS)
    found: List[int] = []
    done = 0  # rows below ``done`` are decided
    if start:
        done = first_rows[start] if start < len(objects) else len(codes)
        flags = _row_flags(index, table, done)
        found = list(islice(compress(codes[:done], flags), limit))
        if len(found) >= limit:
            # Stopped at a row the table decides: the objects a fresh
            # scan would have judged up to it were all read from it
            # (counted only for telemetry).
            return found, 0, bisect_right(
                first_rows, _flagged_rows(flags, limit)[-1]) \
                if _OBS.enabled else 0
        if start == len(objects):
            return found, 0, start
        hidden = bytearray(table)
    else:
        hidden = _verdict_table(index)
    judged = len(objects)
    for code in range(start, judged):
        row = first_rows[code]
        if row > done and found:
            found += _hidden_codes(codes, hidden, limit - len(found),
                                   done, row)
            if len(found) >= limit:
                judged = code
                break
        if judge(objects[code]):
            hidden[code] = 1
            found.append(code)
            if len(found) >= limit:
                judged = code + 1
                break
        done = row + 1
    else:
        if found and done < len(codes):
            found += _hidden_codes(codes, hidden, limit - len(found), done)
    if program is not None and judged > start:
        # Published whole, in one assignment: a racing scan reads the
        # old table or this one, never a partial one.
        index.verdicts[program] = (bytes(hidden), judged)
    return found, judged - start, start


def _scan(pfsm: Any, domain: Iterable[Any], limit: int,
          chosen: Optional[Tuple[Any, ...]] = None
          ) -> Tuple[List[Any], Optional[DistinctRows], Optional[List[int]]]:
    """:func:`hidden_witness_scan`'s witnesses, with the domain's
    distinct-row index and the witnesses' codes in it when the domain
    has one (``None, None`` otherwise).  Runs ``chosen``, the planner's
    strategy decision for the task (made here when not given)."""
    if limit <= 0:
        return [], None, None
    strategy, program, kernel, index, intervals = \
        chosen or _plan._choose(pfsm, domain, scan=True)
    if intervals is not None:
        found: List[Any] = []
        for sub in _clipped_subranges(_range_backing(domain), intervals):
            found.extend(sub[:limit - len(found)])
            if len(found) >= limit:
                break
        if _OBS.enabled:
            _OBS.incr("sweep.scans.fastpath")
            _OBS.incr("sweep.witnesses", len(found))
        return found, None, None
    codes: Optional[List[int]] = None
    reused = 0
    # A columnar kernel whose flags a scan already stored is not run
    # again: its table answers, as a compiled scan's does.
    stored = kernel is not None and index is not None and \
        index.verdicts.get(program, _NO_VERDICTS)[1] == len(index.objects)
    flags = None if kernel is None or stored else kernel.flags()
    if flags is not None:
        strategy, judged = "columnar", len(flags)
        if index is None:
            found = list(map(kernel.encoding.row,
                             _flagged_rows(flags, limit)))
        else:
            table = _verdict_table(index, flags)
            index.verdicts[program] = (bytes(table), judged)
            if len(index.codes) == judged:
                # No row repeats an object, so each row is its own code.
                codes = _flagged_rows(flags, limit)
            else:
                codes = list(_hidden_codes(index.codes, table, limit))
    else:
        judge = pfsm.takes_hidden_path if program is None \
            else program.evaluate
        if not stored:
            strategy = "plain" if program is None else "compiled"
        if index is None:
            # No row repeats a reference: judge each row as it comes.
            found = []
            judged = 0
            for judged, candidate in enumerate(domain, 1):
                if judge(candidate):
                    found.append(candidate)
                    if len(found) >= limit:
                        break
        else:
            codes, judged, reused = _scan_codes(judge, index, limit, program)
    if codes is not None:
        found = list(map(index.objects.__getitem__, codes))
    if _OBS.enabled:
        _OBS.incr(f"sweep.scans.{strategy}")
        _OBS.incr("sweep.objects.judged", judged)
        if reused:
            _OBS.incr("sweep.objects.reused", reused)
        _OBS.incr("sweep.witnesses", len(found))
    return found, index, codes


def hidden_witness_scan(
    pfsm: Any,
    domain: Iterable[Any],
    limit: int = 10,
) -> List[Any]:
    """Hidden-path witnesses of one pFSM over one domain.

    Runs the strategy :func:`repro.core.plan.plan_scan` reports for the
    task.  Every strategy but the interval one walks the domain's
    distinct-row index (:func:`repro.core.witness.distinct_rows`): each
    distinct object is judged at most once per scan, and the rows that
    repeat an object already judged are selected without a Python step
    per row.  The compiled and columnar strategies keep their verdicts
    on the index, keyed by the pFSM's compiled program, so a later scan
    of the same program judges only the objects no earlier scan
    reached (none, once a scan has judged the whole index).  Rebinding
    a predicate compiles a new program, which starts a new table.
    Domains whose rows never repeat a reference (``range`` and
    record-product backings) are judged row by row.  Neither they nor
    opaque predicates (the plain strategy) keep a verdict past the
    scan.  Witness
    order always matches domain iteration order, and repeated
    occurrences of a witness are reported per occurrence.  Objects are
    assumed value-stable for the lifetime of their domain (predicates
    are pure).  ``limit <= 0`` returns no witnesses.
    """
    return _scan(pfsm, domain, limit)[0]


# ---------------------------------------------------------------------------
# Layer 2: the sweep executor.
# ---------------------------------------------------------------------------

#: ``json.dumps(value, separators=(",", ":"))``, with the encoder built
#: once.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


class WitnessTable(NamedTuple):
    """A finding's one wire form: each distinct witness once, in
    tagged JSON and in order of first appearance (``values``), and one
    index into ``values`` per witness (``codes``).  ``text`` is
    ``{"values": values, "codes": codes}`` as compact JSON, and
    ``texts`` holds each value's compact JSON.  A witness outside the
    codec degrades to ``{"__repr__": ...}``, which no codec value is."""

    values: List[Any]
    codes: List[int]
    text: str
    texts: List[str]


def _coded(values: List[Any], texts: List[str],
           codes: List[int]) -> WitnessTable:
    """The table of ``values`` (``texts`` their compact JSON) and
    ``codes``."""
    # A join of one text per code: dumping the int list costs more.
    numerals = list(map(str, range(len(values))))
    return WitnessTable(values, codes, '{"values":[' + ",".join(texts)
                        + '],"codes":[' + ",".join(map(numerals.__getitem__,
                                                       codes)) + "]}",
                        texts)


def _table(keys: Sequence[Any], distinct: List[Any], values: List[Any],
           texts: List[str]) -> WitnessTable:
    """The table of ``values`` (``texts`` their compact JSON), one per
    key of ``distinct``, coding each of ``keys`` by its key's
    position."""
    positions = range(len(distinct))
    # When every witness is distinct, each code is its position.
    codes = list(positions) if len(distinct) == len(keys) else list(
        map(dict(zip(distinct, positions)).__getitem__, keys))
    return _coded(values, texts, codes)


def _indexed_table(index: DistinctRows, codes: List[int]) -> WitnessTable:
    """A scanned finding's table, its values joined from ``index``'s
    per-object fragments, encoding only the distinct witness objects
    no earlier finding encoded.  A scan's codes first appear in
    increasing order, so sorting them orders them by first appearance."""
    values, texts = index.wire_values, index.wire_texts
    distinct = sorted(set(codes))
    for code in distinct:
        if texts[code] is None:
            values[code] = value = encode_witness(index.objects[code])
            texts[code] = _dumps(value)
    return _table(codes, distinct, list(map(values.__getitem__, distinct)),
                  list(map(texts.__getitem__, distinct)))


@dataclass(frozen=True)
class SweepFinding:
    """One pFSM with hidden-path witnesses, located within a sweep."""

    model_name: str
    operation_name: str
    pfsm_name: str
    activity: str
    witnesses: Tuple[Any, ...]

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle without the scan's codes (their distinct-row index
        holds the whole domain) or the finding a prefix was cut from."""
        state = self.__dict__.copy()
        state.pop("_codes", None)
        state.pop("_whole", None)
        return state

    def prefix(self, limit: int) -> Optional["SweepFinding"]:
        """This finding cut to its first ``limit`` witnesses, as a scan
        at ``limit`` finds them: itself when it holds no more, ``None``
        when ``limit <= 0``."""
        if limit >= len(self.witnesses):
            return self
        if limit <= 0:
            return None
        cut = replace(self, witnesses=self.witnesses[:limit])
        cut.__dict__["_whole"] = self
        return cut

    @cached_property
    def wire_table(self) -> WitnessTable:
        """The witnesses as a :class:`WitnessTable`, built once: the
        one wire form of a finding, whose text the store record and
        every server response splice.  A finding fresh from a scan of
        an indexed domain keeps the domain's distinct-row index and its
        witnesses' codes (outside its fields, and out of its pickles)
        and joins the table from the index's fragments, so each
        distinct object is encoded and dumped once for the index's
        lifetime.  A :meth:`prefix` slices its whole finding's table:
        the values its codes reach, its codes and their texts.  Any
        other finding (decoded from a store, returned by a worker)
        takes its distinct witnesses by identity.  Each way builds the
        same table, which decodes to :attr:`witnesses`, in order.

        Memoized but not a field, so ``==``, ``hash`` and
        ``dataclasses.replace`` ignore it.  Assumes witnesses are not
        mutated after a scan, as ``dist.domain_digest`` does.  Callers
        must not mutate the table's lists or values, which a scanned
        finding shares with every finding over the same domain.
        """
        scanned = self.__dict__.get("_codes")
        if scanned is not None:
            return _indexed_table(*scanned)
        whole = self.__dict__.get("_whole")
        if whole is not None:
            table = whole.wire_table
            codes = table.codes[:len(self.witnesses)]
            # Values are in order of first appearance, so the prefix
            # reaches the values up to its largest code.
            reach = max(codes) + 1
            return _coded(table.values[:reach], table.texts[:reach], codes)
        ids = list(map(id, self.witnesses))
        distinct = dict(zip(ids, self.witnesses))
        # No sort_keys: record-shaped witnesses must round-trip with
        # their field order intact.
        values = list(map(encode_witness, distinct.values()))
        return _table(ids, list(distinct), values, list(map(_dumps, values)))

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
        witnesses, index, codes = _scan(pfsm, domain, limit)
        span.set(witnesses=len(witnesses))
    if _OBS.enabled:
        _OBS.incr("sweep.tasks.completed")
    if not witnesses:
        return None
    finding = SweepFinding(
        model_name=model_name,
        operation_name=operation_name,
        pfsm_name=pfsm.name,
        activity=pfsm.activity,
        witnesses=tuple(witnesses),
    )
    if index is not None:
        finding.__dict__["_codes"] = (index, codes)
    return finding


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
    resume_from:
        Path to a JSONL :class:`~repro.core.dist.ResultStore`.  Tasks
        whose fingerprint key is stored with an answer that covers
        ``limit`` (:func:`repro.core.dist.answer`) are *not* re-scanned
        (``dist.resume.skips``).  Newly computed keyed results are
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
    resumed: Dict[int, Optional[SweepFinding]] = {}
    if resume_from is not None:
        from . import dist

        store = dist.ResultStore(resume_from)
        known = store.load()
        for index, key in enumerate(keys or []):
            held = known.get(key) if key is not None else None
            if held is not None:
                hit, finding = dist.answer(held, limit)
                if hit:
                    resumed[index] = finding
        if _OBS.enabled and resumed:
            _OBS.incr("dist.resume.skips", len(resumed))
    remaining = [i for i in range(len(tasks)) if i not in resumed]
    # The chunked scheduler appends chunk by chunk; the thread backend
    # appends once, after the sweep.
    chunked_store = store if mode != "thread" else None

    with _OBS.span("sweep.models", models=len(models), tasks=len(tasks),
                   workers=workers or 1, mode=mode,
                   resumed=len(resumed)) as span:
        try:
            computed = _run_tasks(
                [tasks[i] for i in remaining], workers, mode,
                keys=[keys[i] for i in remaining] if keys is not None
                else None,
                store=chunked_store,
            )
            if store is not None and chunked_store is None \
                    and keys is not None:
                store.record_many([(keys[i], limit, finding)
                                   for i, finding in zip(remaining, computed)
                                   if keys[i] is not None])
        finally:
            if store is not None:
                store.close()
        results: List[Optional[SweepFinding]] = [None] * len(tasks)
        for index, finding in resumed.items():
            results[index] = finding
        for index, finding in zip(remaining, computed):
            results[index] = finding
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
