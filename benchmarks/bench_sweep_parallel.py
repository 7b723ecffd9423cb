"""Before/after benchmark of the batched sweep engine.

Four comparisons, each written to the ``--json`` payload.  CI uploads
that payload as the ``BENCH_sweep`` artifact on every run; no copy is
committed, so no stale file stands in for a measurement:

* **hidden-witness search** — the 20k-element integer-domain search of
  ``bench_scale.py``, seed-style scalar scan vs the closed-form batch
  path (acceptance: ≥5x);
* **model sweep** — the full hidden-path sweep over every bundled model,
  seed-style naive serial engine vs the engine's inline thread backend
  (``sweep_models()``; acceptance: the engine — interval, columnar and
  compiled scans over each domain's distinct-row index — beats the serial
  baseline);
* **backend session** — a repeated-analysis session (the same corpus
  swept ``SESSION_REPEATS`` times, the shape of iterative model
  development) on the thread backend vs the process backend
  (acceptance: ≥2x at 4 workers).  The process backend wins by
  *remembering*: its scheduler keys every task by model fingerprint +
  predicate-spec hash, so after the first sweep fills the fingerprint
  memo, later sweeps in the session are lookups that fork no worker.
  The thread backend recomputes every time.  On a single-CPU runner the
  raw fork-and-pickle path has no parallelism advantage — the session
  framing is the honest one, and it is also the workload the scheduler
  was built for;
* **resume** — one corpus sweep recording to a JSONL result store, then
  the identical sweep resumed from that store with a cold scheduler
  (acceptance: the resumed sweep skips every task and beats the cold
  sweep);
* **plan** — a repeated-predicate corpus (several models whose specs
  share deep sub-predicate DAGs, over distinct string corpora — no
  interval fast path, no repeated objects to skip) swept with the
  predicate compiler disabled vs enabled (acceptance: the compiled
  path, including compile time, is ≥2x the uncompiled throughput).
  The compiled path wins two ways: flat fused closures instead of
  nested shielded combinator calls, and selectivity-ordered
  short-circuit evaluation (each task runs its own scan; no verdict
  is shared between tasks).  With the columnar engine on, most of
  these scans run as whole-column mask passes;
* **columnar** — scenario E: a numeric-heavy record corpus whose specs
  are multi-field conjunctions (no interval algebra applies), swept
  with the columnar engine disabled (compiled scalar scan) vs enabled
  (whole-column mask kernels; acceptance: ≥5x with numpy, ≥1.5x on the
  pure-stdlib fallback).  A payload sub-check sweeps the same corpus
  on the process backend and requires the task bytes its chunks ship
  (``cluster.bytes.shipped``) to be ≥10x below the pickled task a
  cluster chunk carries; forked workers inherit the task list, so they
  should ship none.  A run in which no chunk reached a worker fails;
* **cluster** — scenario F: the corpus sweep dispatched through the
  :mod:`repro.cluster` fabric over loopback TCP (a coordinator plus two
  ``repro worker`` processes of two agents each) vs the local process
  backend.  Both ride the same coordinator and framing; the fabric adds
  TCP and ships pickled tasks, domains included, where process workers
  inherit them, so the acceptance floor is *relative*: cluster throughput
  must stay ≥0.8x of the process backend on the same machine, with
  bit-identical findings.
  A reclaim-latency sub-stat measures the fault-recovery path: a worker
  claims a chunk and goes silent (connection open, no heartbeats), and
  the stat is how long the lease layer takes to reclaim the chunk —
  bounded by ``lease_timeout`` plus one reaper interval;
* **faults** — scenario G: the same loopback cluster sweep under a
  seeded :mod:`repro.faults` plan injecting a 1% socket-fault rate
  (dropped sends, delayed reads).  Recovery is supposed to be cheap:
  faulted throughput must stay ≥0.7x of the fault-free cluster run,
  with bit-identical findings.  A kill-and-resume sub-stat SIGKILLs a
  ``repro sweep --backend cluster --resume-from`` coordinator mid-run
  and requires the resumed run to re-execute no more than the tasks
  not yet stored at the kill (plus one chunk's tasks for a torn tail
  record) — the store, not luck, bounds the recovery work.

Alongside throughput, the payload now records two quality dimensions
measured through :mod:`repro.obs` (``fastpath_fraction``,
``compiled_fraction``, ``columnar_fraction``) — derived from an untimed
instrumented re-run of both workloads, so the timed numbers stay
telemetry-free.

Run ``python benchmarks/bench_sweep_parallel.py --json BENCH_sweep.json``
(the CI perf smoke target).  It exits non-zero if the speedup floors
are missed or if serial witness-search throughput regressed more than
2x against the recorded baseline (``benchmarks/baselines/sweep_baseline
.json``); refresh the baseline with ``--update-baseline``.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.core import (  # noqa: E402
    Domain,
    Operation,
    PrimitiveFSM,
    VulnerabilityModel,
    attr,
    in_range,
    is_instance,
    length_le,
    less_equal,
    matches,
    not_contains,
    satisfies_all,
    sweep_models,
)
from repro.core import columnar  # noqa: E402
from repro.core import dist  # noqa: E402
from repro.core import plan  # noqa: E402
from repro.models import (  # noqa: E402
    all_extended_models,
    all_extended_pfsm_domains,
)

BASELINE_PATH = Path(__file__).resolve().parent / "baselines" / "sweep_baseline.json"

#: Regression gate: fail CI when serial witness-search throughput drops
#: below 1/REGRESSION_FACTOR of the recorded baseline.
REGRESSION_FACTOR = 2.0

#: Sweeps per backend-session measurement — the corpus is re-swept this
#: many times per "session" so the process backend's fingerprint memo
#: has something to amortize over.
SESSION_REPEATS = 12

#: Tiling for the session corpus — heavier than the one-shot sweep
#: corpus so a single re-sweep costs real time on the thread backend.
SESSION_TILE_FACTOR = 5000

#: Acceptance floor for the backend-session comparison.
PROCESS_SESSION_FLOOR = 2.0

#: Models in the repeated-predicate plan corpus and the acceptance
#: floor for compiled-over-uncompiled sweep throughput.
PLAN_MODELS = 6
PLAN_FLOOR = 2.0

#: The columnar scenario (scenario E): numeric-heavy record corpus —
#: multi-field conjunctions, so the interval fast path cannot apply and
#: the compiled scalar scan is the best non-columnar engine.
COLUMNAR_MODELS = 4
COLUMNAR_ROWS = 60_000
COLUMNAR_NUMPY_FLOOR = 5.0
COLUMNAR_STDLIB_FLOOR = 1.5
#: Floor for the payload sub-check: the task bytes a process chunk ships
#: must be at least this much smaller than the pickled task.
PROCESS_PAYLOAD_FLOOR = 10.0

#: Scenario F: ``repro worker`` processes (two agents each) on the
#: loopback fabric, and the relative
#: throughput floor against the local process backend (the fabric adds
#: framing + socket hops; it must stay within 20% on one machine).
CLUSTER_AGENTS = 2
CLUSTER_FLOOR = 0.8
#: Lease timeout for the reclaim-latency sub-stat (short, so the bench
#: measures the recovery path, not a production-tuned wait).
CLUSTER_LEASE_TIMEOUT = 1.0

#: Scenario G: the seeded fault plan for the faulted-throughput run —
#: a 1% socket-fault rate across the fabric — and the relative floor
#: against the fault-free cluster run on the same agents.
FAULTS_SPEC = "seed=7;cluster.send.drop:0.01;cluster.recv.delay:0.01@ms=2"
FAULTS_FLOOR = 0.7


def _witness_pfsm() -> PrimitiveFSM:
    return PrimitiveFSM(
        "p", "index", "x",
        spec_accepts=in_range(0, 100),
        impl_accepts=less_equal(100),
    )


def _scalar_hidden_witnesses(pfsm, domain, limit):
    """The seed's scalar witness scan, verbatim — the 'before' engine."""
    found = []
    for candidate in domain:
        if pfsm.takes_hidden_path(candidate):
            found.append(candidate)
            if len(found) >= limit:
                break
    return found


def _scaled_domains(domains, tile_factor=200):
    """Corpus-scale versions of the bundled pFSM domains.

    The bundled domains are probe sets of a handful of values — fine for
    correctness, useless for measuring a sweep engine.  This tiles every
    probe set ``tile_factor``-fold by reference repetition — a corpus
    that re-probes the same objects over and over, exactly what the
    scans' distinct-row index absorbs.  Both engines under comparison
    get the identical scaled corpus.
    """
    scaled = {}
    for label, per_model in domains.items():
        scaled_model = {}
        for name, dom in per_model.items():
            items = list(dom)
            scaled_model[name] = Domain(
                items * tile_factor,
                description=f"tiled({dom.description})",
            )
        scaled[label] = scaled_model
    return scaled


def _naive_serial_sweep(models, domains, limit=5):
    """The seed's whole-corpus sweep: scalar scans, no memo, no batch."""
    findings = []
    for label, model in models.items():
        model_domains = domains.get(label, {})
        for operation, pfsm in model.all_pfsms():
            domain = model_domains.get(pfsm.name)
            if domain is None:
                continue
            witnesses = _scalar_hidden_witnesses(pfsm, domain, limit)
            if witnesses:
                findings.append((model.name, operation.name, pfsm.name,
                                 tuple(witnesses)))
    return findings


def _instrumented_metrics(models, domains, limit, witness_pfsm,
                          witness_domain):
    """The bench's quality dimensions, measured via the telemetry layer.

    Re-runs both workloads under an enabled registry — the closed-form
    hidden-witness search (which rides the interval fast path) and the
    corpus sweep twice — then derives the strategy coverage fractions
    from the standard ``sweep.*`` counters.  Untimed: the throughput
    comparisons run with telemetry disabled, except the plan scenario's
    compiled side, which counts its compiles.
    """
    registry = obs.get_registry()
    registry.reset()
    registry.enable()
    try:
        witness_pfsm.hidden_witnesses(witness_domain, limit=10**9)
        sweep_models(models, domains, limit=limit)
        sweep_models(models, domains, limit=limit)
        counters = registry.counters()
    finally:
        registry.disable()
        registry.reset()
    derived = obs.derived_metrics(counters)
    return {
        "fastpath_fraction": derived.get("fastpath_fraction", 0.0),
        "compiled_fraction": derived.get("compiled_fraction", 0.0),
        "columnar_fraction": derived.get("columnar_fraction", 0.0),
        "counters": {
            name: value for name, value in sorted(counters.items())
            if name.startswith(("sweep.", "plan.", "columnar."))
        },
    }


def _findings_of(sweeps):
    return [
        (f.model_name, f.operation_name, f.pfsm_name, f.witnesses)
        for sweep in sweeps for f in sweep.findings
    ]


def _emitted(models, keyed=False):
    """``models``, newly built, with every pFSM's program emitted (and,
    when ``keyed``, what keying their tasks memoizes: each model's
    fingerprint and each predicate's spec hash) outside any timer.

    A compiled program keeps its verdicts on each domain's distinct-row
    index for the index's lifetime, so a repeat that sweeps the models
    of an earlier repeat judges nothing: it times table reads.  Timed
    repeats therefore sweep newly built models, in the state the
    repeats of one model set found before verdicts outlived a scan:
    programs compiled, no verdict kept.  Warm-table timings are taken
    and reported apart, labelled as warm.
    """
    for model in models.values():
        for _operation, pfsm in model.all_pfsms():
            plan.program_for(pfsm)
            if keyed:
                for predicate in (pfsm.spec_accepts, pfsm.impl_accepts):
                    getattr(predicate, "spec_hash", None)
        if keyed:
            dist._model_fingerprint(model)
    return models


def _backend_session(domains, limit, mode, repeats=SESSION_REPEATS):
    """One analysis session: the corpus swept ``repeats`` times.

    Starts with an empty fingerprint memo (``dist.clear_memo()``), so
    the process backend's first sweep forks its workers and computes
    every task inside the measurement.  It is not a cold process:
    columnar encodings and distinct-row indexes built earlier in this
    interpreter (memoized on their domains) survive
    ``dist.clear_memo()``, and forked workers inherit them — the first session in an interpreter
    pays encoding and planning that repeat sessions do not
    (EXPERIMENTS.md records both).

    The thread backend recomputes every sweep: each sweeps a model set
    of its own (:func:`_emitted`, built before the timer starts), so no
    sweep reads the verdicts of an earlier one.  The process backend
    sweeps one model set, also built and emitted before the timer, whose
    task keys it computes inside it: its first sweep computes in
    forked workers, whose verdicts die with them, and fills the memo
    that answers the rest.
    """
    if mode == "thread":
        sessions = [_emitted(all_extended_models()) for _ in range(repeats)]
    else:
        sessions = [_emitted(all_extended_models())] * repeats
    dist.clear_memo()
    start = time.perf_counter()
    sweeps = None
    for models in sessions:
        sweeps = sweep_models(models, domains, workers=4, limit=limit,
                              mode=mode)
    seconds = time.perf_counter() - start
    return seconds, sweeps


def _resume_scenario(domains, limit):
    """Cold sweep recording to a JSONL store, then a resumed re-sweep.

    The scheduler memo is reset between the two runs so the warm run's
    reuse comes from the persisted store alone.  Both sweep one newly
    built model set, programs emitted and keys' parts memoized before
    the timer (:func:`_emitted`), so the cold sweep judges every object
    it reaches.
    """
    models = _emitted(all_extended_models(), keyed=True)
    with tempfile.TemporaryDirectory() as tmp:
        store = str(Path(tmp) / "resume.jsonl")
        dist.clear_memo()
        start = time.perf_counter()
        cold = sweep_models(models, domains, limit=limit,
                            mode="thread", resume_from=store)
        cold_s = time.perf_counter() - start
        dist.clear_memo()
        start = time.perf_counter()
        warm = sweep_models(models, domains, limit=limit,
                            mode="thread", resume_from=store)
        warm_s = time.perf_counter() - start
        records = sum(1 for line in Path(store).read_text().splitlines()
                      if line.strip())
    assert _findings_of(warm) == _findings_of(cold), \
        "resumed sweep diverged from the cold sweep"
    return cold_s, warm_s, records


def _plan_corpus(tile=120):
    """The repeated-predicate corpus for the plan scenario.

    ``PLAN_MODELS`` models, two pFSMs each, whose specs are written the
    way validation predicates read naturally — sanity regexes first,
    cheap bound checks last.  Interpreted evaluation runs that source
    order, so it pays for two regex scans on every object; the compiler
    reorders leaves by estimated selectivity and cost, so the many
    malformed objects (over-long or ``%n``-bearing — most of the corpus)
    are rejected by a length or substring check before any regex runs.
    The specs also embed one shared guard sub-DAG, structurally
    identical across every model; each task judges it in its own
    scan.  Every domain object is a *distinct* string (no
    identity-memo shortcuts, no interval fast path): the engines must
    evaluate per object, which is exactly what the compiler accelerates.
    """
    base = ["GET /index.html", "%n%n" * 30, "a" * 200, "user=admin",
            ("%s" * 20) + "%n", "b" * 150, "x" * 90 + "%n", "c" * 300,
            "ok", "d" * 120 + "%n%n"]
    models, domains = {}, {}
    for k in range(PLAN_MODELS):
        def guard():
            return satisfies_all(
                matches(r"^[\x20-\x7e]*$"),          # printable ASCII
                matches(r"^[^%]*(?:%[ns][^%]*)*$"),  # only %n/%s escapes
                matches(r"^(?:[^=]*=?[^=]*)$"),      # at most one '='
                is_instance(str), length_le(64), not_contains("%n"))
        spec1 = satisfies_all(guard(), not_contains("%s"))
        spec2 = satisfies_all(guard(), matches(r"^[-/=A-Za-z0-9 .:]*$"))
        p1 = PrimitiveFSM("p1", "format string", "s", spec_accepts=spec1,
                          impl_accepts=length_le(250))
        p2 = PrimitiveFSM("p2", "parse request", "s", spec_accepts=spec2,
                          impl_accepts=length_le(220))
        label = f"plan-model-{k}"
        models[label] = VulnerabilityModel(
            label, [Operation("handle input", "s", [p1, p2])])
        corpus = [f"{k}:{i}:{item}"
                  for i in range(tile) for item in base]
        shared_domain = Domain(corpus, description=f"plan corpus {k}")
        domains[label] = {"p1": shared_domain, "p2": shared_domain}
    objects = PLAN_MODELS * 2 * len(base) * tile
    return models, domains, objects


def _plan_scenario(repeats=3):
    """Uncompiled vs compiled sweep over the repeated-predicate corpus.

    Both sides run the identical inline engine; the only variable is
    the planner.  Each compiled repeat sweeps newly built models (the
    same domains) whose pFSMs were never compiled, so compile time is
    inside the measurement.  The telemetry registry counts the compiled
    side's ``plan.compiles`` (a few counter bumps per task, charged to
    the compiled side): a cold start that turned warm reads 0.
    """
    models, domains, objects = _plan_corpus()
    limit = 10**9
    fresh = {}

    def uncompiled():
        with plan.disabled():
            return sweep_models(models, domains, limit=limit)

    def never_compiled():
        fresh["models"] = _plan_corpus()[0]

    def compiled():
        return sweep_models(fresh["models"], domains, limit=limit)

    uncompiled_s, baseline = _best_of(uncompiled, repeats=repeats)
    registry = obs.get_registry()
    registry.reset()
    registry.enable()
    try:
        compiled_s, sweeps = _best_of(compiled, repeats=repeats,
                                      setup=never_compiled)
        compiles = registry.counters().get("plan.compiles", 0)
    finally:
        registry.disable()
        registry.reset()
    assert _findings_of(sweeps) == _findings_of(baseline), \
        "compiled sweep diverged from the uncompiled engine"
    return {
        "models": PLAN_MODELS,
        "objects_per_sweep": objects,
        "compiles": compiles,
        "uncompiled_s": uncompiled_s,
        "compiled_s": compiled_s,
        "speedup": (uncompiled_s / compiled_s
                    if compiled_s else float("inf")),
        "uncompiled_objs_per_s": objects / uncompiled_s,
        "compiled_objs_per_s": objects / compiled_s,
    }


def _columnar_corpus(rows=COLUMNAR_ROWS, corpus=None):
    """Scenario E: the numeric-heavy record corpus (``corpus``, when
    given, is a corpus domain built before, which new models audit).

    Every pFSM checks a *conjunction over several record fields* —
    exactly the shape the interval fast path cannot answer (``attr``
    specs carry no intervals), so without the columnar engine these
    scans run the compiled scalar program per object.  The hidden set
    is deliberately tiny (a narrow ``size`` band that each spec rejects
    but the implementation accepts): the engines must sweep essentially
    the whole corpus, which is what a clean-bill-of-health audit over
    production-scale telemetry looks like.

    All models audit the *same* corpus — the common shape where several
    vulnerability models are swept over one telemetry capture.  The
    domain's encoding memo encodes it once and serves every model's
    kernel from the shared columns.
    """
    if corpus is None:
        items = [{"size": (i * 37) % 10_000,
                  "depth": (i * 11) % 128,
                  "flags": (i * 13) % 300_000,
                  "ttl": (i * 7) % 86_400,
                  "name": "n" * (i % 9)}
                 for i in range(rows)]
        corpus = Domain(items, description="record corpus")
    models, domains = {}, {}
    for k in range(COLUMNAR_MODELS):
        spec = satisfies_all(
            attr("size", in_range(0, 9949 - k)),
            attr("depth", in_range(0, 96)),
            attr("flags", in_range(0, 250_000)),
            attr("ttl", in_range(0, 86_400)),
            attr("name", length_le(6)))
        impl = satisfies_all(
            attr("size", less_equal(9960)),
            attr("depth", less_equal(96)),
            attr("flags", less_equal(250_000)),
            attr("ttl", less_equal(86_400)),
            attr("name", length_le(6)))
        pfsm = PrimitiveFSM("p1", "validate record", "r",
                            spec_accepts=spec, impl_accepts=impl)
        label = f"columnar-model-{k}"
        models[label] = VulnerabilityModel(
            label, [Operation("ingest record", "r", [pfsm])])
        domains[label] = {"p1": corpus}
    return models, domains, COLUMNAR_MODELS * len(corpus)


def _columnar_scenario(repeats=3):
    """Compiled scalar vs columnar sweep over the record corpus.

    Identical engine both sides; the only variable is the columnar
    strategy (``columnar.disabled()`` is the A/B switch).  The
    vectorized side starts from cold encodings every repeat — encoding
    time is inside the measurement.  Each repeat of either side sweeps
    newly built models over the same corpus (:func:`_emitted`), so
    neither side reads verdicts the other, or an earlier repeat, kept;
    a repeat of the scalar side over its last models is timed apart as
    the warm-table figure.
    """
    _models, domains, objects = _columnar_corpus()
    corpus = next(iter(domains.values()))["p1"]
    limit = 10**9
    fresh = {}

    def new_models():
        fresh["models"] = _emitted(_columnar_corpus(corpus=corpus)[0])

    def scalar():
        with columnar.disabled():
            return sweep_models(fresh["models"], domains, limit=limit)

    def vectorized():
        columnar._DOMAIN_MEMO.clear()
        return sweep_models(fresh["models"], domains, limit=limit)

    scalar_s, baseline = _best_of(scalar, repeats=repeats, setup=new_models)
    scalar_warm_s, _ = _best_of(scalar, repeats=repeats)
    vector_s, sweeps = _best_of(vectorized, repeats=repeats,
                                setup=new_models)
    assert _findings_of(sweeps) == _findings_of(baseline), \
        "columnar sweep diverged from the compiled scalar engine"
    # Every model audits one shared corpus; its encoding picked the mask
    # backend from its row count, and the floor follows that backend.
    backend = columnar.encoding_for(corpus).ops.name
    return {
        "backend": backend,
        "models": COLUMNAR_MODELS,
        "objects_per_sweep": objects,
        "findings": len(_findings_of(sweeps)),
        "scalar_s": scalar_s,
        "scalar_warm_tables_s": scalar_warm_s,
        "columnar_s": vector_s,
        "speedup": scalar_s / vector_s if vector_s else float("inf"),
        "scalar_objs_per_s": objects / scalar_s,
        "columnar_objs_per_s": objects / vector_s,
        "floor": (COLUMNAR_NUMPY_FLOOR if backend == "numpy"
                  else COLUMNAR_STDLIB_FLOOR),
        "process_payload": _process_payload_stats(),
    }


def _process_payload_stats(rows=20_000):
    """The payload sub-check: task bytes a process sweep ships per task
    (``cluster.bytes.shipped``) against the pickled task a cluster chunk
    would carry.  A zero-byte payload counts as one byte, keeping the
    ratio finite."""
    models, domains, _objects = _columnar_corpus(rows=rows)
    label = next(iter(models))
    model = models[label]
    domain = domains[label]["p1"]
    pfsm = next(p for _op, p in model.all_pfsms())
    tasks = [(model.name, "ingest record", pfsm, domain, 5)] * 2
    pickled = len(dist._serialize_task(tasks[0]))
    registry = obs.get_registry()
    registry.reset()
    registry.enable()
    try:
        dist.clear_memo()
        dist.run_tasks(tasks, 2, backend="process")
        counters = registry.counters()
    finally:
        registry.disable()
        registry.reset()
    shipped = counters.get("cluster.bytes.shipped", 0)
    per_task = shipped / len(tasks)
    return {
        "tasks": len(tasks),
        "chunks_shipped": counters.get("cluster.chunks.completed", 0),
        "bytes_shipped": shipped,
        "task_payload_pickled": pickled,
        "task_payload_shipped": per_task,
        "payload_reduction": pickled / max(per_task, 1.0),
    }


def _cluster_scenario(repeats=2):
    """Scenario F: loopback cluster fabric vs the local process backend.

    Both sides sweep the identical scaled corpus from an empty
    fingerprint memo.  The cluster side runs one coordinator and
    ``CLUSTER_AGENTS`` ``repro worker --workers 2`` processes (loopback
    TCP, real framing, real leases), so both sides execute on four
    forked single-slot agents — the measured difference is the fabric
    overhead, not a different executor.
    """
    import os
    import subprocess

    from repro.cluster import ClusterCoordinator, coordinating

    models = all_extended_models()
    domains = _scaled_domains(all_extended_pfsm_domains())
    limit = 10**9

    def process_side():
        dist.clear_memo()
        return sweep_models(models, domains, workers=4, limit=limit,
                            mode="process")

    dist.clear_memo()
    process_s, baseline = _best_of(process_side, repeats=repeats)

    dist.clear_memo()
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("REPRO_FAULTS", None)
    with ClusterCoordinator() as coordinator, coordinating(coordinator):
        agents = [subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect",
             "127.0.0.1:%d" % coordinator.port, "--workers", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(CLUSTER_AGENTS)]
        try:
            assert coordinator.wait_for_workers(2 * CLUSTER_AGENTS,
                                                timeout=60.0)

            def cluster_side():
                dist.clear_memo()
                return sweep_models(models, domains, workers=4,
                                    limit=limit, mode="cluster")

            cluster_s, sweeps = _best_of(cluster_side, repeats=repeats)
            counters = dict(coordinator.snapshot()["counters"])
        finally:
            for agent in agents:
                agent.terminate()
            for agent in agents:
                agent.wait(timeout=60)
    assert _findings_of(sweeps) == _findings_of(baseline), \
        "cluster sweep diverged from the process backend"
    return {
        "agents": CLUSTER_AGENTS,
        "process_s": process_s,
        "cluster_s": cluster_s,
        "relative_throughput": (process_s / cluster_s
                                if cluster_s else float("inf")),
        "floor": CLUSTER_FLOOR,
        "cluster_sweeps_per_s": 1.0 / cluster_s if cluster_s else 0.0,
        "chunks_completed": counters.get("chunks.completed", 0),
        "bytes_shipped": counters.get("bytes.shipped", 0),
        "bytes_received": counters.get("bytes.received", 0),
        "reclaim": _reclaim_latency_stat(),
    }


def _reclaim_latency_stat():
    """Worker-death recovery latency through the lease layer.

    A raw-socket worker claims a chunk and goes silent without closing
    its connection — the worst case for the coordinator, which cannot
    see an EOF and must wait out the lease.  The stat is claim-to-
    reclaim wall time; the sweep then completes inline (identical
    results), proving recovery, not just detection.
    """
    import json as _json
    import socket as _socket
    import threading

    from repro.cluster import ClusterCoordinator, coordinating
    from repro.cluster.protocol import encode_line, read_line
    from repro.core.sweep import _scan_task

    pfsm = PrimitiveFSM("p", "scan", "x", spec_accepts=in_range(0, 5),
                        impl_accepts=less_equal(10))
    tasks = [("model", f"op{i}", pfsm, Domain.integers(0, 50), 5)
             for i in range(4)]
    dist.clear_memo()
    with ClusterCoordinator(lease_timeout=CLUSTER_LEASE_TIMEOUT) as \
            coordinator, coordinating(coordinator):
        results = {}

        def sweep():
            results["got"] = dist.run_tasks(tasks, 2, backend="cluster")

        runner = threading.Thread(target=sweep)
        conn = _socket.create_connection(coordinator.address)
        reader = conn.makefile("rb")
        try:
            conn.sendall(encode_line({"op": "hello", "worker": "mute"}))
            read_line(reader)
            runner.start()
            claimed_at = None
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                conn.sendall(encode_line({"op": "claim",
                                          "worker": "mute"}))
                response = _json.loads(read_line(reader))
                if response.get("status") == "chunk":
                    claimed_at = time.perf_counter()
                    break
                time.sleep(0.01)
            assert claimed_at is not None, "mute worker never got a chunk"
            # Silence: no result, no heartbeat, connection held open.
            deadline = claimed_at + 10.0 * CLUSTER_LEASE_TIMEOUT + 5.0
            while coordinator.counter("chunks.reclaimed") < 1:
                assert time.perf_counter() < deadline, "reclaim never came"
                time.sleep(0.005)
            latency = time.perf_counter() - claimed_at
        finally:
            reader.close()
            conn.close()
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "sweep did not recover"
    expected = [None if r is None else tuple(r.witnesses)
                for r in (_scan_task(t) for t in tasks)]
    got = [None if r is None else tuple(r.witnesses)
           for r in results["got"]]
    assert got == expected, "post-reclaim results diverged"
    return {
        "lease_timeout_s": CLUSTER_LEASE_TIMEOUT,
        "reclaim_latency_s": latency,
    }


def _faults_scenario(repeats=2):
    """Scenario G: the loopback cluster sweep under a seeded 1% socket
    fault rate vs the same sweep fault-free, plus the kill-and-resume
    sub-stat.  Both sides share one coordinator and agent set so the
    only variable is the installed fault plan."""
    from repro import faults
    from repro.cluster import (
        ClusterCoordinator,
        ClusterWorker,
        coordinating,
    )

    models = all_extended_models()
    domains = _scaled_domains(all_extended_pfsm_domains())
    limit = 10**9

    def cluster_side():
        dist.clear_memo()
        return sweep_models(models, domains, workers=4, limit=limit,
                            mode="cluster")

    dist.clear_memo()
    previous = faults.install(None)
    try:
        with ClusterCoordinator() as coordinator, \
                coordinating(coordinator):
            agents = [ClusterWorker(*coordinator.address)
                      for _ in range(2 * CLUSTER_AGENTS)]
            for agent in agents:
                agent.start()
            assert coordinator.wait_for_workers(2 * CLUSTER_AGENTS,
                                                timeout=30.0)
            clean_s, baseline = _best_of(cluster_side, repeats=repeats)
            plan_obj = faults.parse_spec(FAULTS_SPEC)
            with faults.injecting(plan_obj):
                faulted_s, sweeps = _best_of(cluster_side,
                                             repeats=repeats)
            for agent in agents:
                agent.stop()
    finally:
        faults.install(previous)
    assert _findings_of(sweeps) == _findings_of(baseline), \
        "faulted cluster sweep diverged from the fault-free run"
    return {
        "fault_spec": FAULTS_SPEC,
        "fault_free_s": clean_s,
        "faulted_s": faulted_s,
        "relative_throughput": (clean_s / faulted_s
                                if faulted_s else float("inf")),
        "floor": FAULTS_FLOOR,
        "injected": plan_obj.snapshot()["injected"],
        "total_injected": plan_obj.snapshot()["total_injected"],
        "resume": _store_resume_stat(),
    }


def _largest_default_chunk():
    """Tasks in the largest chunk of a default ``repro sweep`` (one
    worker, so ``dist._CHUNKS_PER_WORKER`` chunks) — the most one torn
    store append can lose."""
    models = all_extended_models()
    domains = all_extended_pfsm_domains()
    tasks = [(model.name, operation.name, pfsm,
              domains[label][pfsm.name], 5)
             for label, model in models.items()
             for operation, pfsm in model.all_pfsms()
             if domains.get(label, {}).get(pfsm.name) is not None]
    chunks = dist.chunk_tasks(tasks, range(len(tasks)),
                              dist._CHUNKS_PER_WORKER)
    return max(len(chunk) for chunk in chunks)


def _store_resume_stat():
    """Kill-and-resume through the result store.

    SIGKILLs a cluster-sweep coordinator writing ``--resume-from`` once
    its first chunk is durably stored, then re-runs with the same
    store.  The stat is how many tasks the resume re-executed; the
    bound is the tasks not stored at the kill plus one chunk's tasks
    (a torn tail record re-executes its chunk).
    """
    import json as _json
    import os
    import signal
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("REPRO_FAULTS", None)
    with tempfile.TemporaryDirectory() as scratch:
        store = Path(scratch) / "store.jsonl"
        command = [sys.executable, "-m", "repro", "sweep",
                   "--backend", "cluster", "--listen", "127.0.0.1:0",
                   "--resume-from", str(store), "--json"]

        def complete_records():
            if not store.exists():
                return 0
            count = 0
            with open(store, "rb") as handle:
                for line in handle:
                    if not line.endswith(b"\n"):
                        continue
                    try:
                        _json.loads(line)
                        count += 1
                    except ValueError:
                        pass
            return count

        victim = subprocess.Popen(
            command, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            if complete_records() >= 1 or victim.poll() is not None:
                break
            time.sleep(0.02)
        killed = victim.poll() is None
        if killed:
            os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=60)
        stored_at_kill = complete_records()

        resumed = subprocess.run(command, env=env, capture_output=True,
                                 text=True, timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        resume = _json.loads(resumed.stdout)["resume"]
        total = resume["resumed"] + resume["stored"]
        chunk = _largest_default_chunk()
        return {
            "victim_killed": killed,
            "total_tasks": total,
            "stored_at_kill": stored_at_kill,
            "tasks_resumed": resume["resumed"],
            "re_executed": resume["stored"],
            "largest_chunk_tasks": chunk,
            # Not stored at the kill, plus one chunk for a torn tail.
            "re_execution_bound": max(0, total - stored_at_kill) + chunk,
        }


def _best_of(fn, repeats=5, setup=None):
    """(best wall-clock seconds, last result) over ``repeats`` runs;
    ``setup``, when given, runs untimed before each one."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure(witness_repeats=5, sweep_repeats=3):
    """Run both comparisons; returns the BENCH_sweep payload dict."""
    pfsm = _witness_pfsm()
    domain = Domain.integers(-10000, 10000)

    scalar_s, scalar_found = _best_of(
        lambda: _scalar_hidden_witnesses(pfsm, domain, 10**9),
        repeats=witness_repeats,
    )
    batch_s, batch_found = _best_of(
        lambda: pfsm.hidden_witnesses(domain, limit=10**9),
        repeats=witness_repeats,
    )
    assert batch_found == scalar_found, "batch path diverged from scalar scan"
    assert len(batch_found) == 10000

    domains = _scaled_domains(all_extended_pfsm_domains())
    # Full witness enumeration: with a truncating limit both engines
    # early-exit after a handful of hits and nothing is measured.
    limit = 10**9
    # Each repeat of either side sweeps newly built models (see
    # ``_emitted``); the last engine repeat's models are swept again
    # for the warm-table figure.
    fresh = {}

    def new_models():
        fresh["models"] = _emitted(all_extended_models())

    serial_s, serial_findings = _best_of(
        lambda: _naive_serial_sweep(fresh["models"], domains, limit=limit),
        repeats=sweep_repeats, setup=new_models,
    )
    parallel_s, sweeps = _best_of(
        lambda: sweep_models(fresh["models"], domains, limit=limit),
        repeats=sweep_repeats, setup=new_models,
    )
    warm_s, warm_sweeps = _best_of(
        lambda: sweep_models(fresh["models"], domains, limit=limit),
        repeats=sweep_repeats,
    )
    parallel_findings = _findings_of(sweeps)
    assert parallel_findings == serial_findings == \
        _findings_of(warm_sweeps), \
        "engine sweep diverged from the serial baseline"

    session_domains = _scaled_domains(
        all_extended_pfsm_domains(), tile_factor=SESSION_TILE_FACTOR,
    )
    thread_session_s, thread_sweeps = _backend_session(
        session_domains, limit, mode="thread")
    process_session_s, process_sweeps = _backend_session(
        session_domains, limit, mode="process")
    assert _findings_of(process_sweeps) == _findings_of(thread_sweeps), \
        "process-backend sweep diverged from the thread backend"

    resume_cold_s, resume_warm_s, resume_records = _resume_scenario(
        domains, limit)

    plan_stats = _plan_scenario()
    columnar_stats = _columnar_scenario()
    cluster_stats = _cluster_scenario()
    faults_stats = _faults_scenario()

    models = all_extended_models()
    quality = _instrumented_metrics(models, domains, limit, pfsm, domain)

    return {
        "fastpath_fraction": quality["fastpath_fraction"],
        "compiled_fraction": quality["compiled_fraction"],
        "columnar_fraction": quality["columnar_fraction"],
        "observability": quality,
        "hidden_witness_search": {
            "domain_size": len(domain),
            "witnesses": len(batch_found),
            "scalar_s": scalar_s,
            "batch_s": batch_s,
            "speedup": scalar_s / batch_s if batch_s else float("inf"),
            "serial_throughput_objs_per_s": len(domain) / scalar_s,
        },
        "model_sweep": {
            "models": len(models),
            "findings": len(parallel_findings),
            "engine": "inline",
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "warm_tables_s": warm_s,
            "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        },
        "backend_session": {
            "repeats": SESSION_REPEATS,
            "workers": 4,
            "thread_s": thread_session_s,
            "process_s": process_session_s,
            "speedup": (thread_session_s / process_session_s
                        if process_session_s else float("inf")),
            "thread_sweeps_per_s": SESSION_REPEATS / thread_session_s,
            "process_sweeps_per_s": SESSION_REPEATS / process_session_s,
        },
        "resume": {
            "store_records": resume_records,
            "cold_s": resume_cold_s,
            "warm_s": resume_warm_s,
            "speedup": (resume_cold_s / resume_warm_s
                        if resume_warm_s else float("inf")),
        },
        "plan": plan_stats,
        "columnar": columnar_stats,
        "cluster": cluster_stats,
        "faults": faults_stats,
    }


def check(payload, update_baseline=False):
    """Enforce the acceptance floors; returns a list of failure strings."""
    failures = []
    witness = payload["hidden_witness_search"]
    sweep = payload["model_sweep"]
    if witness["speedup"] < 5.0:
        failures.append(
            f"hidden-witness batch path only {witness['speedup']:.1f}x "
            f"over scalar (need >=5x)"
        )
    if sweep["parallel_s"] >= sweep["serial_s"]:
        failures.append(
            f"inline sweep_models ({sweep['parallel_s']:.4f}s) did not "
            f"beat the serial baseline ({sweep['serial_s']:.4f}s)"
        )
    session = payload["backend_session"]
    if session["speedup"] < PROCESS_SESSION_FLOOR:
        failures.append(
            f"process-backend session only {session['speedup']:.2f}x over "
            f"the thread backend (need >={PROCESS_SESSION_FLOOR}x at "
            f"{session['workers']} workers)"
        )
    resume = payload["resume"]
    if resume["warm_s"] >= resume["cold_s"]:
        failures.append(
            f"resumed sweep ({resume['warm_s']:.4f}s) did not beat the "
            f"cold sweep ({resume['cold_s']:.4f}s)"
        )
    plan_stats = payload["plan"]
    if plan_stats["speedup"] < PLAN_FLOOR:
        failures.append(
            f"compiled sweep only {plan_stats['speedup']:.2f}x over the "
            f"uncompiled path (need >={PLAN_FLOOR}x)"
        )
    columnar_stats = payload["columnar"]
    if columnar_stats["speedup"] < columnar_stats["floor"]:
        failures.append(
            f"columnar sweep ({columnar_stats['backend']}) only "
            f"{columnar_stats['speedup']:.2f}x over the compiled scalar "
            f"path (need >={columnar_stats['floor']}x)"
        )
    shipping = columnar_stats["process_payload"]
    if not shipping["chunks_shipped"]:
        failures.append("process payload check: no chunk reached a worker")
    elif shipping["payload_reduction"] < PROCESS_PAYLOAD_FLOOR:
        failures.append(
            f"process task payload only "
            f"{shipping['payload_reduction']:.1f}x below the pickled task "
            f"(need >={PROCESS_PAYLOAD_FLOOR}x)"
        )
    cluster_stats = payload["cluster"]
    if cluster_stats["relative_throughput"] < cluster_stats["floor"]:
        failures.append(
            f"cluster sweep only {cluster_stats['relative_throughput']:.2f}x "
            f"of process-backend throughput on loopback "
            f"(need >={cluster_stats['floor']}x)"
        )
    reclaim = cluster_stats["reclaim"]
    # Recovery must be bounded by the lease plus scheduler slack — a
    # reclaim that takes several lease lifetimes means the reaper or
    # the heartbeat contract regressed.
    if reclaim["reclaim_latency_s"] > 3.0 * reclaim["lease_timeout_s"]:
        failures.append(
            f"worker-death reclaim took {reclaim['reclaim_latency_s']:.2f}s "
            f"against a {reclaim['lease_timeout_s']:.1f}s lease "
            f"(need <=3x the lease timeout)"
        )
    faults_stats = payload["faults"]
    if faults_stats["relative_throughput"] < faults_stats["floor"]:
        failures.append(
            f"faulted cluster sweep only "
            f"{faults_stats['relative_throughput']:.2f}x of fault-free "
            f"throughput under {faults_stats['fault_spec']!r} "
            f"(need >={faults_stats['floor']}x)"
        )
    resume_stat = faults_stats["resume"]
    if resume_stat["re_executed"] > resume_stat["re_execution_bound"]:
        failures.append(
            f"store resume re-executed {resume_stat['re_executed']} "
            f"task(s) with only "
            f"{resume_stat['total_tasks'] - resume_stat['stored_at_kill']} "
            f"unstored at the kill (bound "
            f"{resume_stat['re_execution_bound']})"
        )

    throughput = witness["serial_throughput_objs_per_s"]
    session_throughput = session["process_sweeps_per_s"]
    plan_throughput = plan_stats["compiled_objs_per_s"]
    columnar_throughput = columnar_stats["columnar_objs_per_s"]
    cluster_throughput = cluster_stats["cluster_sweeps_per_s"]
    if update_baseline or not BASELINE_PATH.exists():
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(
            {
                "serial_witness_throughput_objs_per_s": throughput,
                "process_session_sweeps_per_s": session_throughput,
                "plan_compiled_objs_per_s": plan_throughput,
                "columnar_objs_per_s": columnar_throughput,
                "columnar_backend": columnar_stats["backend"],
                "cluster_sweeps_per_s": cluster_throughput,
            }, indent=2,
        ) + "\n")
        print(f"baseline recorded: {throughput:,.0f} objs/s, "
              f"{session_throughput:,.2f} process-session sweeps/s, "
              f"{plan_throughput:,.0f} compiled objs/s, "
              f"{columnar_throughput:,.0f} columnar objs/s, "
              f"{cluster_throughput:,.2f} cluster sweeps/s "
              f"-> {BASELINE_PATH}")
    else:
        baseline = json.loads(BASELINE_PATH.read_text())
        floor = baseline["serial_witness_throughput_objs_per_s"] / REGRESSION_FACTOR
        if throughput < floor:
            failures.append(
                f"serial witness-search throughput regressed: "
                f"{throughput:,.0f} objs/s < floor {floor:,.0f} objs/s "
                f"(baseline / {REGRESSION_FACTOR})"
            )
        recorded = baseline.get("process_session_sweeps_per_s")
        if recorded is not None:
            floor = recorded / REGRESSION_FACTOR
            if session_throughput < floor:
                failures.append(
                    f"process-session throughput regressed: "
                    f"{session_throughput:,.2f} sweeps/s < floor "
                    f"{floor:,.2f} sweeps/s (baseline / {REGRESSION_FACTOR})"
                )
        recorded = baseline.get("plan_compiled_objs_per_s")
        if recorded is not None:
            floor = recorded / REGRESSION_FACTOR
            if plan_throughput < floor:
                failures.append(
                    f"compiled-sweep throughput regressed: "
                    f"{plan_throughput:,.0f} objs/s < floor "
                    f"{floor:,.0f} objs/s (baseline / {REGRESSION_FACTOR})"
                )
        recorded = baseline.get("columnar_objs_per_s")
        # Only gate like-for-like: a stdlib-fallback run is not a
        # regression against a numpy-recorded baseline.
        if recorded is not None and \
                baseline.get("columnar_backend") == columnar_stats["backend"]:
            floor = recorded / REGRESSION_FACTOR
            if columnar_throughput < floor:
                failures.append(
                    f"columnar-sweep throughput regressed: "
                    f"{columnar_throughput:,.0f} objs/s < floor "
                    f"{floor:,.0f} objs/s (baseline / {REGRESSION_FACTOR})"
                )
        recorded = baseline.get("cluster_sweeps_per_s")
        if recorded is not None:
            floor = recorded / REGRESSION_FACTOR
            if cluster_throughput < floor:
                failures.append(
                    f"cluster-sweep throughput regressed: "
                    f"{cluster_throughput:,.2f} sweeps/s < floor "
                    f"{floor:,.2f} sweeps/s (baseline / {REGRESSION_FACTOR})"
                )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the before/after payload here")
    parser.add_argument("--update-baseline", action="store_true",
                        help="re-record the serial-throughput baseline")
    args = parser.parse_args(argv)

    payload = measure()
    witness, sweep = payload["hidden_witness_search"], payload["model_sweep"]
    print(f"hidden-witness search over {witness['domain_size']:,} objects: "
          f"scalar {witness['scalar_s']:.4f}s, batch {witness['batch_s']:.6f}s "
          f"({witness['speedup']:.0f}x)")
    print(f"sweep of {sweep['models']} models: serial {sweep['serial_s']:.4f}s, "
          f"inline engine {sweep['parallel_s']:.4f}s "
          f"({sweep['speedup']:.1f}x)")
    print(f"sweep of {sweep['models']} models, warm verdict tables "
          f"(not gated): inline engine {sweep['warm_tables_s']:.4f}s")
    session = payload["backend_session"]
    print(f"session of {session['repeats']} corpus sweeps: "
          f"thread {session['thread_s']:.4f}s, "
          f"process {session['process_s']:.4f}s "
          f"({session['speedup']:.1f}x)")
    resume = payload["resume"]
    print(f"resume from a {resume['store_records']}-record store: "
          f"cold {resume['cold_s']:.4f}s, warm {resume['warm_s']:.4f}s "
          f"({resume['speedup']:.1f}x)")
    plan_stats = payload["plan"]
    print(f"plan corpus of {plan_stats['models']} models x "
          f"{plan_stats['objects_per_sweep']:,} objects: "
          f"uncompiled {plan_stats['uncompiled_s']:.4f}s, "
          f"compiled {plan_stats['compiled_s']:.4f}s "
          f"({plan_stats['speedup']:.1f}x, "
          f"{plan_stats['compiles']} compiles)")
    columnar_stats = payload["columnar"]
    print(f"columnar corpus of {columnar_stats['models']} models x "
          f"{columnar_stats['objects_per_sweep']:,} records "
          f"({columnar_stats['backend']}): "
          f"scalar {columnar_stats['scalar_s']:.4f}s, "
          f"columnar {columnar_stats['columnar_s']:.4f}s "
          f"({columnar_stats['speedup']:.1f}x)")
    print(f"columnar corpus, warm verdict tables (not gated): scalar "
          f"{columnar_stats['scalar_warm_tables_s']:.4f}s")
    shipping = columnar_stats["process_payload"]
    print(f"process shipping: {shipping['chunks_shipped']} chunk(s), "
          f"{shipping['task_payload_shipped']:,.0f}B per task vs "
          f"{shipping['task_payload_pickled']:,}B pickled "
          f"({shipping['payload_reduction']:,.0f}x smaller)")
    cluster_stats = payload["cluster"]
    print(f"cluster fabric ({cluster_stats['agents']} loopback agents): "
          f"process {cluster_stats['process_s']:.4f}s, "
          f"cluster {cluster_stats['cluster_s']:.4f}s "
          f"({cluster_stats['relative_throughput']:.2f}x relative, "
          f"{cluster_stats['chunks_completed']} chunks, "
          f"{cluster_stats['bytes_shipped']:,}B shipped); "
          f"worker-death reclaim in "
          f"{cluster_stats['reclaim']['reclaim_latency_s']:.2f}s "
          f"({cluster_stats['reclaim']['lease_timeout_s']:.1f}s lease)")
    faults_stats = payload["faults"]
    resume_stat = faults_stats["resume"]
    print(f"fault injection ({faults_stats['fault_spec']}): "
          f"fault-free {faults_stats['fault_free_s']:.4f}s, "
          f"faulted {faults_stats['faulted_s']:.4f}s "
          f"({faults_stats['relative_throughput']:.2f}x relative, "
          f"{faults_stats['total_injected']} injection(s)); "
          f"store resume re-executed {resume_stat['re_executed']} of "
          f"{resume_stat['total_tasks']} task(s) "
          f"({resume_stat['stored_at_kill']} stored at the kill)")
    print(f"quality: "
          f"interval fast-path coverage {payload['fastpath_fraction']:.1%}, "
          f"compiled-program coverage {payload['compiled_fraction']:.1%}, "
          f"columnar coverage {payload['columnar_fraction']:.1%}")

    failures = check(payload, update_baseline=args.update_baseline)
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
