"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    The prebuilt paper models and their Bugtraq identities.
``stats``
    Figure 1's category breakdown and the 22% studied-family share.
``table1``
    The category-ambiguity demonstration.
``model NAME``
    Render a model (ASCII by default, ``--dot`` for Graphviz,
    ``--json`` for the structural serialization).
``trace NAME``
    Run the model's exploit (or ``--benign``) and print the trace.
    ``trace export OUT.json --input EVENTS.jsonl`` instead converts a
    telemetry JSONL file (``--trace-file`` / ``repro serve
    --trace-file``) into Chrome trace-event JSON for
    ``chrome://tracing`` / Perfetto.
``foil NAME``
    The single-activity fixes that stop the model's exploit.
``statespace NAME``
    Unroll the model, report reachability, exploit paths, and the cut
    set (``--dot`` for the graph).
``table2``
    The generic pFSM type grid.
``discover``
    Re-run the §5.1 sweep that found Bugtraq #6255.
``sweep``
    Hidden-path sweep across every bundled model via the batched sweep
    engine (``--json`` for a machine-readable report).  ``--backend
    {thread,process,cluster}`` selects the executor — thread (the
    default) runs every task inline; process runs on the chunked
    scheduler in ``repro.core.dist`` with ``--workers N`` processes;
    cluster starts a coordinator (``--listen
    HOST:PORT``, optionally ``--wait-workers N`` / ``--lease-timeout
    S``) and fans chunks out to ``repro worker`` agents — and
    ``--resume-from PATH`` reuses results recorded in a JSONL store
    keyed by model fingerprint and predicate-spec hash (with every
    backend; process and cluster append chunk by chunk, so a killed
    sweep resumes).  ``--explain`` prints each task's chosen scan
    strategy and estimated cost (the decisions of the
    planner in ``repro.core.plan``; also the ``plans`` block of
    ``--json``), with tasks served whole from the dist fingerprint memo
    tagged ``memo``; ``--no-plan`` disables the predicate compiler for
    the run.  ``--fail-on-witness`` exits nonzero when
    any hidden-path witness is found, so CI can gate on "no hidden
    paths".
``serve``
    Run the long-lived analysis service (``repro.serve``): bounded
    admission queue (``--max-depth``), work-conserving micro-batching
    (``--max-batch``) with each batch run inline on one executor
    thread, an optional JSONL result store (``--store``), and a graceful
    SIGTERM/SIGINT drain.  ``GET /healthz`` and ``GET /metrics``
    (Prometheus text; ``/metrics.json`` for the JSON snapshot) answer
    on the same port.  ``--trace`` turns on end-to-end request tracing
    (``--trace-sample``/``--trace-slow-ms`` tune head sampling and the
    tail slow-keep rule); ``--latency-buckets`` overrides the stage
    histogram bounds.
``query``
    Client for ``repro serve``: query one or more models (or ``all``)
    with per-request ``--deadline-ms``; ``--metrics`` prints the
    server's metrics snapshot instead.  ``--trace`` asks a tracing
    server for the per-request stage timeline and prints it.
    ``--connect-timeout SECONDS`` bounds connection establishment — a
    down server exits 2 with a clear message instead of hanging for
    the OS default.  Exit code 0 = all ok, 2 = at least one request
    was shed (overloaded/timeout/draining) or the server was
    unreachable under ``--connect-timeout``, 1 = error.
``worker``
    Cluster worker agents (``repro worker --connect HOST:PORT``): fork
    ``--workers N`` single-slot agents that claim sweep chunks from a
    coordinator (``repro sweep --backend cluster --listen``), execute
    them, and stream results and trace spans back.  Leases held by an
    agent that dies are reclaimed and its chunks re-executed elsewhere;
    an agent stopped by ``--chunk-timeout`` is replaced; see
    ``repro.cluster``.

Every subcommand also understands the telemetry flags:

``--profile``
    Record spans/counters during the command and print a
    human-readable summary (span aggregates, counters, interval
    fast-path and compiled-program coverage) afterwards.  ``--profile-sort``
    orders the span table by total, self, or count.
``--trace-file PATH``
    Write every telemetry event as one JSON line to ``PATH``, ending
    with a ``{"type": "summary"}`` counter snapshot.

``repro --version`` prints the package version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from .bugtraq import (
    BugtraqDatabase,
    figure1_breakdown,
    remote_share,
    studied_family_share,
    table1_ambiguity,
)
from .core import (
    build_state_space,
    minimal_foil_points,
    model_to_json,
    render_model,
    to_dot,
)
from .models import (
    all_extended_benign_inputs as all_benign_inputs,
    all_extended_exploit_inputs as all_exploit_inputs,
    all_extended_models as all_paper_models,
    all_extended_pfsm_domains as all_pfsm_domains,
    table2_grid,
)
from .core.sweep import BACKENDS
from .serve.corpus import MODEL_KEYS as _MODEL_KEYS

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """argparse type for flags that must be strictly positive."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _hedge_spec(text: str):
    """argparse type for --hedge-after: seconds, or the literal 'p95'."""
    if text == "p95":
        return text
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected seconds or 'p95', got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("hedge delay must be >= 0")
    return value


def _resolve(key: str):
    label = _MODEL_KEYS.get(key)
    if label is None:
        raise SystemExit(
            f"unknown model {key!r}; choose from: {', '.join(_MODEL_KEYS)}"
        )
    return label, all_paper_models()[label]


def _cmd_list(_args: argparse.Namespace) -> int:
    models = all_paper_models()
    for key, label in _MODEL_KEYS.items():
        model = models[label]
        ids = ", ".join(f"#{i}" for i in model.bugtraq_ids) or "n/a"
        print(f"{key:<10} {label:<45} Bugtraq {ids:<14} "
              f"{model.pfsm_count} pFSMs")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db = BugtraqDatabase.synthetic(total=args.total)
    print(f"Figure 1 — breakdown of {len(db)} reports")
    for row in figure1_breakdown(db):
        print(f"  {row}")
    count, share = studied_family_share(db)
    print(f"\nstudied family: {count} reports ({share:.1%}); paper: 22%")
    remote_count, remote_frac = remote_share(db)
    print(f"remotely exploitable: {remote_count} reports ({remote_frac:.1%})")
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    for row in table1_ambiguity():
        print(f"#{row.bugtraq_id}: {row.description}")
        print(f"    anchor: {row.elementary_activity.value}")
        print(f"    category: {row.anchored_category.value}")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    _label, model = _resolve(args.name)
    if args.dot:
        print(to_dot(model))
    elif args.json:
        print(model_to_json(model))
    else:
        print(render_model(model))
    return 0


def _trace_export(args: argparse.Namespace) -> int:
    """``repro trace export OUT.json --input EVENTS.jsonl``."""
    from .obs.trace import chrome_payload, load_trace_events

    if not args.output:
        raise SystemExit("trace export: missing output path "
                         "(repro trace export OUT.json --input FILE)")
    if not args.input:
        raise SystemExit("trace export: --input FILE is required "
                         "(a --trace-file telemetry JSONL)")
    try:
        spans, skipped = load_trace_events(args.input)
    except OSError as exc:
        raise SystemExit(f"trace export: cannot read {args.input}: {exc}")
    payload = chrome_payload(spans)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {len(payload['traceEvents'])} trace events to "
          f"{args.output} ({skipped} non-span lines skipped)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.name == "export":
        return _trace_export(args)
    label, model = _resolve(args.name)
    inputs = all_benign_inputs() if args.benign else all_exploit_inputs()
    result = model.run(inputs[label])
    if args.json:
        from .core import result_to_dict

        print(json.dumps(result_to_dict(result), indent=2, default=str))
    else:
        print(result.trace.to_text())
        verdict = "COMPROMISED" if result.compromised and \
            result.hidden_path_count else "safe"
        print(f"\nverdict: {verdict} "
              f"({result.hidden_path_count} hidden transitions)")
    return 0


def _cmd_foil(args: argparse.Namespace) -> int:
    label, model = _resolve(args.name)
    exploit = all_exploit_inputs()[label]
    points = minimal_foil_points(model, exploit)
    if not points:
        print("input does not compromise the model; nothing to foil")
        return 0
    print(f"single-activity fixes that foil the exploit of {label}:")
    for point in points:
        print(f"  - {point}")
    return 0


def _cmd_statespace(args: argparse.Namespace) -> int:
    label, model = _resolve(args.name)
    domains = all_pfsm_domains()[label]
    space = build_state_space(model, domains)
    if args.dot:
        print(space.to_dot())
        return 0
    print(f"state space of {label}: {space.node_count} nodes, "
          f"{space.edge_count} edges, {len(space.hidden_edges())} hidden")
    print(f"compromise reachable via hidden paths: "
          f"{space.compromise_reachable()}")
    print(f"benign completion possible: {space.benign_path_exists()}")
    paths = space.exploit_paths(limit=10)
    print(f"distinct exploit paths (≤10 shown): {len(paths)}")
    cut = space.cut_set()
    print("cut set (checks whose installation disconnects the exploit):")
    for edge in cut:
        operation, pfsm = space.edge_owner(edge)
        print(f"  - {pfsm} in {operation!r}")
    return 0


def _memo_resolved_tasks(models: dict, domains: dict, limit: int) -> set:
    """Task identities already resolved by the dist fingerprint memo
    (probed *before* the sweep runs — these tasks will not execute any
    scan, so the strategy table tags them ``memo`` instead of reporting
    a strategy that never ran)."""
    from .core import dist

    resolved = set()
    for label, model in models.items():
        model_domains = domains.get(label, {})
        for operation, pfsm in model.all_pfsms():
            domain = model_domains.get(pfsm.name)
            if domain is None:
                continue
            try:
                key = dist.task_key(
                    model, (model.name, operation.name, pfsm, domain,
                            limit))
                if key is not None and dist.memo_lookup(key)[0]:
                    resolved.add((model.name, operation.name, pfsm.name))
            except Exception:
                continue
    return resolved


def _plan_rows(models: dict, domains: dict, limit: int,
               memo_resolved: set = frozenset()) -> list:
    """Per-task planner decisions (``repro sweep --explain`` / the
    ``plans`` block of ``--json``).  Tasks in ``memo_resolved`` get a
    ``memo`` strategy row — they were served whole from the dist
    fingerprint memo and never scanned."""
    from .core import plan as _plan

    rows = []
    for label, model in models.items():
        model_domains = domains.get(label, {})
        for operation, pfsm in model.all_pfsms():
            domain = model_domains.get(pfsm.name)
            if domain is None:
                continue
            if (model.name, operation.name, pfsm.name) in memo_resolved:
                rows.append({
                    "model": model.name, "operation": operation.name,
                    "pfsm": pfsm.name, "strategy": "memo",
                    "est_cost": 0.0, "objects": 0, "reason":
                    "resolved from the dist fingerprint memo "
                    "(no scan executed)", "tag": "memo",
                })
                continue
            try:
                info = _plan.describe_plan(pfsm, domain, limit=limit)
            except Exception:
                continue
            rows.append({"model": model.name, "operation": operation.name,
                         "pfsm": pfsm.name, **info})
    return rows


def _faults_block() -> Optional[Dict[str, object]]:
    """The ambient fault plan's injection counts (for --json payloads),
    or ``None`` when injection is off."""
    from . import faults

    return faults.snapshot()


def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import obs
    from .core import sweep_models
    from .core import plan as _plan

    models = all_paper_models()
    domains = all_pfsm_domains()
    # Counters are recorded even without --profile so the strategy
    # breakdown below covers exactly this sweep (delta, not absolute).
    registry = obs.get_registry()
    owned_registry = not registry.enabled
    if owned_registry:
        registry.enable()  # counters only; no sink attached
    before = registry.counters()
    if args.no_plan:
        _plan.set_enabled(False)
    # Probed before the sweep: these tasks resolve whole from the dist
    # fingerprint memo and never reach a scan strategy.
    memo_resolved = (set() if args.no_plan else
                     _memo_resolved_tasks(models, domains, args.limit))
    coordinator = None
    cluster_snapshot = None
    if args.backend == "cluster":
        from . import cluster as _cluster
        from .cluster.protocol import parse_address

        if not args.listen:
            raise SystemExit(
                "--backend cluster requires --listen HOST:PORT (the "
                "coordinator address workers connect to)")
        try:
            listen_host, listen_port = parse_address(args.listen,
                                                     flag="--listen")
        except ValueError as exc:
            raise SystemExit(str(exc))
        coordinator = _cluster.ClusterCoordinator(
            listen_host, listen_port, lease_timeout=args.lease_timeout)
        coordinator.start()
        # Operational chatter goes to stderr under --json so the JSON
        # document on stdout stays parseable.
        announce = sys.stderr if args.json else sys.stdout
        print(f"cluster coordinator listening on "
              f"{coordinator.address[0]}:{coordinator.port} "
              f"(lease timeout {args.lease_timeout:.1f}s)",
              file=announce, flush=True)
        if args.wait_workers:
            if not coordinator.wait_for_workers(
                    args.wait_workers, timeout=args.wait_timeout):
                coordinator.close()
                raise SystemExit(
                    f"timed out after {args.wait_timeout:.0f}s waiting "
                    f"for {args.wait_workers} worker(s) on "
                    f"{coordinator.address[0]}:{coordinator.port}")
            print(f"{coordinator.worker_count()} worker(s) joined",
                  file=announce, flush=True)
        _cluster.set_coordinator(coordinator)
    try:
        sweeps = sweep_models(
            models,
            domains,
            limit=args.limit,
            workers=args.workers,
            mode=args.backend,
            resume_from=args.resume_from,
        )
        plans = ([] if args.no_plan else
                 _plan_rows(models, domains, args.limit, memo_resolved))
    finally:
        if coordinator is not None:
            from . import cluster as _cluster

            cluster_snapshot = coordinator.snapshot()
            _cluster.set_coordinator(None)
            coordinator.close()
        if args.no_plan:
            _plan.set_enabled(True)
        after = registry.counters()
        if owned_registry:
            registry.disable()
            if not before:
                registry.reset()  # leave no trace of the counting run
    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in set(after) | set(before)}
    scan_stats = {name: delta.get(f"sweep.scans.{name}", 0)
                  for name in ("fastpath", "columnar", "compiled", "plain")}
    scan_stats["memo"] = delta.get("dist.memo.hits", 0)
    plan_stats = {
        "enabled": not args.no_plan,
        "compiles": delta.get("plan.compiles", 0),
    }
    total = sum(len(sweep.findings) for sweep in sweeps)
    cluster_block = None
    if cluster_snapshot is not None:
        counters = cluster_snapshot["counters"]
        cluster_block = {
            "listen": args.listen,
            "workers_joined": counters.get("workers.joined", 0),
            "workers_lost": counters.get("workers.lost", 0),
            "chunks_claimed": counters.get("chunks.claimed", 0),
            "chunks_completed": counters.get("chunks.completed", 0),
            "chunks_reclaimed": counters.get("chunks.reclaimed", 0),
            "chunks_failed": counters.get("chunks.failed", 0),
            "tasks_inline": {
                key[len("dist.inline."):]: n for key, n in delta.items()
                if key.startswith("dist.inline.") and n},
            "bytes_shipped": counters.get("bytes.shipped", 0),
            "bytes_received": counters.get("bytes.received", 0),
        }
    # Present for every backend whenever --resume-from is given.
    resume_block = None if args.resume_from is None else {
        "resumed": delta.get("dist.resume.skips", 0),
        "stored": delta.get("dist.store.appended", 0),
    }
    # --fail-on-witness: CI gates on "no hidden paths" via the exit code.
    exit_code = 1 if args.fail_on_witness and total else 0
    if args.json:
        payload = {
            "models": [
                {
                    "model": sweep.model_name,
                    "vulnerable": sweep.vulnerable,
                    "findings": [
                        {
                            "operation": f.operation_name,
                            "pfsm": f.pfsm_name,
                            "activity": f.activity,
                            "witnesses": list(f.witnesses),
                        }
                        for f in sweep.findings
                    ],
                }
                for sweep in sweeps
            ],
            "scans": scan_stats,
            "plan": plan_stats,
            "plans": plans,
            "cluster": cluster_block,
            "resume": resume_block,
            "faults": _faults_block(),
            "settings": {
                "backend": args.backend,
                "workers": args.workers,
                "limit": args.limit,
                "plan": not args.no_plan,
            },
            "total_findings": total,
        }
        print(json.dumps(payload, indent=2, default=str))
        return exit_code
    if args.explain and plans:
        width = max(len(f"{r['model']}/{r['operation']}/{r['pfsm']}")
                    for r in plans)
        print("-- plans --")
        print(f"{'task':<{width}}  {'strategy':<9} {'est_cost':>10}  "
              f"reason")
        for row in plans:
            name = f"{row['model']}/{row['operation']}/{row['pfsm']}"
            print(f"{name:<{width}}  {row['strategy']:<9} "
                  f"{row['est_cost']:>10.1f}  {row['reason']}")
        print(f"plan: {plan_stats['compiles']} compiles\n")
    for sweep in sweeps:
        verdict = "VULNERABLE" if sweep.vulnerable else "clean"
        print(f"{sweep.model_name}: {verdict} "
              f"({len(sweep.findings)} hidden-path pFSMs)")
        for finding in sweep.findings:
            sample = finding.witnesses[0] if finding.witnesses else None
            print(f"  - {finding.operation_name}/{finding.pfsm_name} "
                  f"({finding.activity}): e.g. {sample!r}")
    print(f"\n{total} hidden-path findings across {len(sweeps)} models "
          f"(workers={args.workers or 1}, backend={args.backend})")
    print(f"scans: {scan_stats['fastpath']} interval, "
          f"{scan_stats['columnar']} columnar, "
          f"{scan_stats['compiled']} compiled, "
          f"{scan_stats['plain']} plain"
          + (f", {scan_stats['memo']} memo" if scan_stats["memo"] else ""))
    if cluster_block is not None:
        print(f"cluster: {cluster_block['workers_joined']} workers joined "
              f"({cluster_block['workers_lost']} lost), "
              f"{cluster_block['chunks_completed']} chunks completed "
              f"({cluster_block['chunks_reclaimed']} reclaimed), "
              f"{sum(cluster_block['tasks_inline'].values())} tasks "
              f"inline, {cluster_block['bytes_shipped']} bytes shipped")
    if exit_code:
        print("failing: hidden-path witnesses found (--fail-on-witness)")
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import AnalysisServer, ServeConfig

    buckets = None
    if args.latency_buckets:
        try:
            buckets = tuple(sorted(float(part) for part in
                                   args.latency_buckets.split(",") if part))
        except ValueError:
            raise SystemExit("--latency-buckets expects comma-separated "
                             "floats, e.g. 0.005,0.05,0.5,5")
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            max_depth=args.max_depth,
            max_batch=args.max_batch,
            store_path=args.store,
            # --trace-file alone implies tracing: the JsonlSink attached
            # by _run_with_observability captures the spans, and the
            # collector must exist for traceparent continuation /
            # per-request timelines to work.
            trace=args.trace or bool(args.trace_file),
            trace_sample=args.trace_sample,
            trace_slow_ms=args.trace_slow_ms,
            latency_buckets=buckets,
        )
    except ValueError as exc:  # a usage error: exit 2, no traceback
        print(f"repro serve: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    server = AnalysisServer(config)
    server.start()
    print(f"repro serve listening on {server.host}:{server.port} "
          f"(depth={config.max_depth}, "
          f"store={config.store_path or 'none'}, "
          f"trace={'on' if config.trace else 'off'})", flush=True)
    server.install_signal_handlers()
    server.serve_until_stopped()
    served = server.stats.counter("requests.query")
    shed = server.stats.counter("shed.overload") + \
        server.stats.counter("shed.deadline") + \
        server.stats.counter("shed.draining")
    print(f"drained cleanly: {served} queries served, {shed} shed, "
          f"{server.stats.counter('coalesced')} coalesced, "
          f"{server.stats.counter('requests.cached')} cache-answered")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import importlib

    from .cluster.protocol import parse_address
    from .cluster.worker import ClusterWorker, WorkerConnectError, supervise

    try:
        host, port = parse_address(args.connect, flag="--connect")
    except ValueError as exc:
        raise SystemExit(str(exc))
    # Imported once here; every forked agent inherits the registrations.
    for spec in args.preload:
        for module in filter(None, spec.split(",")):
            importlib.import_module(module)

    def agent() -> ClusterWorker:
        worker = ClusterWorker(
            host, port, connect_timeout=args.connect_timeout,
            poll_interval=args.poll_ms / 1000.0,
            chunk_timeout=args.chunk_timeout)
        worker.connect()
        return worker

    print(f"repro worker connecting {args.workers} agent(s) to "
          f"{host}:{port}", flush=True)
    try:
        return supervise(args.workers, agent)
    except WorkerConnectError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_query(args: argparse.Namespace) -> int:
    from .serve import SHED_STATUSES, STATUS_OK
    from .serve.client import ServeClient

    keys = list(_MODEL_KEYS) if args.models == ["all"] else args.models
    saw_shed = saw_error = False
    try:
        client = ServeClient(args.host, args.port, timeout=args.timeout,
                             connect_timeout=args.connect_timeout,
                             retries=args.retries,
                             hedge_after=args.hedge_after)
    except (OSError, ConnectionError) as exc:
        if args.connect_timeout is not None:
            print(f"cannot connect to repro serve at "
                  f"{args.host}:{args.port} within "
                  f"{args.connect_timeout:.1f}s: {exc}", file=sys.stderr)
            return 2
        print(f"cannot reach repro serve at {args.host}:{args.port}: "
              f"{exc}", file=sys.stderr)
        return 1
    try:
        with client:
            if args.metrics:
                print(json.dumps(client.metrics(), indent=2))
                return 0
            for key in keys:
                response = client.query(key, limit=args.limit,
                                        deadline_ms=args.deadline_ms,
                                        trace=args.trace,
                                        traceparent=args.traceparent)
                status = response.get("status")
                saw_shed |= status in SHED_STATUSES
                saw_error |= status not in SHED_STATUSES and \
                    status != STATUS_OK
                if args.json:
                    print(json.dumps(response))
                    continue
                if status != STATUS_OK:
                    print(f"{key}: {status} "
                          f"({response.get('error', 'no detail')})")
                    continue
                verdict = ("VULNERABLE" if response["vulnerable"]
                           else "clean")
                origin = ("cached" if response.get("cached")
                          else "coalesced" if response.get("coalesced")
                          else "computed")
                print(f"{response['model_name']}: {verdict} "
                      f"({len(response['findings'])} hidden-path pFSMs, "
                      f"{origin}, {response.get('elapsed_ms', '?')} ms)")
                for finding in response["findings"]:
                    sample = (finding["witnesses"][0]
                              if finding["witnesses"] else None)
                    print(f"  - {finding['operation']}/{finding['pfsm']} "
                          f"({finding['activity']}): e.g. {sample!r}")
                if args.trace and response.get("trace"):
                    print(f"  trace {response.get('trace_id', '?')}:")
                    for row in response["trace"]:
                        remote = " [worker]" if row.get("remote") else ""
                        print(f"    {row['offset_ms']:>9.3f} ms  "
                              f"{row['name']:<20} "
                              f"{row['duration_ms']:>9.3f} ms{remote}")
    except (OSError, ConnectionError) as exc:
        print(f"cannot reach repro serve at {args.host}:{args.port}: "
              f"{exc}", file=sys.stderr)
        return 1
    resilience = client.resilience_stats()
    if resilience["request_retries"] or resilience["hedges"]:
        print(f"client resilience: {resilience['request_retries']} "
              f"retried request(s), {resilience['hedges']} hedge(s) "
              f"({resilience['hedge_wins']} won)", file=sys.stderr)
    if saw_error:
        return 1
    return 2 if saw_shed else 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    from .models import all_paper_models as paper_seven

    for cell in table2_grid(paper_seven()):
        print(f"{cell.vulnerability:<45} {cell.pfsm_name:<6} "
              f"{cell.check_type.value}")
    return 0


def _cmd_discover(_args: argparse.Namespace) -> int:
    from .apps import NullHttpdVariant
    from .core import DiscoveryEngine
    from .models import nullhttpd_model

    activities, domains = nullhttpd_model.discovery_activities(
        NullHttpdVariant.V0_5_1)
    findings = DiscoveryEngine(known_vulnerable=["pFSM1"]).sweep_probed(
        nullhttpd_model.OPERATION_1, activities, domains)
    print("discovery sweep over NULL HTTPD 0.5.1:")
    for finding in findings:
        print(f"  {finding}")
    if not findings:
        print("  (no findings)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="pFSM vulnerability modeling (Chen et al., DSN 2003)",
    )
    from . import __version__

    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")

    # Telemetry flags shared by every subcommand (as a parent parser, so
    # they are accepted after the subcommand: ``repro sweep --profile``).
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--profile", action="store_true",
        help="record telemetry and print a span/counter summary",
    )
    obs_flags.add_argument(
        "--profile-sort", choices=("total", "self", "count"),
        default="total",
        help="order the --profile span table by total time, self time "
             "(total minus child spans), or call count",
    )
    obs_flags.add_argument(
        "--trace-file", metavar="PATH", default=None,
        help="write telemetry events to PATH as JSON lines",
    )
    obs_flags.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="deterministic fault injection (repro.faults), e.g. "
             "'seed=7;cluster.send.drop:0.01;worker.chunk.hang:1@max=1"
             "@ms=500'; also read from the REPRO_FAULTS environment "
             "variable and exported to spawned workers",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the prebuilt paper models",
                   parents=[obs_flags]).set_defaults(fn=_cmd_list)

    stats = sub.add_parser("stats", help="Figure 1 statistics",
                           parents=[obs_flags])
    stats.add_argument("--total", type=int, default=5925)
    stats.set_defaults(fn=_cmd_stats)

    sub.add_parser("table1", help="Table 1 category ambiguity",
                   parents=[obs_flags]).set_defaults(fn=_cmd_table1)

    model = sub.add_parser("model", help="render a model",
                           parents=[obs_flags])
    model.add_argument("name")
    model.add_argument("--dot", action="store_true")
    model.add_argument("--json", action="store_true")
    model.set_defaults(fn=_cmd_model)

    trace = sub.add_parser(
        "trace",
        help="run a model and print the trace; 'trace export OUT.json "
             "--input EVENTS.jsonl' converts telemetry to Chrome "
             "trace-event JSON",
        parents=[obs_flags])
    trace.add_argument("name",
                       help="model key, or 'export' to convert a "
                            "telemetry JSONL file")
    trace.add_argument("output", nargs="?", default=None,
                       help="(export only) Chrome trace-event JSON "
                            "output path")
    trace.add_argument("--input", metavar="PATH", default=None,
                       help="(export only) telemetry JSONL to convert "
                            "(a --trace-file)")
    trace.add_argument("--benign", action="store_true")
    trace.add_argument("--json", action="store_true")
    trace.set_defaults(fn=_cmd_trace)

    foil = sub.add_parser("foil", help="single-activity foil points",
                          parents=[obs_flags])
    foil.add_argument("name")
    foil.set_defaults(fn=_cmd_foil)

    space = sub.add_parser("statespace", help="unrolled graph analysis",
                           parents=[obs_flags])
    space.add_argument("name")
    space.add_argument("--dot", action="store_true")
    space.set_defaults(fn=_cmd_statespace)

    sub.add_parser("table2", help="the generic pFSM type grid",
                   parents=[obs_flags]).set_defaults(fn=_cmd_table2)

    sub.add_parser("discover", help="re-run the §5.1 sweep (#6255)",
                   parents=[obs_flags]).set_defaults(fn=_cmd_discover)

    sweep = sub.add_parser(
        "sweep", help="hidden-path sweep across all bundled models",
        parents=[obs_flags],
    )
    sweep.add_argument("--backend", choices=BACKENDS,
                       default="thread",
                       help="execution backend for the sweep tasks "
                            "(process uses the chunked scheduler in "
                            "repro.core.dist; cluster dispatches its "
                            "chunks to repro worker agents over TCP — "
                            "see --listen)")
    sweep.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="(cluster backend) start the coordinator on "
                            "this address; workers join with "
                            "`repro worker --connect HOST:PORT`")
    sweep.add_argument("--wait-workers", type=_positive_int, default=None,
                       metavar="N",
                       help="(cluster backend) wait for N workers to "
                            "join before sweeping (without it, a sweep "
                            "that finds no worker runs in the parent)")
    sweep.add_argument("--wait-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="how long --wait-workers waits before "
                            "giving up (default 30)")
    sweep.add_argument("--lease-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="(cluster backend) seconds a claimed chunk "
                            "may go un-renewed before it is reclaimed "
                            "from its worker (default 10)")
    sweep.add_argument("--resume-from", metavar="PATH", default=None,
                       help="JSONL result store; previously computed "
                            "(model fingerprint, predicate-spec) results "
                            "are reused and new ones appended — chunk by "
                            "chunk on the process and cluster backends, "
                            "so a killed sweep re-run with the same store "
                            "re-executes only what never landed")
    sweep.add_argument("--workers", type=_positive_int, default=None,
                       metavar="N",
                       help="worker processes of the process backend, "
                            "chunking width of the cluster backend (the "
                            "thread backend runs inline)")
    sweep.add_argument("--limit", type=_positive_int, default=5,
                       metavar="N",
                       help="max witnesses recorded per pFSM")
    sweep.add_argument("--explain", action="store_true",
                       help="print each task's chosen scan strategy "
                            "and estimated cost (the planner's "
                            "decisions; also in --json as the 'plans' "
                            "block)")
    sweep.add_argument("--no-plan", action="store_true",
                       help="disable the predicate compiler / planner "
                            "for this sweep (scalar strategies only)")
    sweep.add_argument("--fail-on-witness", action="store_true",
                       help="exit nonzero if any hidden-path witness is "
                            "found (CI gate)")
    sweep.add_argument("--json", action="store_true")
    sweep.set_defaults(fn=_cmd_sweep)

    serve = sub.add_parser(
        "serve", help="run the long-lived analysis service (repro.serve)",
        parents=[obs_flags],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7337,
                       help="TCP port (0 picks an ephemeral port, "
                            "announced on stdout)")
    serve.add_argument("--max-depth", type=int, default=64,
                       help="admission queue bound; overflow is answered "
                            "with status 'overloaded'")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="max queued requests folded into one engine "
                            "dispatch (dispatch never waits to fill it)")
    serve.add_argument("--store", metavar="PATH", default=None,
                       help="JSONL result store: loaded into the result "
                            "memo at start-up, appended to as results are "
                            "computed (compatible with repro sweep "
                            "--resume-from)")
    serve.add_argument("--trace", action="store_true",
                       help="end-to-end request tracing: mint/accept a "
                            "W3C traceparent per request and reassemble "
                            "admission/batch/chunk/worker spans into one "
                            "trace (also implied by --trace-file)")
    serve.add_argument("--trace-sample", type=float, default=1.0,
                       metavar="FRACTION",
                       help="head-sampling rate for trace retention "
                            "(spans still export; 1.0 keeps every trace)")
    serve.add_argument("--trace-slow-ms", type=float, default=None,
                       metavar="MS",
                       help="tail-keep: always retain traces slower than "
                            "MS even when head sampling dropped them "
                            "(shed/error/witness-bearing traces are "
                            "always kept)")
    serve.add_argument("--latency-buckets", metavar="BOUNDS", default=None,
                       help="comma-separated histogram bucket bounds in "
                            "seconds for the /metrics stage histograms")
    serve.set_defaults(fn=_cmd_serve)

    query = sub.add_parser(
        "query", help="query a running repro serve instance",
        parents=[obs_flags],
    )
    query.add_argument("models", nargs="*", default=["all"],
                       help="model keys to query (default: all)")
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7337)
    query.add_argument("--limit", type=int, default=5,
                       help="max witnesses per pFSM")
    query.add_argument("--deadline-ms", type=float, default=None,
                       help="shed the request (status 'timeout') if it is "
                            "still queued after this many milliseconds")
    query.add_argument("--timeout", type=float, default=60.0,
                       help="client socket timeout in seconds")
    query.add_argument("--connect-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="total budget for connection establishment "
                            "(attempts retry with backoff inside it, so "
                            "a server that is still binding connects on "
                            "a later try); exits 2 with a clear message "
                            "once the budget is spent")
    query.add_argument("--retries", type=int, default=2, metavar="N",
                       help="retry idempotent requests up to N times on "
                            "connection errors, reconnecting between "
                            "attempts (default 2; 0 disables)")
    query.add_argument("--hedge-after", metavar="SECONDS|p95",
                       type=_hedge_spec, default=None,
                       help="send a duplicate of a slow query on a "
                            "second connection after this many seconds "
                            "('p95' derives the delay from observed "
                            "latencies); first response wins")
    query.add_argument("--metrics", action="store_true",
                       help="print the server metrics snapshot and exit")
    query.add_argument("--trace", action="store_true",
                       help="request the per-request stage timeline "
                            "(server must run with tracing enabled)")
    query.add_argument("--traceparent", metavar="HEADER", default=None,
                       help="join an existing W3C trace "
                            "(00-<32 hex>-<16 hex>-<2 hex>)")
    query.add_argument("--json", action="store_true")
    query.set_defaults(fn=_cmd_query)

    worker = sub.add_parser(
        "worker",
        help="run cluster worker agents: claim sweep chunks from a "
             "coordinator (repro sweep --listen) and execute them in "
             "forked single-slot processes",
        parents=[obs_flags],
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator to serve")
    worker.add_argument("--workers", type=_positive_int, default=2,
                        help="agent processes to fork, one execution slot "
                             "each")
    worker.add_argument("--connect-timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="exit 2 if the coordinator cannot be reached "
                             "within SECONDS (also the reconnect patience "
                             "once connected; default 10)")
    worker.add_argument("--poll-ms", type=float, default=50.0,
                        metavar="MS",
                        help="idle claim-poll interval (default 50)")
    worker.add_argument("--chunk-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="hard per-chunk execution deadline: a chunk "
                             "still running after SECONDS is reported as "
                             "failed (the coordinator's bounded retries "
                             "take over) and its agent exits, killing the "
                             "scan; a fresh agent replaces it; default: "
                             "no deadline")
    worker.add_argument("--preload", action="append", metavar="MODULE",
                        default=[],
                        help="import MODULE before executing (registers "
                             "application named predicates; repeatable, "
                             "comma-separable)")
    worker.set_defaults(fn=_cmd_worker)

    return parser


def _run_with_observability(args: argparse.Namespace) -> int:
    """Execute a subcommand with the telemetry registry live, then
    report (``--profile``) and/or persist (``--trace-file``)."""
    from . import obs

    registry = obs.get_registry()
    sinks = []
    reporter = jsonl = None
    if args.profile:
        reporter = obs.ConsoleReporter()
        sinks.append(reporter)
    if args.trace_file:
        jsonl = obs.JsonlSink(args.trace_file)
        sinks.append(jsonl)
    registry.enable(*sinks)
    try:
        code = args.fn(args)
    finally:
        registry.disable()
        if jsonl is not None:
            jsonl.write_summary(registry)
            jsonl.close()
        if reporter is not None:
            reporter.report(registry,
                            sort=getattr(args, "profile_sort", "total"))
        registry.clear_sinks()
        registry.reset()
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    from . import faults

    spec = getattr(args, "faults", None) or os.environ.get(faults.ENV_VAR)
    if spec:
        try:
            faults.install(faults.parse_spec(spec))
        except faults.FaultSpecError as exc:
            print(f"invalid --faults spec: {exc}", file=sys.stderr)
            return 2
        # Processes started from this one inherit the same plan through
        # the environment.
        os.environ[faults.ENV_VAR] = spec
    if getattr(args, "profile", False) or getattr(args, "trace_file", None):
        return _run_with_observability(args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
