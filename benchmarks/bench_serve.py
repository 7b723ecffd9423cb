"""Benchmark of the ``repro.serve`` analysis service.

Four scenarios, each asserting the serving contract and all written to
the ``--json`` payload, which CI uploads as the ``BENCH_serve``
artifact (no copy is committed):

* **throughput** — 8 concurrent clients replay a duplicate-heavy
  request mix against one warm server (a synchronized cold burst first,
  so identical requests are genuinely in flight together).  Acceptance:
  every response correct (spot-checked against a direct
  ``sweep_model``), coalesce rate > 0, cache hit rate reported, and
  client-side p50/p95 latency recorded.
* **overload** — a deliberately tiny admission queue (depth 2, one
  request per dispatch) behind a slowed engine, hit by 10 clients with
  30 distinct requests.  Acceptance: queue overflow yields explicit
  ``overloaded`` responses, *every* request gets an answer, and shed
  responses return fast (admission control refuses in microseconds —
  it never queues the refusal behind the backlog).
* **tracing overhead** — cold compute requests (distinct model × limit
  pairs, the process-wide result memo cleared before each request so
  every request pays the full pipeline) replayed against fresh
  untraced and traced servers, plus
  an all-cache-hit replay for the fixed per-request tracer cost.
  Acceptance: traced end-to-end overhead under 5%, and every traced
  request reassembled into a retained trace.
* **drain** — a real ``repro serve`` subprocess under continuous load
  from 6 clients receives SIGTERM mid-flight.  Acceptance: zero dropped
  responses — every request sent is answered (``ok`` or an explicit
  ``draining`` refusal), and the server exits 0 after a clean drain.

Run: ``python benchmarks/bench_serve.py --json BENCH_serve.json`` (the
CI serve-smoke target; exits non-zero if any acceptance check fails).
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.sweep import sweep_model  # noqa: E402
from repro.models import all_extended_models  # noqa: E402
from repro.models import all_extended_pfsm_domains  # noqa: E402
from repro.serve import (  # noqa: E402
    MODEL_KEYS,
    ServeClient,
    ServeConfig,
    ServerThread,
    wait_until_ready,
)
from repro.serve.stats import nearest_rank  # noqa: E402

CLIENTS = 8
REQUESTS_PER_CLIENT = 25
#: Duplicate-heavy replay mix: four models, two limits, so 8 distinct
#: requests cover 200 total — the shape of a dashboard polling a corpus.
MIX = [("sendmail", 5), ("nullhttpd", 5), ("sendmail", 3), ("iis", 5),
       ("sendmail", 5), ("xterm", 3), ("nullhttpd", 5), ("sendmail", 5)]


def _reference_response():
    """What the engine says directly (no server) about the cold-burst
    query — the correctness oracle for scenario A."""
    label = MODEL_KEYS["sendmail"]
    model = all_extended_models()[label]
    domains = all_extended_pfsm_domains()[label]
    swept = sweep_model(model, domains, limit=5)
    return [(f.pfsm_name, len(f.witnesses)) for f in swept.findings]


def bench_throughput():
    """Scenario A: concurrent duplicate-heavy replay against one server."""
    store = tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False)
    store.close()
    os.unlink(store.name)
    handle = ServerThread(ServeConfig(port=0, store_path=store.name)).start()
    latencies = []
    latency_lock = threading.Lock()
    errors = []
    try:
        # Cold synchronized burst: 8 identical queries in flight at
        # once — the single-flight path must collapse them to one
        # engine dispatch.
        barrier = threading.Barrier(CLIENTS)
        burst = []

        def cold(slot):
            with ServeClient(handle.host, handle.port) as client:
                barrier.wait()
                burst.append(client.query("sendmail", limit=5))

        threads = [threading.Thread(target=cold, args=(slot,))
                   for slot in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        coalesced_burst = sum(1 for r in burst if r.get("coalesced"))

        reference = _reference_response()
        for response in burst:
            got = [(f["pfsm"], len(f["witnesses"]))
                   for f in response["findings"]]
            if response["status"] != "ok" or got != reference:
                errors.append(f"burst mismatch: {response}")

        # Warm replay: every client walks the mix from its own offset,
        # so duplicates overlap across clients and across time.
        def replay(slot):
            with ServeClient(handle.host, handle.port) as client:
                for i in range(REQUESTS_PER_CLIENT):
                    model, limit = MIX[(slot + i) % len(MIX)]
                    started = time.perf_counter()
                    response = client.query(model, limit=limit)
                    elapsed = time.perf_counter() - started
                    if response["status"] != "ok":
                        errors.append(f"replay {model}: {response}")
                    with latency_lock:
                        latencies.append(elapsed)

        started = time.perf_counter()
        threads = [threading.Thread(target=replay, args=(slot,))
                   for slot in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started

        with ServeClient(handle.host, handle.port) as client:
            metrics = client.metrics()
    finally:
        handle.shutdown()
        if os.path.exists(store.name):
            os.unlink(store.name)

    requests = CLIENTS * REQUESTS_PER_CLIENT
    return {
        "clients": CLIENTS,
        "requests": requests + CLIENTS,  # replay + cold burst
        "distinct_requests": len(set(MIX)) + 1,
        "elapsed_s": round(elapsed, 4),
        "rps": round(requests / elapsed, 1),
        "latency_ms": {
            "p50": round(nearest_rank(sorted(latencies), 50) * 1000, 3),
            "p95": round(nearest_rank(sorted(latencies), 95) * 1000, 3),
            "max": round(max(latencies) * 1000, 3),
        },
        "server_latency_ms": metrics["latency"],
        "coalesced_in_cold_burst": coalesced_burst,
        "coalesce_rate": round(metrics["derived"]["coalesce_rate"], 4),
        "request_cache_hit_rate": round(
            metrics["derived"]["request_cache_hit_rate"], 4),
        "task_cache_hit_rate": round(
            metrics["derived"]["task_cache_hit_rate"], 4),
        "errors": errors,
    }


def bench_overload():
    """Scenario B: a tiny queue behind a slow engine must shed, answer
    everything, and keep refusals fast."""
    handle = ServerThread(ServeConfig(port=0, max_depth=2,
                                      max_batch=1)).start()
    # Slow the engine (not the connection threads) so the backlog
    # outlives the producers: admission control, not compute speed, is
    # under test.
    original = handle.server.batcher._compute_fn

    def slowed(tasks, keys):
        time.sleep(0.05)
        return original(tasks, keys)

    handle.server.batcher._compute_fn = slowed

    responses = []
    shed_latencies = []
    lock = threading.Lock()
    try:
        def fire(limit):
            started = time.perf_counter()
            with ServeClient(handle.host, handle.port) as client:
                response = client.query("sendmail", limit=limit)
            elapsed = time.perf_counter() - started
            with lock:
                responses.append(response)
                if response["status"] == "overloaded":
                    shed_latencies.append(elapsed)

        threads = []
        for wave in range(3):  # 3 waves x 10 clients, distinct limits
            wave_threads = [
                threading.Thread(target=fire, args=(1 + wave * 10 + i,))
                for i in range(10)
            ]
            threads.extend(wave_threads)
            for t in wave_threads:
                t.start()
        for t in threads:
            t.join()
    finally:
        handle.shutdown()

    statuses = [r["status"] for r in responses]
    return {
        "requests": len(responses),
        "queue_depth": 2,
        "ok": statuses.count("ok"),
        "overloaded": statuses.count("overloaded"),
        "unexpected": sorted(set(statuses) - {"ok", "overloaded"}),
        "all_answered": len(responses) == 30,
        "shed_latency_ms": {
            "p95": round(
                (nearest_rank(sorted(shed_latencies), 95) or 0) * 1000, 3),
        },
    }


TRACE_REPEATS = 3
TRACE_COMPUTE_REQUESTS = 24
TRACE_CACHED_REQUESTS = 240


def _compute_workload():
    """Distinct (model, limit) pairs: every request misses every cache
    tier and does real engine work — the workload the overhead gate is
    judged on (a request that is pure socket echo would hold any
    tracing system to single-microsecond budgets)."""
    models = ["sendmail", "nullhttpd", "iis", "xterm"]
    return [(models[i % len(models)], 3 + i)
            for i in range(TRACE_COMPUTE_REQUESTS)]


def _timed_compute_run(traced):
    """One fresh server, one cold pass over the compute workload.

    A fresh server per measurement keeps repeats identical: replaying
    the same pairs against a warm server would time the cache, not the
    engine.  Each server builds its own models, so every program is
    compiled anew.  The process-wide dist fingerprint memo outlives a
    server, and a held answer serves every limit it covers, so it is
    cleared before every request: without this most requests would be
    answered from the warm tier and skip the batch window entirely."""
    from repro.core import dist

    dist.clear_memo()
    config = ServeConfig(port=0, trace=True) if traced else \
        ServeConfig(port=0)
    handle = ServerThread(config).start()
    try:
        with ServeClient(handle.host, handle.port) as client:
            client.query("sendmail", limit=1)  # absorb first-request setup
            started = time.perf_counter()
            for model, limit in _compute_workload():
                dist.clear_memo()
                response = client.query(model, limit=limit, trace=traced)
                if response["status"] != "ok":
                    raise RuntimeError(f"trace bench: {response}")
            elapsed = time.perf_counter() - started
        stats = (dict(handle.server.tracer.stats())
                 if handle.server.tracer is not None else {})
    finally:
        handle.shutdown()
    return elapsed, stats


def _timed_cached_replay(handle, trace=False):
    """Warm sequential replay: every request answered from cache."""
    with ServeClient(handle.host, handle.port) as client:
        client.query("sendmail", limit=5)  # warm the caches
        started = time.perf_counter()
        for i in range(TRACE_CACHED_REQUESTS):
            model, limit = MIX[i % len(MIX)]
            response = client.query(model, limit=limit, trace=trace)
            if response["status"] != "ok":
                raise RuntimeError(f"trace bench: {response}")
        return time.perf_counter() - started


def bench_trace_overhead():
    """Scenario D: tracing overhead.

    Gate: best-of-repeats cold compute runs, traced vs untraced, must
    stay under 5% overhead; an untraced re-run gives the measurement
    noise floor (the disabled path is the seed code plus a branch).
    The cached-path (pure request/response echo) delta is reported for
    transparency but not gated — there tracing cost is a fixed ~tens
    of microseconds against a ~hundred-microsecond baseline.
    """
    compute = {}
    traced_stats = {}
    for label in ("off", "off_repeat", "traced"):
        best = None
        for _ in range(TRACE_REPEATS):
            elapsed, stats = _timed_compute_run(traced=(label == "traced"))
            best = elapsed if best is None else min(best, elapsed)
            if label == "traced":
                traced_stats = stats
        compute[label] = best

    cached = {}
    for label in ("off", "traced"):
        traced = label == "traced"
        config = ServeConfig(port=0, trace=True) if traced else \
            ServeConfig(port=0)
        handle = ServerThread(config).start()
        try:
            cached[label] = min(_timed_cached_replay(handle, trace=traced)
                                for _ in range(TRACE_REPEATS))
        finally:
            handle.shutdown()

    off, traced_s = compute["off"], compute["traced"]
    overhead_pct = (traced_s - off) / off * 100.0
    noise_pct = (compute["off_repeat"] - off) / off * 100.0
    cached_us = (cached["traced"] - cached["off"]) \
        / TRACE_CACHED_REQUESTS * 1e6
    return {
        "compute_requests": TRACE_COMPUTE_REQUESTS,
        "cached_requests": TRACE_CACHED_REQUESTS,
        "repeats": TRACE_REPEATS,
        "compute_best_s": {k: round(v, 4) for k, v in compute.items()},
        "trace_overhead_pct": round(overhead_pct, 2),
        "disabled_noise_pct": round(noise_pct, 2),
        "cached_best_s": {k: round(v, 4) for k, v in cached.items()},
        "cached_overhead_us_per_request": round(cached_us, 1),
        "collector": traced_stats,
    }


def bench_drain():
    """Scenario C: SIGTERM a live ``repro serve`` process under load —
    zero dropped responses, clean exit."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    sent = [0]
    answered = [0]
    statuses = {}
    dropped = [0]
    lock = threading.Lock()
    stop = threading.Event()

    def pound(slot):
        models = list(MODEL_KEYS)
        try:
            with ServeClient("127.0.0.1", port, timeout=30.0) as client:
                i = 0
                while True:
                    model = models[(slot + i) % len(models)]
                    with lock:
                        sent[0] += 1
                    response = client.query(model, limit=4)
                    with lock:
                        answered[0] += 1
                        status = response["status"]
                        statuses[status] = statuses.get(status, 0) + 1
                    if status == "draining":
                        return  # explicit refusal: stop cleanly
                    if stop.is_set() and status != "ok":
                        return
                    i += 1
        except (ConnectionError, OSError):
            with lock:
                dropped[0] += 1

    try:
        if not wait_until_ready("127.0.0.1", port, timeout=30.0):
            process.kill()
            raise RuntimeError("serve subprocess never became ready")
        threads = [threading.Thread(target=pound, args=(slot,))
                   for slot in range(6)]
        for t in threads:
            t.start()
        time.sleep(0.5)  # in-flight load established
        process.send_signal(signal.SIGTERM)
        stop.set()
        for t in threads:
            t.join(30.0)
        exit_code = process.wait(timeout=30.0)
        output = process.stdout.read()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    return {
        "clients": 6,
        "sent": sent[0],
        "answered": answered[0],
        "dropped": dropped[0],
        "statuses": statuses,
        "server_exit": exit_code,
        "drained_cleanly": "drained cleanly" in output,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the results payload to PATH")
    args = parser.parse_args(argv)

    print("scenario A: duplicate-heavy replay, 8 clients ...")
    throughput = bench_throughput()
    print(f"  {throughput['requests']} requests at {throughput['rps']} rps, "
          f"p50 {throughput['latency_ms']['p50']}ms "
          f"p95 {throughput['latency_ms']['p95']}ms, "
          f"coalesce rate {throughput['coalesce_rate']}, "
          f"request cache hit rate {throughput['request_cache_hit_rate']}")

    print("scenario B: overload (queue depth 2, slow engine) ...")
    overload = bench_overload()
    print(f"  {overload['requests']} requests → {overload['ok']} ok, "
          f"{overload['overloaded']} overloaded "
          f"(shed p95 {overload['shed_latency_ms']['p95']}ms)")

    print("scenario D: tracing overhead (off / off / traced) ...")
    trace_overhead = bench_trace_overhead()
    print(f"  {trace_overhead['compute_requests']} cold compute requests "
          f"best-of-{trace_overhead['repeats']}: "
          f"off {trace_overhead['compute_best_s']['off']}s, "
          f"traced {trace_overhead['compute_best_s']['traced']}s "
          f"(overhead {trace_overhead['trace_overhead_pct']}%, "
          f"disabled noise {trace_overhead['disabled_noise_pct']}%); "
          f"cached path +"
          f"{trace_overhead['cached_overhead_us_per_request']}µs/req")

    print("scenario C: SIGTERM drain under load ...")
    drain = bench_drain()
    print(f"  sent {drain['sent']}, answered {drain['answered']}, "
          f"dropped {drain['dropped']}, statuses {drain['statuses']}, "
          f"server exit {drain['server_exit']}")

    checks = {
        "responses_correct": not throughput["errors"],
        "coalesce_rate_positive": throughput["coalesce_rate"] > 0,
        "cache_hit_rate_reported":
            throughput["request_cache_hit_rate"] > 0,
        "overload_sheds_explicitly": overload["overloaded"] > 0,
        "overload_answers_everything": overload["all_answered"]
            and not overload["unexpected"],
        "drain_drops_nothing": drain["dropped"] == 0
            and drain["sent"] == drain["answered"],
        "drain_exits_clean": drain["server_exit"] == 0
            and drain["drained_cleanly"],
        "trace_overhead_under_5pct":
            trace_overhead["trace_overhead_pct"] < 5.0,
        "traces_reassembled": trace_overhead["collector"].get("kept", 0) > 0,
    }
    payload = {
        "benchmark": "serve",
        "throughput": throughput,
        "overload": overload,
        "trace_overhead": trace_overhead,
        "drain": drain,
        "checks": checks,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    failed = sorted(name for name, ok in checks.items() if not ok)
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
        return 1
    print("all serve checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
