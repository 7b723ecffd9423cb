"""Workloads ``serve`` and ``serve-cached``: closed-loop clients
querying the analysis server.

The server (``repro.serve``, thread backend, default batching, a JSONL
cold-tier store inside the checkout) answers over the 13 bundled models
with their probe domains tiled by reference, so each query does real
scan work.  ``CLIENTS`` clients each send their next query as soon as
the previous answer arrives.

``serve``: every measured query is distinct.  The seeded mix walks a
shuffled list of ``(model, limit)`` pairs, so the request cache,
single-flight coalescing and the task result tiers all miss, and each
query goes through admission, batching, the engine and the store.  The
engine's own verdict and plan caches stay warm, as they would in a
long-running server.

``serve-cached``: every measured query repeats one of the warm-up
queries (one per model), so the server answers from its result cache.

An operation is one query; its latency is measured at the client.  Each
answer is checked against the reference scan: per pFSM, the witnesses
must be the reference witnesses truncated at the query's limit, in
order.

The server runs in this process, so a traced run's counters are those
of the process that did the work.
"""

import json
import os
import random
import threading
import time

from . import harness
from .corpus import tiled_bundled

CLIENTS = 1
TILE = 40
#: The warm-up queries' limit: ``serve`` measures limits below it,
#: ``serve-cached`` repeats the warm-up queries.
WARM_LIMIT = 1000


class Serve:
    handle = None
    store = None

    def __init__(self, cached):
        self.cached = cached

    def setup(self, seed, trace):
        from repro.serve import MODEL_KEYS, AnalysisCorpus, ServeConfig, \
            ServerThread
        from repro.serve.protocol import encode_witness

        models, domains, truth = tiled_bundled(TILE)
        # model name -> [(pfsm, encoded witnesses)], truncated at the
        # largest limit a query uses
        self.truth = {}
        for model_name, _op, pfsm, witnesses in truth:
            encoded = [encode_witness(w) for w in witnesses[:WARM_LIMIT]]
            # as the client decodes them from a response line
            self.truth.setdefault(model_name, []).append(
                (pfsm, json.loads(json.dumps(encoded, default=str))))
        self.keys = list(MODEL_KEYS)
        self.names = {key: models[MODEL_KEYS[key]].name for key in self.keys}
        if self.cached:
            pairs = [(key, WARM_LIMIT) for key in self.keys]
        else:
            pairs = [(key, limit) for key in self.keys
                     for limit in range(1, WARM_LIMIT)]
        random.Random(seed).shuffle(pairs)
        self.pairs = pairs
        self.store = os.path.join(os.environ["TMPDIR"],
                                  f"serve-{os.getpid()}.jsonl")
        self.handle = ServerThread(
            ServeConfig(port=0, store_path=self.store, trace=trace),
            corpus=AnalysisCorpus(models=models, domains=domains)).start()

    def close(self):
        if self.handle is not None:
            self.handle.shutdown()
            self.handle = None
        if self.store is not None and os.path.exists(self.store):
            os.unlink(self.store)

    def _check(self, response, key, limit):
        if response.get("status") != "ok":
            return False
        got = [(f["pfsm"], f["witnesses"]) for f in response["findings"]]
        expected = [(pfsm, witnesses[:limit])
                    for pfsm, witnesses in self.truth.get(self.names[key], [])]
        return got == expected

    def run(self, seconds, traced):
        from repro.serve import ServeClient

        host, port = self.handle.host, self.handle.port
        with ServeClient(host, port) as client:
            for key in self.keys:  # warm-up: plans, verdicts, first batch
                if not self._check(client.query(key, limit=WARM_LIMIT),
                                   key, WARM_LIMIT):
                    raise RuntimeError(f"warm-up query for {key} was wrong")
            self._before = client.metrics()["counters"]
        if traced is not None:
            traced.restart()

        result = harness.OpResult()
        lock = threading.Lock()
        cursor = [0]
        deadline = [0.0]

        def next_pair():
            with lock:
                pair = self.pairs[cursor[0] % len(self.pairs)]
                cursor[0] += 1
                return pair

        def client_loop():
            with ServeClient(host, port) as client:
                while time.perf_counter() < deadline[0]:
                    key, limit = next_pair()
                    begin = time.perf_counter()
                    try:
                        response = client.query(key, limit=limit,
                                                 trace=traced is not None)
                        elapsed = time.perf_counter() - begin
                        ok = self._check(response, key, limit)
                    except Exception:
                        elapsed = time.perf_counter() - begin
                        harness.report_failure("serve client")
                        ok = False
                    with lock:
                        result.record(elapsed, ok)

        threads = [threading.Thread(target=client_loop)
                   for _ in range(CLIENTS)]
        started = time.perf_counter()
        deadline[0] = started + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall = time.perf_counter() - started
        with ServeClient(host, port) as client:
            self._after = client.metrics()["counters"]
        return result

    def layer_extra(self):
        """Per-layer figures from the server's own statistics."""
        def delta(name):
            return self._after.get(name, 0) - self._before.get(name, 0)

        queries = delta("requests.query")
        batches = delta("batches")
        return {
            "result_cache_hit_rate": (
                delta("requests.cached") / queries if queries else 0.0,
                "ratio"),
            "batch_size": (
                delta("batch.requests") / batches if batches else 0.0,
                "count"),
        }
