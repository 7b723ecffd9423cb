"""repro.serve — the long-running, batched analysis service.

The ROADMAP's serving step: instead of paying pool spin-up, corpus
construction, and predicate evaluation per CLI invocation, a resident
server keeps the engine warm and answers "does model X have a hidden
path?" queries over a line-delimited JSON protocol, with a thin HTTP
façade for ``/healthz`` and ``/metrics``.  It serves each connection on
a blocking thread of its own.

The pipeline, front to back:

* :mod:`~repro.serve.protocol` — the wire format and status contract
  (explicit ``overloaded``/``timeout``/``draining`` refusals, never
  unbounded waits);
* :mod:`~repro.serve.admission` — the bounded request queue with
  per-request deadlines (admission control);
* :mod:`~repro.serve.batcher` — single-flight coalescing by request
  fingerprint plus micro-batched, task-deduplicated dispatch to the
  engine, run inline by the request thread that finds the engine idle.
  Its result cache is the scheduler's own: the in-process fingerprint
  memo of :mod:`repro.core.dist`, written through together with an
  optional JSONL :class:`~repro.core.dist.ResultStore` (the format of
  ``repro sweep --resume-from``, loaded into the memo at start-up);
* :mod:`~repro.serve.server` — lifecycle (starting → ready → draining
  → stopped), graceful SIGTERM drain, the HTTP façade, and the
  :class:`~repro.serve.server.ServerThread` embedding;
* :mod:`~repro.serve.client` — the small synchronous client the CLI,
  tests, and ``benchmarks/bench_serve.py`` drive the server with;
* :mod:`~repro.serve.stats` — always-on service counters/gauges and
  latency percentiles, mirrored to :mod:`repro.obs` as ``serve.*``.

CLI: ``repro serve`` runs the server; ``repro query`` is the client.
"""

from .admission import AdmissionQueue, AdmittedRequest
from .batcher import MicroBatcher
from .client import ServeClient, wait_until_ready
from .corpus import MODEL_KEYS, AnalysisCorpus, ExpandedQuery
from .protocol import (
    ProtocolError,
    SHED_STATUSES,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_TIMEOUT,
    decode_request,
    encode_line,
)
from .server import (
    DRAINING,
    READY,
    STARTING,
    STOPPED,
    AnalysisServer,
    ServeConfig,
    ServerThread,
)
from .stats import LatencyWindow, ServeStats, STAGES

__all__ = [
    "AdmissionQueue",
    "AdmittedRequest",
    "MicroBatcher",
    "ServeClient",
    "wait_until_ready",
    "MODEL_KEYS",
    "AnalysisCorpus",
    "ExpandedQuery",
    "ProtocolError",
    "SHED_STATUSES",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_TIMEOUT",
    "STATUS_DRAINING",
    "STATUS_ERROR",
    "decode_request",
    "encode_line",
    "AnalysisServer",
    "ServeConfig",
    "ServerThread",
    "STARTING",
    "READY",
    "DRAINING",
    "STOPPED",
    "LatencyWindow",
    "ServeStats",
    "STAGES",
]
