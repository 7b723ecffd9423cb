"""repro — a reproduction of "A Data-Driven Finite State Machine Model
for Analyzing Security Vulnerabilities" (Chen, Kalbarczyk, Xu, Iyer;
DSN 2003).

Packages
--------
``repro.core``
    The pFSM methodology: primitive FSMs, operations, cascaded
    vulnerability models with propagation gates, hidden-path analysis,
    the Lemma, the discovery engine, and the two taxonomies.
``repro.memory``
    Simulated process memory: C integers, address space, stack, heap
    (with the unlink write primitive), GOT, printf-with-%n.
``repro.osmodel``
    Simulated OS: filesystem with symlinks/permissions/terminals, users,
    an interleaving scheduler for races, sockets with recv semantics.
``repro.apps``
    Faithful models of the vulnerable applications (Sendmail, NULL
    HTTPD, xterm, rwalld, IIS, GHTTPD, rpc.statd), each with vulnerable
    and patched variants, whose exploits *execute*.
``repro.bugtraq``
    The data side: report schema, curated corpus of the paper's
    vulnerabilities, synthetic full-scale database matching Figure 1,
    and the Section 3 statistics.
``repro.defenses``
    StackGuard, split-stack, bounds-checked copies, format filtering,
    heap integrity — the checks the paper maps to elementary activities.
``repro.models``
    Prebuilt models for every figure and Table 2 row.
``repro.obs``
    Engine telemetry: hierarchical spans, counters/gauges, and pluggable
    sinks (memory, JSONL, console) behind a disabled-by-default registry.
``repro.faults``
    Deterministic, seedable fault injection: a process-ambient
    ``FaultPlan`` consulted by taps in the cluster wire path, worker
    chunk execution, dist dispatch, serving, and the result stores
    (``repro … --faults SPEC`` / ``REPRO_FAULTS``).
``repro.serve``
    The analysis service: a resident server with admission
    control, single-flight coalescing, micro-batched dispatch, the
    scheduler's result memo and store as its cache, and graceful drain
    (``repro serve`` / ``repro query``).

Each package is imported on first use (``repro.serve``,
``from repro import models``), so a process loads only what it runs.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "apps",
    "bugtraq",
    "core",
    "defenses",
    "faults",
    "memory",
    "models",
    "obs",
    "osmodel",
    "serve",
    "__version__",
]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
