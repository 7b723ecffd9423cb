"""Multi-host sweep fabric: socket work queue, worker agents, leases.

The distribution-scale step on top of :mod:`repro.core.dist`: the
chunked scheduler's chunks, served over a line-JSON TCP protocol to
worker agents on other processes or hosts, with a lease/heartbeat layer
that reclaims chunks from workers that die or stall.  Three moving
parts:

:class:`~repro.cluster.coordinator.ClusterCoordinator`
    Owns one chunk ledger per sweep, issues leases, reaps the dead,
    reassembles results, and hands each accepted chunk back to the
    scheduler (which appends it to the sweep's result store).
    ``sweep_models(..., backend="cluster")`` routes every chunk
    through it.
:class:`~repro.cluster.worker.ClusterWorker`
    The agent behind ``repro worker --connect host:port``: claims
    chunks, executes them on its local warm process pool via the exact
    code path of the process backend, and streams results (and trace
    spans) back.
:class:`~repro.cluster.lease.ChunkLedger`
    The clock-free fault-recovery core: leases, bounded retries,
    deterministic reassembly under any claim interleaving.

The scheduler finds the fabric through a process-ambient coordinator
handle (:func:`set_coordinator` / :func:`get_coordinator`), set by the
CLI (``repro sweep --listen``) or embedding code; :func:`coordinating`
scopes it for tests.

Determinism contract: a cluster sweep returns results bit-for-bit equal
to ``backend="process"`` regardless of worker count, join/leave timing,
or mid-sweep worker death — chunks are reassembled by task index, task
payloads and scan execution are byte-identical to the local pool path,
and duplicated work (a reclaimed chunk whose original result arrives
late) collapses to a single deterministic outcome.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .coordinator import ClusterCoordinator
from .lease import ChunkLedger, Lease
from .protocol import ClusterProtocolError, parse_address
from .worker import ChunkTimeout, ClusterWorker, WorkerConnectError

__all__ = [
    "ClusterCoordinator",
    "ClusterWorker",
    "ChunkLedger",
    "ChunkTimeout",
    "Lease",
    "ClusterProtocolError",
    "WorkerConnectError",
    "parse_address",
    "set_coordinator",
    "get_coordinator",
    "coordinating",
]

_AMBIENT_LOCK = threading.Lock()
_AMBIENT: Optional[ClusterCoordinator] = None


def set_coordinator(
    coordinator: Optional[ClusterCoordinator],
) -> Optional[ClusterCoordinator]:
    """Install (or clear, with ``None``) the process-ambient
    coordinator that ``backend="cluster"`` sweeps dispatch through.
    Returns the previous handle."""
    global _AMBIENT
    with _AMBIENT_LOCK:
        previous = _AMBIENT
        _AMBIENT = coordinator
        return previous


def get_coordinator() -> Optional[ClusterCoordinator]:
    """The ambient coordinator, or ``None`` when no fabric is up."""
    with _AMBIENT_LOCK:
        return _AMBIENT


@contextmanager
def coordinating(coordinator: ClusterCoordinator) -> Iterator[
        ClusterCoordinator]:
    """Scope the ambient coordinator (started and closed by caller)."""
    previous = set_coordinator(coordinator)
    try:
        yield coordinator
    finally:
        set_coordinator(previous)
