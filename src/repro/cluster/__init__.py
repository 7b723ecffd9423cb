"""The sweep transport: socket work queue, worker agents, leases.

The chunked scheduler in :mod:`repro.core.dist` moves every chunk that
leaves its process through this package — to ``repro worker`` agents
on other hosts (``backend="cluster"``) and to local worker processes
forked for one sweep (``backend="process"``) alike — over a line-JSON
protocol, with a lease/heartbeat layer that reclaims chunks from
workers that die or stall.  Three moving parts:

:class:`~repro.cluster.coordinator.ClusterCoordinator`
    Owns one chunk ledger per sweep, issues leases, reaps the dead,
    reassembles results, and hands each accepted chunk back to the
    scheduler (which appends it to the sweep's result store).  It
    listens on TCP, or — built with ``host=None`` — only serves the
    socketpairs of the local workers it adopted.
:class:`~repro.cluster.worker.ClusterWorker`
    One single-slot agent: claims chunks, executes them in its own
    process via the same :func:`repro.core.dist._chunk_worker` call for
    both backends, and streams results (and trace spans) back.
    :func:`~repro.cluster.worker.supervise` forks the agents behind
    ``repro worker --connect host:port --workers N``;
    :func:`~repro.cluster.worker.local_workers` forks a process sweep's.
:class:`~repro.cluster.lease.ChunkLedger`
    The clock-free fault-recovery core: leases, bounded retries,
    deterministic reassembly under any claim interleaving.

``backend="cluster"`` sweeps find the fabric through a process-ambient
coordinator handle (:func:`set_coordinator` / :func:`get_coordinator`),
set by the CLI (``repro sweep --listen``) or embedding code;
:func:`coordinating` scopes it for tests.

Determinism contract: both backends return results bit-for-bit equal
to the thread backend regardless of worker count, join/leave timing,
or mid-sweep worker death — chunks are reassembled by task index, each
task is scanned identically wherever its chunk runs (unpickled on a
remote agent, inherited through the fork on a local one), and
duplicated work (a reclaimed chunk whose original result arrives
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
