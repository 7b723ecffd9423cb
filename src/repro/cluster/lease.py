"""Lease bookkeeping for one batch of distributed chunks.

:class:`ChunkLedger` is the fault-recovery core of the cluster fabric,
deliberately free of sockets, threads, and clocks — every method takes
``now`` explicitly, so the coordinator drives it from real monotonic
time while tests (including the hypothesis interleaving suite) drive it
from a simulated schedule.  It owns exactly the state that makes
worker death recoverable:

* a FIFO deque of unclaimed chunk ids (claims pop the front, reclaims
  push back onto the front) — the claim records themselves are the
  leases below;
* one :class:`Lease` per claimed chunk — claimant, expiry deadline, and
  attempt number.  Heartbeats renew the deadlines of the leases a
  claimant names; :meth:`reap` expires overdue leases and requeues
  their chunks to the *front* of the queue (reclaimed work restarts
  before fresh work waits);
* a bounded retry count per chunk, mirroring the process scheduler's
  crash-retry contract: a chunk reclaimed more than ``max_retries``
  times is marked *exhausted* and surfaces in :attr:`failed` for the
  caller's inline fallback — the ledger refuses work, never loses it.

Determinism: chunk outcomes are recorded keyed by chunk id and
reassembled by task index, so *any* interleaving of claims, expiries,
and completions across any number of consumers yields the same merged
result — a late duplicate result (the original claimant finished after
its lease was reclaimed) is simply dropped, and since re-execution is
deterministic the dropped copy was identical anyway.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Lease", "ChunkLedger"]


class Lease:
    """One outstanding claim: who holds which chunk until when."""

    __slots__ = ("chunk_id", "claimant", "token", "deadline", "attempt")

    def __init__(self, chunk_id: int, claimant: str, token: str,
                 deadline: float, attempt: int) -> None:
        self.chunk_id = chunk_id
        self.claimant = claimant
        self.token = token
        self.deadline = deadline
        self.attempt = attempt

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Lease(chunk={self.chunk_id}, claimant={self.claimant!r}, "
                f"deadline={self.deadline:.3f}, attempt={self.attempt})")


class ChunkLedger:
    """Lease-tracked dispatch state for one batch of chunks.

    ``chunks`` maps chunk id to an opaque payload (the coordinator
    stores wire-ready ``(task index, serialized bytes)`` rows; tests
    store whatever they like).  Not thread-safe — the coordinator
    serializes access under its own lock.
    """

    def __init__(self, chunks: Mapping[int, Any], *,
                 max_retries: int = 2) -> None:
        self._chunks: Dict[int, Any] = dict(chunks)
        self._queue: Deque[int] = deque(sorted(self._chunks))
        self._max_retries = max_retries
        self._attempts: Dict[int, int] = {cid: 0 for cid in self._chunks}
        self._leases: Dict[int, Lease] = {}
        self._tokens = itertools.count(1)
        #: chunk id → recorded outcome (opaque; first writer wins).
        self.outcomes: Dict[int, Any] = {}
        #: chunk ids whose retries are exhausted (caller falls back).
        self.failed: List[int] = []

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def done(self) -> bool:
        """Every chunk either has an outcome or exhausted its retries."""
        return len(self.outcomes) + len(self.failed) == len(self._chunks)

    def remaining(self) -> int:
        return len(self._chunks) - len(self.outcomes) - len(self.failed)

    def pending(self) -> int:
        """Chunks sitting unclaimed in the queue."""
        return len(self._queue)

    def leases(self) -> List[Lease]:
        return list(self._leases.values())

    def payload(self, chunk_id: int) -> Any:
        return self._chunks[chunk_id]

    def attempt(self, chunk_id: int) -> int:
        return self._attempts[chunk_id]

    # -- the claim / complete / reclaim cycle -----------------------------

    def claim(self, claimant: str, *, now: float,
              ttl: float) -> Optional[Lease]:
        """Lease the next available chunk to ``claimant``, or ``None``.

        Skips stale queue entries left behind when a reclaimed chunk's
        original result arrived late — the queue may briefly hold ids
        that already have outcomes.
        """
        while self._queue:
            chunk_id = self._queue.popleft()
            if chunk_id in self.outcomes or chunk_id in self.failed:
                continue
            lease = Lease(chunk_id, claimant, f"L{next(self._tokens)}",
                          now + ttl, self._attempts[chunk_id])
            self._leases[chunk_id] = lease
            return lease
        return None

    def renew(self, claimant: str, tokens: Iterable[str], *, now: float,
              ttl: float) -> int:
        """Heartbeat: push out the deadline of each lease ``claimant``
        holds whose token is in ``tokens`` — the leases the claimant
        knows it holds.  A lease whose claim response never reached the
        claimant is not in its list, so it is left to expire and be
        reaped.  Returns how many leases were renewed."""
        tokens = set(tokens)
        renewed = 0
        for lease in self._leases.values():
            if lease.claimant == claimant and lease.token in tokens:
                lease.deadline = now + ttl
                renewed += 1
        return renewed

    def complete(self, chunk_id: int, outcome: Any) -> bool:
        """Record a chunk's outcome; ``False`` for duplicates (the chunk
        already completed via another claimant — dropped, see module
        docstring) or unknown chunk ids."""
        if (chunk_id not in self._chunks or chunk_id in self.outcomes
                or chunk_id in self.failed):
            return False
        self.outcomes[chunk_id] = outcome
        self._leases.pop(chunk_id, None)
        return True

    def release(self, chunk_id: int) -> str:
        """Give up the lease on one unfinished chunk.

        Returns the disposition: ``"requeued"`` (will be re-claimed),
        ``"exhausted"`` (retries spent — lands in :attr:`failed`), or
        ``"absent"`` (no live lease / already finished; no-op).
        """
        self._leases.pop(chunk_id, None)
        if (chunk_id not in self._chunks or chunk_id in self.outcomes
                or chunk_id in self.failed):
            return "absent"
        self._attempts[chunk_id] += 1
        if self._attempts[chunk_id] > self._max_retries:
            self.failed.append(chunk_id)
            return "exhausted"
        self._queue.appendleft(chunk_id)
        return "requeued"

    def release_claimant(self, claimant: str) -> List[Tuple[int, str]]:
        """Reclaim every chunk ``claimant`` holds (it disconnected).

        Returns ``[(chunk id, disposition), ...]``.
        """
        held = [cid for cid, lease in self._leases.items()
                if lease.claimant == claimant]
        return [(cid, self.release(cid)) for cid in held]

    def reap(self, now: float) -> List[Tuple[int, str, str]]:
        """Expire overdue leases, requeueing their chunks.

        Returns ``[(chunk id, claimant, disposition), ...]`` for each
        reclaimed lease — the coordinator's counters and the recovery
        tests read this.
        """
        expired = [lease for lease in self._leases.values()
                   if lease.deadline <= now]
        return [(lease.chunk_id, lease.claimant,
                 self.release(lease.chunk_id)) for lease in expired]
