"""The tiered result cache: warm in-process memo → cold JSONL store.

Tier 1 *is* the scheduler's fingerprint memo
(:func:`repro.core.dist.memo_lookup` / :func:`~repro.core.dist.memo_store`)
— the service and any in-process ``sweep_models(mode="process")`` calls
share one warm tier, so a sweep run before the server started (or a
request served earlier) both count as warm.  Tier 2 is an optional
:class:`~repro.core.dist.ResultStore` JSONL file, loaded once at
startup and appended to as new keyed results are computed; a store
written by ``repro sweep --resume-from`` is directly servable, and a
store written by the server is directly resumable — same keys, same
records.

Store appends are buffered and flushed after each batch (and on drain),
so the serving path never does per-request file I/O.

Because cached findings are keyed by fingerprints that fold in every
predicate's behaviour (model fingerprint + per-task spec digests, both
validated against predicate mutation stamps — see
:func:`repro.core.dist.task_key`), a mutated model naturally misses.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..core import dist

__all__ = ["TieredResultCache"]

#: Lookup outcome tier labels (also the stats counter suffixes).
TIER_MEMO = "memo"
TIER_STORE = "store"


class TieredResultCache:
    """Fingerprint-keyed finding cache over the two result tiers."""

    def __init__(self, store_path: Optional[str] = None,
                 stats: Optional[Any] = None) -> None:
        self.stats = stats
        self._store = (dist.ResultStore(store_path)
                       if store_path is not None else None)
        self._known: Dict[str, Any] = (self._store.load()
                                       if self._store is not None else {})
        self._buffer: List[Tuple[str, Any]] = []
        self._lock = threading.Lock()

    @property
    def store_keys(self) -> int:
        """How many keys the cold tier held at load time (plus appends)."""
        with self._lock:
            return len(self._known)

    def lookup(self, key: Optional[str]) -> Tuple[Optional[str], Any]:
        """``(tier, finding)`` — tier ``"memo"``, ``"store"``, or ``None``
        on a miss.  Store hits are promoted into the memo so the next
        lookup is warm.  Does not touch stats (callers decide whether a
        probe counts)."""
        if key is None:
            return None, None
        hit, finding = dist.memo_lookup(key)
        if hit:
            return TIER_MEMO, finding
        with self._lock:
            if key in self._known:
                finding = self._known[key]
            else:
                return None, None
        dist.memo_store(key, finding)
        return TIER_STORE, finding

    def insert(self, key: str, finding: Any) -> None:
        """Install a freshly computed result into both tiers (the store
        append is buffered until :meth:`flush`)."""
        dist.memo_store(key, finding)
        with self._lock:
            if self._store is not None and key not in self._known:
                self._known[key] = finding
                self._buffer.append((key, finding))

    def flush(self) -> int:
        """Append buffered results to the cold store; returns how many
        records were written."""
        if self._store is None:
            return 0
        with self._lock:
            pending, self._buffer = self._buffer, []
        if not pending:
            return 0
        written = self._store.record_many(pending)
        if self.stats is not None:
            self.stats.incr("cache.flushed", written)
        return written
