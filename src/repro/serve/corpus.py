"""The served corpus: query keys, task expansion, request fingerprints.

A query names a model by its short key (the same keys the CLI has
always used — ``sendmail``, ``nullhttpd``, ...).  This module owns that
key → label mapping and turns ``(key, limit)`` into the engine's sweep
task shape once, memoizing the expansion: the corpus is fixed for the
server's lifetime, so task tuples, per-task fingerprint keys
(:func:`repro.core.dist.task_key`) and the request-level fingerprint are
all computed on first use and reused for every later request.  The
protocol accepts any limit, so the expansion memo keeps only the
``_EXPANDED_ENTRIES`` most recently used ``(key, limit)`` pairs.  The
part of those keys that does not depend on the limit is kept per model
(:func:`repro.core.dist.task_stem`), so the first request at a new limit
only finishes one hash per task.

The request fingerprint folds the model key, the witness limit, the
digest of the model's predicate *mutation stamp* (every pFSM
predicate's ``cache_key`` — see :func:`repro.core.dist._model_stamp`;
digested once per stamp and kept with the key stems), and every
task's :func:`~repro.core.serialize.sweep_task_fingerprint` into one
digest — it is the single-flight coalescing identity in
:mod:`repro.serve.batcher`: two requests with the same fingerprint are
provably the same computation.  The expansion memo is validated against
the same stamp, so a model mutated in place (``Predicate.rebind``)
re-expands on the next request instead of serving the stale task keys —
and therefore stale cached findings — forever.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import dist
from ..core.predspec import spec_digest
from ..core.serialize import stem_fingerprint

__all__ = ["MODEL_KEYS", "ExpandedQuery", "AnalysisCorpus"]

#: Bound of the ``(key, limit)`` expansion memo (least recently used
#: entries go first).  A hit saves rebuilding the task keys from the
#: per-model stems: ~15 us per request.
_EXPANDED_ENTRIES = 1024

#: Short CLI/service keys for the modeled vulnerabilities (the paper's
#: seven Table 2 rows plus the additional named cases).
MODEL_KEYS: Dict[str, str] = {
    "sendmail": "Sendmail Signed Integer Overflow",
    "nullhttpd": "NULL HTTPD Heap Overflow",
    "rwall": "Rwall File Corruption",
    "iis": "IIS Filename Decoding Vulnerability",
    "xterm": "Xterm File Race Condition",
    "ghttpd": "GHTTPD Buffer Overflow on Stack",
    "rpc_statd": "rpc.statd Format String Vulnerability",
    "freebsd": "FreeBSD Signed Integer Buffer Overflow",
    "rsync": "rsync Signed Array Index",
    "wuftpd": "wu-ftpd SITE EXEC Format String",
    "icecast": "icecast print_client() Format String",
    "splitvt": "splitvt Format String Vulnerability",
    "pathhijack": "Setuid Utility PATH Hijack",
}


@dataclass(frozen=True)
class ExpandedQuery:
    """One model query lowered to engine terms, ready to dispatch."""

    model_key: str
    model_name: str
    limit: int
    #: ``(model_name, operation_name, pfsm, domain, limit)`` tuples.
    tasks: Tuple[Any, ...]
    #: Per-task fingerprint keys (``None`` = no stable identity).
    task_keys: Tuple[Optional[str], ...]
    #: The request-level single-flight / cache identity.
    fingerprint: str = field(compare=False)


def _stamp_digest(stamp: Any) -> str:
    """Digest of a model mutation stamp's JSON-safe form (``""`` when
    the stamp could not be computed)."""
    term = "" if stamp is None else [
        [list(spec_key), list(impl_key) if impl_key else None]
        for spec_key, impl_key in stamp]
    return spec_digest(term)


class AnalysisCorpus:
    """The fixed model/domain set one server instance answers over."""

    def __init__(
        self,
        models: Optional[Dict[str, Any]] = None,
        domains: Optional[Dict[str, Any]] = None,
        keys: Optional[Dict[str, str]] = None,
    ) -> None:
        if models is None or domains is None:
            from ..models import (
                all_extended_models,
                all_extended_pfsm_domains,
            )

            models = all_extended_models() if models is None else models
            domains = (all_extended_pfsm_domains() if domains is None
                       else domains)
        self._models = models
        self._domains = domains
        self._keys = dict(keys if keys is not None else MODEL_KEYS)
        #: ``(key, limit) -> (mutation stamp, expansion)``, an LRU — the
        #: stamp guards against serving a stale expansion of a mutated
        #: model.
        self._expanded: OrderedDict[
            Tuple[str, int], Tuple[Any, ExpandedQuery]] = OrderedDict()
        #: ``key -> (mutation stamp, stamp digest, [(operation name,
        #: pfsm, domain, key stem)])`` — the limit-free half of an
        #: expansion.
        self._stems: Dict[str, Tuple[Any, str, List[Any]]] = {}
        self._lock = threading.Lock()

    def keys(self) -> List[str]:
        """Every servable model key, in registration order."""
        return list(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def expand(self, key: str, limit: int) -> ExpandedQuery:
        """The memoized task expansion of ``(key, limit)``, validated
        against the model's predicate mutation stamp (a rebound check
        re-expands instead of serving stale task keys).

        Raises :class:`KeyError` for unknown model keys.
        """
        label = self._keys.get(key)
        if label is None:
            raise KeyError(key)
        model = self._models[label]
        stamp = dist._model_stamp(model)
        memo_key = (key, limit)
        with self._lock:
            cached = self._expanded.get(memo_key)
            if cached is not None:
                self._expanded.move_to_end(memo_key)
        if cached is not None and stamp is not None and cached[0] == stamp:
            return cached[1]
        with self._lock:
            stems = self._stems.get(key)
        if stems is None or stamp is None or stems[0] != stamp:
            stems = (stamp, _stamp_digest(stamp), self._task_stems(label))
            with self._lock:
                self._stems[key] = stems
        _stamp, stamp_digest, parts = stems
        tasks = tuple((model.name, operation_name, pfsm, domain, limit)
                      for operation_name, pfsm, domain, _stem in parts)
        task_keys = tuple(
            None if stem is None else stem_fingerprint(stem, limit)
            for _operation, _pfsm, _domain, stem in parts)
        fingerprint = spec_digest(
            ["serve.query", key, limit, stamp_digest,
             [k if k is not None else "" for k in task_keys]]
        )
        expanded = ExpandedQuery(
            model_key=key,
            model_name=model.name,
            limit=limit,
            tasks=tasks,
            task_keys=task_keys,
            fingerprint=fingerprint,
        )
        with self._lock:
            self._expanded[memo_key] = (stamp, expanded)
            self._expanded.move_to_end(memo_key)
            if len(self._expanded) > _EXPANDED_ENTRIES:
                self._expanded.popitem(last=False)
        return expanded

    def _task_stems(self, label: str) -> List[Any]:
        """``(operation name, pfsm, domain, key stem)`` per task of
        model ``label``, in cascade order."""
        model = self._models[label]
        model_domains = self._domains.get(label, {})
        fingerprint = dist._model_fingerprint(model)
        parts: List[Any] = []
        for operation, pfsm in model.all_pfsms():
            domain = model_domains.get(pfsm.name)
            if domain is not None:
                parts.append((operation.name, pfsm, domain,
                              dist.task_stem(fingerprint, operation.name,
                                             pfsm, domain)))
        return parts
