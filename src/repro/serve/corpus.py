"""The served corpus: query keys, task expansion, request fingerprints.

A query names a model by its short key (the same keys the CLI has
always used — ``sendmail``, ``nullhttpd``, ...).  This module owns that
key → label mapping and turns ``(key, limit)`` into the engine's sweep
task shape.  The expansion is memoized per model: the corpus is fixed
for the server's lifetime, and a task's fingerprint key
(:func:`repro.core.dist.task_key`) leaves out the witness limit, so the
task keys of a model are computed on first use and serve every limit.
A request at a given limit only builds its task tuples.

The request fingerprint is ``(model key, limit, digest of the model's
predicate mutation stamp)`` (every pFSM predicate's ``cache_key`` — see
:func:`repro.core.dist._model_stamp`; digested once per stamp and kept
with the expansion).  It is the single-flight coalescing identity in
:mod:`repro.serve.batcher`: two requests with the same fingerprint are
provably the same computation, since the corpus's domains are fixed and
the stamp names every predicate binding.  The expansion memo is
validated against the same stamp, so a model mutated in place
(``Predicate.rebind``) re-expands on the next request instead of
serving the stale task keys — and therefore stale cached findings —
forever.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..core import dist
from ..core.predspec import spec_digest

__all__ = ["MODEL_KEYS", "ExpandedQuery", "AnalysisCorpus"]

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


class ExpandedQuery(NamedTuple):
    """One model query lowered to engine terms, ready to dispatch."""

    model_key: str
    model_name: str
    limit: int
    #: ``(model_name, operation_name, pfsm, domain, limit)`` tuples.
    tasks: Tuple[Any, ...]
    #: Per-task fingerprint keys (``None`` = no stable identity).
    task_keys: Tuple[Optional[str], ...]
    #: The request-level single-flight identity.
    fingerprint: Any


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
        #: ``key -> (mutation stamp, stamp digest, task tuples without
        #: their limit, task keys)`` — the stamp guards against serving
        #: a stale expansion of a mutated model.
        self._expanded: Dict[str, Tuple[Any, str, List[Any], Any]] = {}

    def keys(self) -> List[str]:
        """Every servable model key, in registration order."""
        return list(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def expand(self, key: str, limit: int) -> ExpandedQuery:
        """The task expansion of ``(key, limit)``, from the model's
        memoized expansion, validated against the model's predicate
        mutation stamp (a rebound check re-expands instead of serving
        stale task keys).

        Raises :class:`KeyError` for unknown model keys.
        """
        label = self._keys.get(key)
        if label is None:
            raise KeyError(key)
        model = self._models[label]
        stamp = dist._model_stamp(model)
        expanded = self._expanded.get(key)
        if expanded is None or stamp is None or expanded[0] != stamp:
            expanded = (stamp, _stamp_digest(stamp),
                        *self._expand_model(label))
            self._expanded[key] = expanded
        _stamp, stamp_digest, bases, task_keys = expanded
        return ExpandedQuery(
            key, model.name, limit,
            tuple([base + (limit,) for base in bases]), task_keys,
            (key, limit, stamp_digest))

    def _expand_model(self, label: str) -> Tuple[List[Any], Any]:
        """The ``(model name, operation name, pfsm, domain)`` of every
        task of model ``label``, in cascade order, and their keys."""
        model = self._models[label]
        model_domains = self._domains.get(label, {})
        fingerprint = dist._model_fingerprint(model)
        bases = [(model.name, operation.name, pfsm, model_domains[pfsm.name])
                 for operation, pfsm in model.all_pfsms()
                 if model_domains.get(pfsm.name) is not None]
        return bases, tuple([dist.task_key(fingerprint, base)
                             for base in bases])
