"""Object domains for witness search.

Hidden-path analysis (does a pFSM accept something its spec rejects?) is
an existence question over the object domain of the elementary activity.
The paper answers it by code inspection; we answer it constructively by
enumerating or sampling a :class:`Domain` and exhibiting witnesses.

Domains are finite, iterable, composable, and deterministic — property
tests and benchmarks need reproducibility, so samplers take explicit
seeds.

Domains are also *lazy where laziness is free*: integer domains keep
their ``range`` backing unmaterialized (so the closed-form batch paths
in :mod:`repro.core.predicates` can answer witness queries
arithmetically), and :meth:`Domain.records` holds a re-iterable
Cartesian product instead of the full list of dicts — O(∑|fields|)
memory instead of O(∏|fields|) before any predicate runs.

A materialized domain also knows which of its rows repeat which object:
:func:`distinct_rows` gives its :class:`DistinctRows` index, built once
per domain object.  Corpus domains are routinely a small probe set tiled
by reference, and the scans, the cross-run digest and the columnar
duplicate gate all read that one index instead of keeping their own
identity memo.
"""

from __future__ import annotations

import itertools
import os
import random
import string
import threading
import weakref
from array import array
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Set

from ..obs import DEFAULT as _OBS

__all__ = ["Domain", "DistinctRows", "distinct_rows"]


class _LazyProduct:
    """Re-iterable Cartesian product of named field values, yielding one
    dict per combination without ever materializing the full product."""

    def __init__(self, names: Sequence[str], columns: Sequence[List[Any]]) -> None:
        self._names = tuple(names)
        self._columns = [list(column) for column in columns]

    def __iter__(self) -> Iterator[dict]:
        names = self._names
        for combo in itertools.product(*self._columns):
            yield dict(zip(names, combo))

    def __len__(self) -> int:
        size = 1
        for column in self._columns:
            size *= len(column)
        return size


class Domain:
    """A finite, re-iterable collection of candidate objects."""

    def __init__(self, items: Iterable[Any], description: str = "") -> None:
        if isinstance(items, (range, tuple, _LazyProduct)):
            self._items = items  # already re-iterable and sized; keep lazy
        else:
            self._items = list(items)
            if _OBS.enabled:
                _OBS.incr("domain.materialized")
        self.description = description or f"{len(self._items)} objects"
        # Built on first membership query: hashable items go in a set
        # (O(1) lookups), the unhashable remainder in a list.
        self._member_set: Optional[Set[Any]] = None
        self._member_rest: Optional[List[Any]] = None

    @property
    def backing(self) -> Any:
        """The raw container behind the domain (``range`` for integer
        domains — the hook the closed-form predicate paths key on)."""
        return self._items

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, obj: Any) -> bool:
        items = self._items
        if isinstance(items, range):
            try:
                return obj in items  # O(1) arithmetic membership
            except TypeError:
                return False
        if isinstance(items, _LazyProduct):
            # Do not materialize giant products for one lookup.
            if _OBS.enabled:
                _OBS.incr("domain.membership.scans")
            return any(item == obj for item in items)
        if self._member_set is None:
            member_set: Set[Any] = set()
            member_rest: List[Any] = []
            for item in items:
                try:
                    member_set.add(item)
                except TypeError:
                    member_rest.append(item)
            self._member_set = member_set
            self._member_rest = member_rest
            if _OBS.enabled:
                _OBS.incr("domain.membership.index_built")
        try:
            if obj in self._member_set:
                return True
        except TypeError:
            pass
        return obj in self._member_rest

    def __repr__(self) -> str:
        return f"Domain({self.description})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(*items: Any) -> "Domain":
        """Domain from explicit items."""
        return Domain(items, description=f"{len(items)} literals")

    @staticmethod
    def integers(low: int, high: int, step: int = 1) -> "Domain":
        """All integers in ``[low, high]`` (kept as a lazy ``range``)."""
        return Domain(range(low, high + 1, step),
                      description=f"integers [{low}, {high}]")

    @staticmethod
    def integer_probes(magnitude: int = 1 << 31) -> "Domain":
        """Boundary-flavoured integer probe set: zeros, small values,
        negatives, and two's-complement edges — the values that expose
        signed-overflow predicates."""
        edges = [
            0, 1, -1, 2, -2, 10, 100, 101, -100, 127, 128, 255, 256,
            1023, 1024, 1025, 32767, 32768, 65535, 65536,
            magnitude - 1, magnitude, magnitude + 1,
            -magnitude, -magnitude - 1, 2 * magnitude - 1, 2 * magnitude,
        ]
        return Domain(sorted(set(edges)), description="integer boundary probes")

    @staticmethod
    def integer_strings(magnitude: int = 1 << 31) -> "Domain":
        """Decimal-string forms of the boundary probes (the raw inputs of
        elementary activity 1 in the signed-integer chains)."""
        return Domain(
            [str(v) for v in Domain.integer_probes(magnitude)],
            description="decimal strings at integer boundaries",
        )

    @staticmethod
    def byte_strings(lengths: Sequence[int], fill: bytes = b"A") -> "Domain":
        """Byte strings of the given lengths (buffer-copy probes)."""
        return Domain(
            [fill * length for length in lengths],
            description=f"byte strings of lengths {list(lengths)}",
        )

    @staticmethod
    def sampled_strings(
        count: int, max_length: int, alphabet: str = string.printable,
        seed: int = 0,
    ) -> "Domain":
        """Deterministically sampled random strings."""
        rng = random.Random(seed)
        items = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_length)))
            for _ in range(count)
        ]
        return Domain(items, description=f"{count} sampled strings (seed={seed})")

    # -- combinators -----------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], description: str = "") -> "Domain":
        """Apply ``fn`` to every element."""
        return Domain(
            (fn(item) for item in self._items),
            description=description or f"mapped({self.description})",
        )

    def filter(self, keep: Callable[[Any], bool]) -> "Domain":
        """Keep matching elements."""
        return Domain(
            (item for item in self._items if keep(item)),
            description=f"filtered({self.description})",
        )

    def union(self, other: "Domain") -> "Domain":
        """Concatenate two domains (duplicates preserved)."""
        return Domain(
            itertools.chain(self._items, other),
            description=f"{self.description} + {other.description}",
        )

    @staticmethod
    def records(**fields: "Domain") -> "Domain":
        """Cartesian product of named domains as dicts — multi-attribute
        objects like Figure 3's ``{str_x, str_i}`` pairs.

        The product is lazy and re-iterable with a computed ``len``; only
        the per-field value lists are held in memory.
        """
        names = list(fields)
        product = _LazyProduct(names, [list(fields[name]) for name in names])
        return Domain(
            product,
            description="records(" + ", ".join(
                f"{n}={fields[n].description}" for n in names) + ")",
        )

    def sample(self, count: int, seed: int = 0) -> "Domain":
        """Deterministic subsample (without replacement when possible)."""
        if _OBS.enabled:
            _OBS.incr("domain.sampled")
        rng = random.Random(seed)
        items = (
            self._items
            if isinstance(self._items, (range, list, tuple))
            else list(self._items)
        )
        if count >= len(items):
            return Domain(list(items), description=self.description)
        return Domain(
            rng.sample(items, count),
            description=f"sample({count}) of {self.description}",
        )


# ---------------------------------------------------------------------------
# Which rows repeat which object.
# ---------------------------------------------------------------------------

def _code_array(distinct: int, codes: Iterable[int]) -> Any:
    """``codes`` (each ``< distinct``) in the narrowest unsigned array:
    ``bytes`` up to 256 distinct objects, so a 256-byte table maps a
    slice of them in one ``bytes.translate``."""
    if distinct <= 1 << 8:
        return bytes(codes)
    return array("H" if distinct <= 1 << 16 else "I", codes)


class DistinctRows:
    """The distinct-row index of one materialized sequence of objects.

    ``objects`` holds each distinct object reference once, in the order
    of its first appearance; ``codes[row]`` is the position in
    ``objects`` of the object at ``row`` (its *code*; a compact unsigned
    array, ``bytes`` when there are at most 256 codes);
    ``first_rows[code]`` is the row where ``objects[code]`` first
    appears, so ``first_rows`` ascends.  Rows are told apart by
    identity, not equality: equal but distinct objects get codes of
    their own, exactly as each would be judged on its own.

    ``wire_values`` and ``wire_texts`` are filled by
    :class:`repro.core.sweep.SweepFinding`: one tagged-JSON value and one
    dumped text per distinct witness object, for the index's lifetime.
    """

    __slots__ = ("objects", "codes", "first_rows", "wire_values",
                 "wire_texts")

    def __init__(self, items: Sequence[Any]) -> None:
        # id -> first row: walking backwards, the earliest row writes last.
        first = dict(zip(map(id, reversed(items)),
                         range(len(items) - 1, -1, -1)))
        self.first_rows: List[int] = sorted(first.values())
        self.objects: List[Any] = list(map(items.__getitem__,
                                           self.first_rows))
        code_of = dict(zip(map(id, self.objects), itertools.count()))
        self.codes = _code_array(len(self.objects),
                                 map(code_of.__getitem__, map(id, items)))
        self.wire_values: List[Any] = [None] * len(self.objects)
        self.wire_texts: List[Optional[str]] = [None] * len(self.objects)
        if _OBS.enabled:
            _OBS.incr("domain.distinct.built")


#: Per-domain-object index table.  A weak side table, never a domain
#: attribute: an attribute would ride along in every pickle of the
#: domain (cluster task payloads), and weak keys keep an index from
#: pinning a dead domain.
_DISTINCT: "weakref.WeakKeyDictionary[Any, DistinctRows]" = \
    weakref.WeakKeyDictionary()
_DISTINCT_LOCK = threading.Lock()


def _new_lock_in_child() -> None:
    # A worker forked while another thread was building an index would
    # otherwise inherit the lock held, and wait on it forever.
    global _DISTINCT_LOCK
    _DISTINCT_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_new_lock_in_child)


def distinct_rows(domain: Any) -> Optional[DistinctRows]:
    """The :class:`DistinctRows` index of a domain, or ``None`` for a
    ``range`` or record-product backing, whose rows never repeat a
    reference.

    A :class:`Domain` (anything with a ``backing``) over a list or tuple
    builds its index once and keeps it in a weak side table.  A raw list
    or tuple, which cannot be weakly referenced, gets a fresh index on
    every call, and any other iterable is materialized into one.  Each
    build counts as ``domain.distinct.built``.  Assumes, as every memo
    keyed on a domain does, that the backing is not mutated once
    scanned.
    """
    backing = getattr(domain, "backing", domain)
    if isinstance(backing, (range, _LazyProduct)):
        return None
    if not isinstance(backing, (list, tuple)):
        return DistinctRows(list(backing))
    if backing is domain:
        return DistinctRows(backing)
    try:
        index = _DISTINCT.get(domain)
    except TypeError:  # not weakly referenceable
        return DistinctRows(backing)
    if index is None:
        with _DISTINCT_LOCK:
            index = _DISTINCT.get(domain)
            if index is None:
                index = DistinctRows(backing)
                _DISTINCT[domain] = index
    return index
