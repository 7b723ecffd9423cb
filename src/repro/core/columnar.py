"""Columnar domain execution — struct-of-arrays encodings and
whole-column predicate kernels.

Every non-interval strategy in :func:`repro.core.sweep.
hidden_witness_scan` judges one Python object at a time: the compiled
:class:`~repro.core.plan.ScanProgram` is a fused closure, but it is
still *called* once per distinct object of the domain.  For the
corpus-scale domains the ROADMAP targets — millions of
integers, record products, telemetry captures — that per-object
dispatch dominates the sweep.  This module adds the standard analytical
fix: **columnar execution**.

Two layers:

* **The encoder.**  :func:`encoding_for` converts a domain into a
  struct-of-arrays :class:`Encoding` — one typed column per field (or
  one column for scalar domains).  A list- or tuple-backed domain
  encodes the distinct objects of its distinct-row index
  (:func:`repro.core.witness.distinct_rows`), so a column position is
  a *code* of that index and a repeated object is encoded once;
  ``range`` backings and lazy record products have no index, their
  codes are their rows, and they encode without materializing the
  product's dicts.  Integer columns are ``int64`` buffers, strings/bytes
  keep their value list plus a vectorizable length column.  Encodings
  are memoized on the domain object (a weak side table), so every task
  of a sweep over one domain pays the encoding once; equal-content but
  distinct domain objects each encode their own.

* **The kernels.**  :meth:`Encoding.kernel` binds a compiled
  program's folded node tree (:attr:`repro.core.plan.ScanProgram.root`,
  the tree its scalar closures were emitted from) to whole-column mask
  operations: comparisons become vectorized compares, boolean
  combinators become mask algebra, ``attr`` nodes switch to the
  field's column.  Each encoding picks its mask backend from the
  number of objects it encodes: from ``_NUMPY_MIN_ROWS`` up, with
  ``numpy`` installed, masks are boolean ndarrays; below it (or without
  numpy) big integers over one ``0x00``/``0x01`` byte per code, whose
  ``&``/``|`` are single C-level operations.  :meth:`Kernel.flags`
  turns the root mask into one verdict byte per code, and the sweep
  selects the witness rows from those.  Node masks are cached on the
  encoding by structural digest, so tasks sharing subpredicates over
  one domain — in one sweep or across serve batches — reuse each
  other's masks.

  Kernels are *bit-for-bit equivalent* to the scalar scan: every leaf
  verdict is derived analytically per column type, including the
  fail-secure exception semantics (``len`` of an ``int`` raises, so
  ``lenle`` over an integer column is the constant-``False`` mask — the
  same verdict the interpreter's shield produces) and the comparison
  constructors' ``int(·)`` coercion (``le`` over a string column falls
  back to an elementwise guarded coercion).  A spec that cannot be
  vectorized exactly (``named`` predicates, nested ``attr``, columns of
  mixed type) *bails*: :func:`kernel_for` returns ``None`` and the
  planner (:func:`repro.core.plan.plan_scan`) picks the compiled scalar
  scan.

Process-backend workers are forked after their sweep's task list
exists, so they scan the very domain objects the parent holds, along
with every encoding the parent had already built; no column ever
crosses a process boundary.

``numpy`` is strictly optional, and imported only when the first
encoding large enough to use it is built: a process whose domains stay
smaller never loads it.  The stdlib kernels are always available, and
:func:`force_fallback` / ``REPRO_NO_NUMPY=1`` select them for every
encoding (the equivalence tests run both backends).  The whole
strategy can be bypassed with :func:`set_enabled` (``repro sweep
--no-columnar``).
"""

from __future__ import annotations

import os
import weakref
from array import array
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..obs import DEFAULT as _OBS
from .predspec import decode_value, _resolve_type
from .witness import DistinctRows, _LazyProduct, distinct_rows

__all__ = [
    "Encoding",
    "disabled",
    "encoding_for",
    "force_fallback",
    "is_enabled",
    "kernel_for",
    "set_enabled",
    "set_min_rows",
]


_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


# The row thresholds below count the objects an encoding holds (the
# distinct objects of an indexed domain), which is what a kernel's work
# scales with.

#: Encodings of at least this many objects use numpy masks; smaller ones
#: use the stdlib kernels, which are as fast there, so a process whose
#: domains all stay below it never imports numpy.  Measured crossover:
#: EXPERIMENTS.md, "numpy only where it pays".
_NUMPY_MIN_ROWS = 1 << 14

#: Encoding (and lazy-product materialization) ceiling — memory guard.
_MAX_ROWS = 1 << 22

#: Node masks cheaper than this are not worth caching (the dict probe
#: would cost more than recomputing them).
_MASK_CACHE_MIN_COST = 0.9
#: Per-encoding mask cache bound (each entry is ~one byte per row).
_MASK_CACHE_ENTRIES = 32

_ENABLED = True
#: Domains with fewer objects than this scan faster scalar than they
#: encode.
_MIN_ROWS = 256
_FORCE_FALLBACK = os.environ.get("REPRO_NO_NUMPY", "") not in ("", "0")


class _Bail(Exception):
    """This spec/domain pair cannot be vectorized exactly — fall back."""


def is_enabled() -> bool:
    """Is the columnar strategy active? (see :func:`set_enabled`)."""
    return _ENABLED


def set_enabled(on: bool) -> None:
    """Globally enable/bypass columnar execution
    (``repro sweep --no-columnar``)."""
    global _ENABLED
    _ENABLED = bool(on)


@contextmanager
def disabled():
    """Temporarily bypass columnar execution — the benchmark's A/B
    switch."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


@contextmanager
def force_fallback():
    """Temporarily run the pure-stdlib kernels even when numpy is
    installed (equivalence tests, the fallback benchmark leg)."""
    global _FORCE_FALLBACK
    previous = _FORCE_FALLBACK
    _FORCE_FALLBACK = True
    try:
        yield
    finally:
        _FORCE_FALLBACK = previous


def set_min_rows(rows: int) -> int:
    """Set the minimum number of objects a columnar encoding holds;
    returns the previous threshold.  Tests drop it to exercise tiny
    domains."""
    global _MIN_ROWS
    previous = _MIN_ROWS
    _MIN_ROWS = max(0, int(rows))
    return previous


def _config_stamp() -> Tuple[Any, ...]:
    return (_FORCE_FALLBACK, _MIN_ROWS)


# ---------------------------------------------------------------------------
# Mask backends.
#
# Each encoding holds one ops object, chosen from its size when it is
# built, and every backend-specific step (int64 column buffers, length
# columns, vectorized compares, mask algebra, verdict bytes) asks it.
# numpy masks are boolean ndarrays.  Stdlib masks are non-negative big
# integers holding one 0x00/0x01 byte per code (little-endian): ``&``
# and ``|`` are then single big-int operations, and negation XORs
# against the all-ones constant.  Both turn a mask into one verdict byte
# per code in C (``flags``).
# ---------------------------------------------------------------------------

class _NumpyOps:
    name = "numpy"

    def __init__(self, n: int, np: Any) -> None:
        self.n = n
        self.np = np

    def const(self, flag: bool) -> Any:
        return (self.np.ones if flag else self.np.zeros)(self.n, dtype=bool)

    def conj(self, a: Any, b: Any) -> Any:
        return a & b

    def disj(self, a: Any, b: Any) -> Any:
        return a | b

    def neg(self, a: Any) -> Any:
        return ~a

    def from_iter(self, flags: Iterable[int]) -> Any:
        return self.np.fromiter(flags, dtype=bool, count=self.n)

    def flags(self, mask: Any) -> bytes:
        return mask.tobytes()

    # -- int64 columns -----------------------------------------------------

    def int_range(self, backing: range) -> Any:
        return self.np.arange(backing.start, backing.stop, backing.step,
                              dtype=self.np.int64)

    def ints(self, values: Iterable[int]) -> Any:
        return self.np.fromiter(values, dtype=self.np.int64, count=self.n)

    def tiled_ints(self, source: List[int], stride: int, repeat: int) -> Any:
        np = self.np
        base = np.asarray(source, dtype=np.int64)
        return np.tile(np.repeat(base, stride), repeat)

    def lengths(self, values: Any) -> Any:
        return self.np.fromiter((len(v) for v in values),
                                dtype=self.np.int64, count=len(values))

    # -- compares over an int64 column ------------------------------------

    def nonzero(self, values: Any) -> Any:
        return values != 0

    def equal(self, values: Any, expected: Any) -> Any:
        return values == expected

    def at_most(self, values: Any, bound: int) -> Any:
        return values <= bound

    def at_least(self, values: Any, bound: int) -> Any:
        return values >= bound

    def between(self, values: Any, low: int, high: int) -> Any:
        return (values >= low) & (values <= high)


class _IntOps:
    name = "stdlib"

    def __init__(self, n: int) -> None:
        self.n = n
        self._ones = int.from_bytes(b"\x01" * n, "little") if n else 0

    def const(self, flag: bool) -> int:
        return self._ones if flag else 0

    def conj(self, a: int, b: int) -> int:
        return a & b

    def disj(self, a: int, b: int) -> int:
        return a | b

    def neg(self, a: int) -> int:
        return self._ones ^ a

    def from_iter(self, flags: Iterable[int]) -> int:
        return int.from_bytes(bytes(bytearray(flags)), "little")

    def flags(self, mask: int) -> bytes:
        return mask.to_bytes(self.n, "little")

    # -- int64 columns -----------------------------------------------------

    def int_range(self, backing: range) -> Any:
        return array("q", backing)

    def ints(self, values: Iterable[int]) -> Any:
        return array("q", values)

    def tiled_ints(self, source: List[int], stride: int, repeat: int) -> Any:
        return array("q", _tile(source, stride, repeat))

    def lengths(self, values: Any) -> Any:
        return array("q", map(len, values))

    # -- compares over an int64 column ------------------------------------

    def nonzero(self, values: Any) -> int:
        return self.from_iter(1 if v else 0 for v in values)

    def equal(self, values: Any, expected: Any) -> int:
        return self.from_iter(1 if v == expected else 0 for v in values)

    def at_most(self, values: Any, bound: int) -> int:
        return self.from_iter(1 if v <= bound else 0 for v in values)

    def at_least(self, values: Any, bound: int) -> int:
        return self.from_iter(1 if v >= bound else 0 for v in values)

    def between(self, values: Any, low: int, high: int) -> int:
        return self.from_iter(1 if low <= v <= high else 0 for v in values)


def _make_ops(n: int) -> Any:
    """The mask backend of an ``n``-object encoding: numpy from
    ``_NUMPY_MIN_ROWS`` objects up (imported here, on the first such
    encoding) unless it is missing or bypassed, stdlib otherwise."""
    if n >= _NUMPY_MIN_ROWS and not _FORCE_FALLBACK:
        try:
            import numpy
        except Exception:  # pragma: no cover - environment-dependent
            return _IntOps(n)
        return _NumpyOps(n, numpy)
    return _IntOps(n)


# ---------------------------------------------------------------------------
# Columns and the type scan.
# ---------------------------------------------------------------------------

class _Column:
    """One typed column: ``kind`` is ``int``/``str``/``bytes``/``obj``.
    ``values`` is an ``int64`` buffer (ndarray or ``array('q')``) for
    ``int`` columns and a value sequence otherwise; ``lengths`` is built
    lazily for ``str``/``bytes`` columns (the vectorized
    ``lenle``/``truthy`` path)."""

    __slots__ = ("kind", "values", "_lengths")

    def __init__(self, kind: str, values: Any) -> None:
        self.kind = kind
        self.values = values
        self._lengths: Any = None

    def lengths(self, ops: Any) -> Any:
        if self._lengths is None:
            self._lengths = ops.lengths(self.values)
        return self._lengths


def _scan_kind(values: Iterable[Any]) -> str:
    """The exact column type of a value sequence — ``obj`` whenever a
    vectorized compare could diverge from scalar semantics (mixed types,
    bool, out-of-``int64`` integers)."""
    kind = ""
    for value in values:
        t = type(value)
        if t is int:
            if not _I64_MIN <= value <= _I64_MAX:
                return "obj"
            k = "int"
        elif t is str:
            k = "str"
        elif t is bytes:
            k = "bytes"
        else:
            return "obj"
        if not kind:
            kind = k
        elif kind != k:
            return "obj"
    return kind or "obj"


def _tile(values: List[Any], stride: int, repeat: int) -> List[Any]:
    """Row-major product column: each value repeated ``stride`` times,
    the block tiled ``repeat`` times."""
    if stride == 1:
        return values * repeat
    return [v for v in values for _ in range(stride)] * repeat


# ---------------------------------------------------------------------------
# The encoding.
# ---------------------------------------------------------------------------

class Encoding:
    """Struct-of-arrays form of one domain, one position per code.

    ``mode`` records the source shape: ``"range"`` / ``"scalar"``
    (ints, strings, or bytes), ``"record"`` (homogeneous dicts),
    ``"product"`` (a lazy :class:`~repro.core.witness._LazyProduct`,
    whose columns tile without building the dicts).  ``index`` is the
    domain's distinct-row index for the ``"scalar"`` and ``"record"``
    modes, whose ``n`` positions are its codes (``index.objects``), and
    ``None`` for the other two, whose codes are their rows.  Column
    buffers, node masks, and compiled kernels are all memoized here, so
    every consumer of one domain shares them.  This is deliberately
    lock-free: kernels are pure, so a racing double-computation wastes
    work but never corrupts a verdict.
    """

    __slots__ = ("n", "mode", "index", "scalar_kind", "fields", "ops",
                 "_range", "_sources", "_strides", "_columns",
                 "_field_kinds", "_masks", "_kernels")

    def __init__(self, n: int, mode: str,
                 index: Optional[DistinctRows] = None) -> None:
        self.n = n
        self.mode = mode
        self.index = index
        self.scalar_kind: Optional[str] = None
        self.fields: Tuple[str, ...] = ()
        self.ops = _make_ops(n)
        self._range: Optional[range] = None
        self._sources: Dict[str, List[Any]] = {}
        self._strides: Dict[str, Tuple[int, int]] = {}
        self._columns: Dict[Optional[str], _Column] = {}
        self._field_kinds: Dict[str, str] = {}
        self._masks: "OrderedDict[Tuple[str, Optional[str]], Any]" = \
            OrderedDict()
        self._kernels: Dict[str, Any] = {}

    # -- column access -----------------------------------------------------

    def field_kind(self, name: str) -> str:
        """Exact type of one record field's column (memoized type scan)."""
        kind = self._field_kinds.get(name)
        if kind is None:
            if name in self._sources:
                kind = _scan_kind(self._sources[name])
            else:
                kind = _scan_kind(item[name] for item in self.index.objects)
            self._field_kinds[name] = kind
        return kind

    def column(self, field: Optional[str]) -> _Column:
        """The typed column buffer for ``field`` (``None`` = the scalar
        column), materialized on first use and cached."""
        column = self._columns.get(field)
        if column is not None:
            return column
        if field is None:
            column = self._build_scalar_column()
        else:
            column = self._build_field_column(field)
        self._columns[field] = column
        return column

    def _build_scalar_column(self) -> _Column:
        kind = self.scalar_kind
        if kind is None:
            raise _Bail("record domain has no scalar column")
        if self._range is not None:
            return _Column("int", self.ops.int_range(self._range))
        if kind == "int":
            return _Column("int", self.ops.ints(self.index.objects))
        return _Column(kind, self.index.objects)

    def _build_field_column(self, field: str) -> _Column:
        kind = self.field_kind(field)
        if kind == "obj":
            return _Column("obj", None)
        if field in self._sources:
            source = self._sources[field]
            stride, repeat = self._strides[field]
            if kind == "int":
                values = self.ops.tiled_ints(source, stride, repeat)
            else:
                values = _tile(source, stride, repeat)
            return _Column(kind, values)
        items = self.index.objects
        if kind == "int":
            values = self.ops.ints(item[field] for item in items)
        else:
            values = [item[field] for item in items]
        return _Column(kind, values)

    # -- witness materialization -------------------------------------------

    def row(self, position: int) -> Any:
        """The object at row ``position`` of a backing without an index:
        the integer of a ``range``, an equal reconstruction of a
        product's dict."""
        if self._range is not None:
            return self._range[position]
        sources, strides = self._sources, self._strides
        return {
            name: sources[name][
                (position // strides[name][0]) % len(sources[name])]
            for name in self.fields
        }

    # -- mask cache --------------------------------------------------------

    def mask_get(self, key: Tuple[str, Optional[str]]) -> Any:
        mask = self._masks.get(key)
        if mask is not None:
            self._masks.move_to_end(key)
            if _OBS.enabled:
                _OBS.incr("columnar.masks.hits")
        return mask

    def mask_put(self, key: Tuple[str, Optional[str]], mask: Any) -> None:
        self._masks[key] = mask
        self._masks.move_to_end(key)
        while len(self._masks) > _MASK_CACHE_ENTRIES:
            self._masks.popitem(last=False)

    # -- kernels -----------------------------------------------------------

    def kernel(self, program: Any) -> Optional["Kernel"]:
        """A validated columnar kernel for one compiled program's folded
        tree, or ``None`` when it cannot be vectorized exactly over this
        encoding (memoized per program digest)."""
        digest = program.digest
        cached = self._kernels.get(digest)
        if cached is not None:
            return cached if cached is not _UNVECTORIZABLE else None
        try:
            _validate(program.root, self, None)
        except Exception:
            self._kernels[digest] = _UNVECTORIZABLE
            return None
        kernel = Kernel(self, program.root)
        self._kernels[digest] = kernel
        if _OBS.enabled:
            _OBS.incr("columnar.kernels")
        return kernel


#: Sentinel marking a program digest as known-unvectorizable.
_UNVECTORIZABLE = object()


class Kernel:
    """One compiled columnar scan: a folded spec tree bound to an
    encoding."""

    __slots__ = ("encoding", "root")

    def __init__(self, encoding: Encoding, root: Any) -> None:
        self.encoding = encoding
        self.root = root

    def flags(self) -> Optional[bytes]:
        """One verdict byte per code — 1 when the object of that code
        rides the hidden path, bit for bit the scalar program's verdict —
        evaluated bottom-up through the encoding's digest-keyed mask
        cache; ``None`` if a mask cannot be computed, and the caller
        runs the compiled program instead.  A code is a position in
        ``encoding.index.objects`` when the encoding has an index, and a
        row otherwise."""
        try:
            return self.encoding.ops.flags(
                _node_mask(self.root, self.encoding, None))
        except Exception:
            return None


# ---------------------------------------------------------------------------
# Validation: can this spec tree run exactly over this encoding?
# ---------------------------------------------------------------------------

def _leaf_target_kind(encoding: Encoding, field: Optional[str]) -> str:
    """The column kind a leaf at ``field`` context evaluates against —
    ``"record"`` for leaves applied to the record object itself."""
    if field is not None:
        return encoding.field_kind(field)
    if encoding.scalar_kind is not None:
        return encoding.scalar_kind
    return "record"


def _validate(node: Any, encoding: Encoding, field: Optional[str]) -> None:
    op = node.op
    if op in ("and", "or"):
        for child in node.children:
            _validate(child, encoding, field)
        return
    if op == "not":
        _validate(node.children[0], encoding, field)
        return
    if op == "attr":
        if field is not None:
            raise _Bail("nested attr")
        if encoding.scalar_kind is not None:
            # getattr on a bare int/str can legitimately resolve
            # (``.real``, ``.imag``) — out of scope for vectorization.
            raise _Bail("attr over a scalar domain")
        name = node.args[0]
        if name not in encoding.fields:
            return  # unknown field: the constant-False mask is exact
        if encoding.field_kind(name) == "obj":
            raise _Bail("mixed-type field column")
        _validate(node.children[0], encoding, name)
        return
    if op == "named":
        raise _Bail("opaque named predicate")
    kind = _leaf_target_kind(encoding, field)
    if kind == "obj":
        raise _Bail("mixed-type column")
    if kind == "record":
        # Leaves over the record object itself are constant across rows
        # (every row has the same keys) — except equality against a
        # mapping, which would need the materialized rows.
        if op == "eq" and isinstance(decode_value(node.args[0]), dict):
            raise _Bail("record equality")
    if op not in ("true", "false", "truthy", "eq", "range", "le", "ge",
                  "lenle", "contains", "ncontains", "matches", "isa"):
        raise _Bail(f"unsupported leaf {op!r}")


# ---------------------------------------------------------------------------
# Mask evaluation.
# ---------------------------------------------------------------------------

def _node_mask(node: Any, encoding: Encoding, field: Optional[str]) -> Any:
    cacheable = node.cost >= _MASK_CACHE_MIN_COST or node.children
    key = (node.digest, field)
    if cacheable:
        cached = encoding.mask_get(key)
        if cached is not None:
            return cached
    ops = encoding.ops
    op = node.op
    if op == "and":
        mask = _node_mask(node.children[0], encoding, field)
        for child in node.children[1:]:
            mask = ops.conj(mask, _node_mask(child, encoding, field))
    elif op == "or":
        mask = _node_mask(node.children[0], encoding, field)
        for child in node.children[1:]:
            mask = ops.disj(mask, _node_mask(child, encoding, field))
    elif op == "not":
        mask = ops.neg(_node_mask(node.children[0], encoding, field))
    elif op == "attr":
        name = node.args[0]
        if name not in encoding.fields:
            # ``_get`` raises on the missing key; the scalar shield maps
            # that to False at this node for every row.
            mask = ops.const(False)
        else:
            mask = _node_mask(node.children[0], encoding, name)
    else:
        mask = _leaf_mask(node, encoding, field)
    if cacheable:
        encoding.mask_put(key, mask)
        if _OBS.enabled:
            _OBS.incr("columnar.masks.misses")
    return mask


def _leaf_mask(node: Any, encoding: Encoding, field: Optional[str]) -> Any:
    ops = encoding.ops
    op, args = node.op, node.args
    if op == "true":
        return ops.const(True)
    if op == "false":
        return ops.const(False)
    kind = _leaf_target_kind(encoding, field)
    if kind == "record":
        return ops.const(_record_leaf_verdict(node, encoding))
    column = encoding.column(field)
    if kind == "int":
        return _int_leaf_mask(op, args, column, ops)
    return _text_leaf_mask(op, args, column, ops, kind)


def _record_leaf_verdict(node: Any, encoding: Encoding) -> bool:
    """Leaves applied to the record dict itself: every row has the same
    keys, so the scalar verdict (shield included) is one constant."""
    op, args = node.op, node.args
    fields = encoding.fields
    if op == "truthy":
        return bool(fields)
    if op == "lenle":
        return len(fields) <= args[0]
    if op == "isa":
        types = tuple(_resolve_type(mod, qual) for mod, qual in args[0])
        return isinstance({}, types)
    if op in ("contains", "ncontains"):
        needle = decode_value(args[0])
        representative = dict.fromkeys(fields)
        try:
            inside = needle in representative
        except TypeError:
            return False  # unhashable needle: both variants shield False
        return (not inside) if op == "ncontains" else inside
    if op == "eq":
        # non-mapping expected (validation bails on mappings): a dict
        # never equals it.
        return False
    # range/le/ge (int(dict) raises) and matches (search(dict) raises)
    # shield to False.
    return False


def _int_leaf_mask(op: str, args: Tuple[Any, ...], column: _Column,
                   ops: Any) -> Any:
    values = column.values
    if op == "truthy":
        return ops.nonzero(values)
    if op == "eq":
        expected = decode_value(args[0])
        if isinstance(expected, bool):
            expected = int(expected)
        if not isinstance(expected, (int, float)):
            return ops.const(False)  # an int never equals a non-number
        if isinstance(expected, int) and not \
                _I64_MIN <= expected <= _I64_MAX:
            return ops.const(False)  # column values all fit in int64
        return ops.equal(values, expected)
    if op == "le":
        bound = args[0]
        if bound >= _I64_MAX:
            return ops.const(True)
        if bound < _I64_MIN:
            return ops.const(False)
        return ops.at_most(values, bound)
    if op == "ge":
        bound = args[0]
        if bound <= _I64_MIN:
            return ops.const(True)
        if bound > _I64_MAX:
            return ops.const(False)
        return ops.at_least(values, bound)
    if op == "range":
        low, high = args
        if low > high:
            return ops.const(False)
        low = max(low, _I64_MIN)
        high = min(high, _I64_MAX)
        return ops.between(values, low, high)
    if op == "isa":
        types = tuple(_resolve_type(mod, qual) for mod, qual in args[0])
        return ops.const(isinstance(0, types))
    # len()/``in``/regex over an int raise; the scalar shield maps every
    # row to False.
    if op in ("lenle", "contains", "ncontains", "matches"):
        return ops.const(False)
    raise _Bail(f"unsupported int leaf {op!r}")


def _text_leaf_mask(op: str, args: Tuple[Any, ...], column: _Column,
                    ops: Any, kind: str) -> Any:
    values = column.values
    if op == "truthy":
        return ops.nonzero(column.lengths(ops))
    if op == "lenle":
        return ops.at_most(column.lengths(ops), args[0])
    if op == "eq":
        expected = decode_value(args[0])
        if not isinstance(expected, (str, bytes)):
            return ops.const(False)
        return ops.from_iter(1 if v == expected else 0 for v in values)
    if op in ("contains", "ncontains"):
        needle = decode_value(args[0])
        same = isinstance(needle, str) if kind == "str" \
            else isinstance(needle, (bytes, bytearray))
        if not same:
            # ``needle in text`` raises TypeError for a foreign needle;
            # both polarity variants shield to False.
            return ops.const(False)
        if op == "contains":
            return ops.from_iter(1 if needle in v else 0 for v in values)
        return ops.from_iter(0 if needle in v else 1 for v in values)
    if op == "matches":
        import re

        pattern = args[0]
        if kind == "bytes":
            try:
                search = re.compile(pattern.encode("latin-1")).search
            except (UnicodeEncodeError, re.error):
                return ops.const(False)  # scalar path raises per object
        else:
            search = re.compile(pattern).search
        return ops.from_iter(1 if search(v) else 0 for v in values)
    if op == "isa":
        types = tuple(_resolve_type(mod, qual) for mod, qual in args[0])
        sample = "" if kind == "str" else b""
        return ops.const(isinstance(sample, types))
    if op in ("range", "le", "ge"):
        # The comparison constructors coerce with ``int(·)`` — defined
        # for numeric strings/bytes, raising (→ False) otherwise.
        if op == "range":
            low, high = args

            def verdict(v: Any) -> int:
                try:
                    return 1 if low <= int(v) <= high else 0
                except Exception:
                    return 0
        elif op == "le":
            bound = args[0]

            def verdict(v: Any) -> int:
                try:
                    return 1 if int(v) <= bound else 0
                except Exception:
                    return 0
        else:
            bound = args[0]

            def verdict(v: Any) -> int:
                try:
                    return 1 if int(v) >= bound else 0
                except Exception:
                    return 0
        return ops.from_iter(map(verdict, values))
    raise _Bail(f"unsupported text leaf {op!r}")


# ---------------------------------------------------------------------------
# The encoder.
# ---------------------------------------------------------------------------

def _encodable_size(n: int) -> bool:
    return max(1, _MIN_ROWS) <= n <= _MAX_ROWS


def _build_encoding(domain: Any,
                    index: Optional[DistinctRows]) -> Optional[Encoding]:
    backing = getattr(domain, "backing", domain)
    if isinstance(backing, range):
        if not _encodable_size(len(backing)) or not (
                _I64_MIN <= backing.start <= _I64_MAX
                and _I64_MIN <= backing[-1] <= _I64_MAX):
            return None
        encoding = Encoding(len(backing), "range")
        encoding.scalar_kind = "int"
        encoding._range = backing
        return encoding
    if isinstance(backing, _LazyProduct):
        n = len(backing)
        names = backing._names
        columns = backing._columns
        if not _encodable_size(n) or len(set(names)) != len(names) or any(
                not isinstance(name, str) for name in names):
            return None
        encoding = Encoding(n, "product")
        encoding.fields = tuple(names)
        stride = 1
        for name, column in zip(reversed(names), reversed(columns)):
            encoding._sources[name] = column
            encoding._strides[name] = (stride, n // (stride * len(column)))
            stride *= len(column)
        return encoding
    if not isinstance(backing, (list, tuple)):
        return None  # a one-shot iterable is read once, by its scan
    if index is None:
        index = distinct_rows(domain)
    items = index.objects
    if not _encodable_size(len(items)):
        return None
    kind = _scan_kind(items)
    if kind != "obj":
        encoding = Encoding(len(items), "scalar", index)
        encoding.scalar_kind = kind
        return encoding
    first = items[0]
    if type(first) is not dict:
        return None
    fields = tuple(first)
    if not all(isinstance(name, str) for name in fields):
        return None
    width = len(fields)
    for item in items:
        if type(item) is not dict or len(item) != width:
            return None
        for name in fields:
            if name not in item:
                return None
    encoding = Encoding(len(items), "record", index)
    encoding.fields = fields
    return encoding


def encoding_for(domain: Any,
                 index: Optional[DistinctRows] = None) -> Optional[Encoding]:
    """The struct-of-arrays encoding of ``domain``, or ``None`` when the
    domain is not encodable (or outside the size thresholds).

    A list- or tuple-backed domain encodes the objects of its
    distinct-row index: ``index`` when the caller holds it already,
    :func:`~repro.core.witness.distinct_rows` otherwise.  Any other
    iterable is not encoded, so nothing but its scan reads it.
    Memoized on the domain object, validated against the backend/
    threshold configuration.  Each encoding built counts under
    ``columnar.encodings.<backend>`` (``numpy`` or ``stdlib``).
    """
    stamp = _config_stamp()
    try:
        memo = _DOMAIN_MEMO.get(domain)
    except TypeError:
        memo = None
    if memo is not None and memo[0] == stamp:
        return memo[1]
    try:
        encoding = _build_encoding(domain, index)
    except Exception:
        encoding = None
    if encoding is not None and _OBS.enabled:
        _OBS.incr(f"columnar.encodings.{encoding.ops.name}")
    try:
        _DOMAIN_MEMO[domain] = (stamp, encoding)
    except TypeError:
        pass  # not weakly referenceable: encoded again on every call
    return encoding


#: Per-domain-object encoding memo.  A *side table*, deliberately not a
#: domain attribute: an attribute would ride along in every later
#: pickle of the domain (dist task payloads, crash retries) and bloat
#: it with the full column set.  Weak keys keep encodings from pinning
#: dead domains.
_DOMAIN_MEMO: "weakref.WeakKeyDictionary[Any, Tuple[Any, ...]]" = \
    weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# The entry point.
# ---------------------------------------------------------------------------

def kernel_for(program: Any, domain: Any,
               index: Optional[DistinctRows] = None) -> Optional[Kernel]:
    """The columnar kernel of one compiled hidden-set program over one
    domain, or ``None`` when the strategy does not apply (disabled, no
    program, domain not encodable, or tree not vectorizable).

    ``index``, if given, must be the domain's distinct-row index.
    Validates (and memoizes) the kernel without computing any mask; its
    :meth:`Kernel.flags` give the verdicts, and
    ``kernel.encoding.ops.name`` the mask backend (``"numpy"`` or
    ``"stdlib"``).  The planner's strategy decision calls this
    (:func:`repro.core.plan.plan_scan`).
    """
    if not _ENABLED or program is None:
        return None
    encoding = encoding_for(domain, index)
    return None if encoding is None else encoding.kernel(program)
