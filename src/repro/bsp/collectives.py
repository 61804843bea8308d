"""Data semantics of BSP collectives.

The engine (:mod:`repro.bsp.engine`) rendezvouses all ranks at a collective
and hands their payloads to :func:`resolve`, which computes what every rank
receives, plus the byte counts the cost model needs.  Semantics mirror MPI:

=============  ======================================================
op             result at rank ``i``
=============  ======================================================
barrier        ``None``
bcast          root's payload
gather         list of all payloads at root, ``None`` elsewhere
allgather      list of all payloads everywhere
scatter        ``payloads[root][i]``
reduce         combined value at root, ``None`` elsewhere
allreduce      combined value everywhere
scan           inclusive prefix combination of payloads ``0..i``
alltoall       ``[payloads[j][i] for j in range(p)]``
exchange       partner's payload (pairwise, partners must be symmetric)
=============  ======================================================

Reductions support ``'sum'``, ``'min'``, ``'max'`` and operate elementwise on
NumPy arrays or directly on scalars.  Payload sizes are measured with
:func:`sizeof`, which understands NumPy arrays, scalars, strings, bytes and
(recursively) containers.  ``sizeof`` is on the engine's superstep hot path
(every collective sizes every rank's payload), so it dispatches through a
per-type cache with vectorized fast paths for the payload shapes the sort
programs actually send — ndarrays, scalars, and flat homogeneous sequences
of either; :func:`sizeof_reference` keeps the plain recursive walk as the
semantic ground truth the fast path is tested against.  An :class:`ArrayRef`
(a transport's descriptor for an array kept out of band) sizes as the array
it stands for, so a sweep resolved over refs prices byte for byte like one
resolved over the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import BSPError, CollectiveMismatchError

__all__ = [
    "ArrayRef",
    "VALUE_OPS",
    "sizeof",
    "sizeof_reference",
    "resolve",
    "ResolvedCollective",
    "REDUCERS",
]


@dataclass(frozen=True)
class ArrayRef:
    """Descriptor for one ndarray whose bytes sit in a shared segment.

    Names the segment, the byte offset of the array in it, and the
    array's shape and dtype; ``nbytes`` is derived from those.  Ops
    outside :data:`VALUE_OPS` route refs without reading them.
    """

    segment: str
    offset: int
    shape: tuple[int, ...]
    dtype: np.dtype
    nbytes: int = field(init=False)

    def __post_init__(self) -> None:
        # math.prod: np.prod on a shape tuple costs microseconds per ref.
        object.__setattr__(
            self, "nbytes", math.prod(self.shape) * self.dtype.itemsize
        )

    def __len__(self) -> int:
        # Mirror ndarray length semantics so dataclasses that validate
        # lengths in __post_init__ (e.g. Shard) rebuild cleanly with
        # refs substituted for their arrays.
        if not self.shape:
            raise TypeError("len() of unsized ArrayRef")
        return self.shape[0]


def sizeof_reference(obj: Any) -> int:
    """Approximate wire size of a payload in bytes (recursive reference).

    NumPy arrays report their exact buffer size; Python scalars count as 8
    bytes (their natural wire encoding); containers sum their elements.  The
    goal is faithful *relative* accounting for the cost model, not Python
    object-graph memory measurement.

    This is the original, obviously-correct recursive walk.  :func:`sizeof`
    is the production entry point and must agree with it on every payload;
    ``tests/bsp/test_sizeof.py`` enforces the equivalence.
    """
    if obj is None:
        return 0
    if isinstance(obj, (np.ndarray, ArrayRef)):
        return int(obj.nbytes)
    if isinstance(obj, np.void):
        # Structured scalar (one record row): exact record bytes, not the
        # generic 8-byte scalar word.
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, dict):
        return sum(sizeof_reference(k) + sizeof_reference(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(sizeof_reference(x) for x in obj)
    # Dataclass-ish objects: count their public attributes.
    if hasattr(obj, "__dict__"):
        return sum(sizeof_reference(v) for v in vars(obj).values())
    return 8


# ------------------------------------------------------------------ #
# Fast-path sizeof: per-type dispatch cache + flat-sequence batching.
# ------------------------------------------------------------------ #
_SCALAR_TYPES = frozenset((bool, int, float, complex))


def _sizeof_none(obj: Any) -> int:
    return 0


def _sizeof_ndarray(obj: np.ndarray) -> int:
    return int(obj.nbytes)


def _sizeof_scalar(obj: Any) -> int:
    return 8


def _sizeof_void(obj: np.void) -> int:
    return int(obj.nbytes)


def _sizeof_buffer(obj: Any) -> int:
    return len(obj)


def _sizeof_str(obj: str) -> int:
    return len(obj.encode())


def _sizeof_dict(obj: dict) -> int:
    return sum(sizeof(k) + sizeof(v) for k, v in obj.items())


def _sizeof_flat_sequence(obj: Any) -> int:
    """Size a list/tuple/set, batching the homogeneous flat shapes.

    The sort programs overwhelmingly send flat sequences — per-destination
    ndarray rows for ``alltoall``, splitter/count vectors as Python lists.
    When every element is the same scalar type the answer is ``8 * len``;
    when every element is an ndarray the buffer sizes sum without any
    per-element dispatch.  Mixed/nested sequences fall back to the generic
    per-element walk.
    """
    if not obj:
        return 0
    kinds = {type(x) for x in obj}
    if len(kinds) == 1:
        kind = next(iter(kinds))
        if kind in _SCALAR_TYPES:
            return 8 * len(obj)
        if kind is np.ndarray or kind is ArrayRef:
            return int(sum(x.nbytes for x in obj))
        if issubclass(kind, np.void):
            return int(sum(x.nbytes for x in obj))
        if issubclass(kind, np.generic):
            return 8 * len(obj)
    return sum(sizeof(x) for x in obj)


#: Exact-type dispatch table.  Seeded with the builtin payload types; other
#: types are resolved once through the isinstance ladder of
#: :func:`sizeof_reference` and then memoized, so repeated payloads of the
#: same type (the common case inside a superstep sweep) never re-walk it.
_SIZEOF_DISPATCH: dict[type, Callable[[Any], int]] = {
    type(None): _sizeof_none,
    np.ndarray: _sizeof_ndarray,
    ArrayRef: _sizeof_ndarray,
    np.void: _sizeof_void,
    bool: _sizeof_scalar,
    int: _sizeof_scalar,
    float: _sizeof_scalar,
    complex: _sizeof_scalar,
    bytes: _sizeof_buffer,
    bytearray: _sizeof_buffer,
    memoryview: _sizeof_buffer,
    str: _sizeof_str,
    dict: _sizeof_dict,
    list: _sizeof_flat_sequence,
    tuple: _sizeof_flat_sequence,
    set: _sizeof_flat_sequence,
    frozenset: _sizeof_flat_sequence,
}


def _resolve_handler(kind: type) -> Callable[[Any], int]:
    """Mirror ``sizeof_reference``'s isinstance ladder, once per type."""
    if issubclass(kind, np.ndarray):
        return _sizeof_ndarray
    if issubclass(kind, np.void):
        return _sizeof_void
    if issubclass(kind, (bool, int, float, complex, np.generic)):
        return _sizeof_scalar
    if issubclass(kind, (bytes, bytearray, memoryview)):
        return _sizeof_buffer
    if issubclass(kind, str):
        return _sizeof_str
    if issubclass(kind, dict):
        return _sizeof_dict
    if issubclass(kind, (list, tuple, set, frozenset)):
        return _sizeof_flat_sequence
    return _sizeof_attrs_or_opaque


def _sizeof_attrs_or_opaque(obj: Any) -> int:
    # Dataclass-ish objects count their attributes; instances without a
    # __dict__ (pure-__slots__ classes, opaque extension types) count as one
    # 8-byte word, matching sizeof_reference's terminal case.
    try:
        attrs = vars(obj)
    except TypeError:
        return 8
    return sum(sizeof(v) for v in attrs.values())


def sizeof(obj: Any) -> int:
    """Approximate wire size of a payload in bytes (cached fast path).

    Semantics are exactly those of :func:`sizeof_reference`; the dispatch
    cache and the flat-sequence batching only change the constant factor.
    """
    handler = _SIZEOF_DISPATCH.get(type(obj))
    if handler is None:
        handler = _resolve_handler(type(obj))
        _SIZEOF_DISPATCH[type(obj)] = handler
    return handler(obj)


def _reduce_pair(a: Any, b: Any, op: str) -> Any:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if op == "sum":
            return np.add(a, b)
        if op == "min":
            return np.minimum(a, b)
        if op == "max":
            return np.maximum(a, b)
    else:
        if op == "sum":
            return a + b
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
    raise BSPError(f"unsupported reduction op: {op!r}")


REDUCERS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: _reduce_pair(a, b, "sum"),
    "min": lambda a, b: _reduce_pair(a, b, "min"),
    "max": lambda a, b: _reduce_pair(a, b, "max"),
}


def _combine(payloads: Sequence[Any], op: str) -> Any:
    if op not in REDUCERS:
        raise BSPError(f"unsupported reduction op: {op!r}")
    reducer = REDUCERS[op]
    acc = payloads[0]
    if isinstance(acc, np.ndarray):
        acc = acc.copy()
    for value in payloads[1:]:
        acc = reducer(acc, value)
    return acc


class ResolvedCollective:
    """Per-rank results plus byte accounting for one collective."""

    __slots__ = ("results", "max_bytes", "total_bytes")

    def __init__(self, results: list[Any], max_bytes: int, total_bytes: int):
        self.results = results
        self.max_bytes = max_bytes
        self.total_bytes = total_bytes


#: Ops whose resolution computes with payload values.  Every other op
#: only routes payloads, reading nothing but their sizes and sequence
#: structure, so a transport may resolve it over :class:`ArrayRef` stand-ins.
VALUE_OPS = frozenset({"reduce", "allreduce", "scan"})


def resolve(
    op: str,
    payloads: list[Any],
    root: int,
    reduce_op: str = "sum",
    partners: list[int] | None = None,
) -> ResolvedCollective:
    """Compute every rank's result for one collective rendezvous."""
    p = len(payloads)

    if op == "barrier":
        return ResolvedCollective([None] * p, 0, 0)

    if op == "bcast":
        value = payloads[root]
        size = sizeof(value)
        return ResolvedCollective([value] * p, size, size * max(0, p - 1))

    if op == "scatter":
        chunks = payloads[root]
        if chunks is None or len(chunks) != p:
            raise BSPError(
                f"scatter root payload must be a length-{p} sequence, "
                f"got {type(chunks).__name__}"
                + (f" of length {len(chunks)}" if hasattr(chunks, "__len__") else "")
            )
        chunk_total = sum(sizeof(c) for c in chunks)
        return ResolvedCollective(list(chunks), chunk_total, chunk_total)

    if op in ("alltoall", "alltoallv"):
        for r, row in enumerate(payloads):
            if row is None or len(row) != p:
                raise BSPError(
                    f"alltoall payload at rank {r} must be a length-{p} "
                    f"sequence of per-destination items"
                )
        results = [[payloads[src][dst] for src in range(p)] for dst in range(p)]
        # Size every (src, dst) element exactly once: row sums are the send
        # volumes, column sums the receive volumes.
        elem_bytes = np.array(
            [[sizeof(x) for x in row] for row in payloads], dtype=np.int64
        )
        send_bytes = elem_bytes.sum(axis=1)
        recv_bytes = elem_bytes.sum(axis=0)
        vmax = int((send_bytes + recv_bytes).max()) if p else 0
        return ResolvedCollective(results, vmax, int(send_bytes.sum()))

    # The remaining ops all charge by per-rank payload sizes.
    sizes = [sizeof(x) for x in payloads]
    total = sum(sizes)
    largest = max(sizes) if sizes else 0

    if op == "gather":
        results: list[Any] = [None] * p
        results[root] = list(payloads)
        return ResolvedCollective(results, total, total)

    if op == "allgather":
        everywhere = list(payloads)
        return ResolvedCollective([everywhere] * p, total, total)

    if op == "reduce":
        combined = _combine(payloads, reduce_op)
        results = [None] * p
        results[root] = combined
        return ResolvedCollective(results, largest, total)

    if op == "allreduce":
        combined = _combine(payloads, reduce_op)
        return ResolvedCollective([combined] * p, largest, total)

    if op == "scan":
        results = []
        acc: Any = None
        for i, value in enumerate(payloads):
            if i == 0:
                acc = value.copy() if isinstance(value, np.ndarray) else value
            else:
                acc = REDUCERS[reduce_op](acc, value)
            results.append(acc.copy() if isinstance(acc, np.ndarray) else acc)
        return ResolvedCollective(results, largest, total)

    if op == "exchange":
        if partners is None:
            raise BSPError("exchange requires a partners list")
        for rank, partner in enumerate(partners):
            if not 0 <= partner < p:
                raise CollectiveMismatchError(
                    f"rank {rank} named invalid exchange partner {partner}"
                )
            if partners[partner] != rank:
                raise CollectiveMismatchError(
                    f"asymmetric exchange: rank {rank} -> {partner} but "
                    f"rank {partner} -> {partners[partner]}"
                )
        results = [payloads[partners[rank]] for rank in range(p)]
        return ResolvedCollective(results, largest, total)

    raise BSPError(f"unknown collective op: {op!r}")
