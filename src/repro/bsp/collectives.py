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
alltoallv      per array, the runs every rank addressed to ``i``
exchange       partner's payload (pairwise, partners must be symmetric)
=============  ======================================================

Reductions support ``'sum'``, ``'min'``, ``'max'`` and operate elementwise on
NumPy arrays or directly on scalars.  Payload sizes are measured with
:func:`sizeof`, one recursive walk that understands NumPy arrays, scalars,
strings, bytes and containers.

``alltoallv`` is MPI_Alltoallv with the control and data channels split:
each rank's payload is ``(counts, arrays)`` — ``p`` per-destination row
counts plus aligned 1-D arrays whose rows are already grouped by
destination.  The resolver reads only the counts and the arrays' lengths
and item sizes: it checks the ``p × p`` counts matrix, prices it as
``counts × row bytes``, and routes each run as a slice (an ndarray view,
or an :class:`ArrayRef` sub-ref on a transport that keeps arrays out of
band).  An :class:`ArrayRef` sizes as the array it stands for, so a sweep
resolved over refs prices byte for byte like one resolved over the arrays.
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

    def __getitem__(self, run: slice) -> "ArrayRef":
        """The ref of the contiguous run ``array[start:stop]`` (1-D only)."""
        start, stop, step = run.indices(self.shape[0])
        if step != 1 or len(self.shape) != 1:
            raise TypeError("ArrayRef takes only contiguous 1-D slices")
        return ArrayRef(
            self.segment,
            self.offset + start * self.dtype.itemsize,
            (max(0, stop - start),),
            self.dtype,
        )


def sizeof(obj: Any) -> int:
    """Approximate wire size of a payload in bytes.

    NumPy arrays report their exact buffer size, and an :class:`ArrayRef`
    the size of the array it stands for; Python scalars count as 8 bytes
    (their natural wire encoding); containers sum their elements.  The
    goal is faithful *relative* accounting for the cost model, not Python
    object-graph memory measurement.
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
        return sum(sizeof(k) + sizeof(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(sizeof(x) for x in obj)
    # Dataclass-ish objects: count their public attributes.
    if hasattr(obj, "__dict__"):
        return sum(sizeof(v) for v in vars(obj).values())
    return 8


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


def _resolve_alltoallv(payloads: list[Any]) -> ResolvedCollective:
    """Check, price and route one ``alltoallv`` (see the module docstring)."""
    p = len(payloads)
    width = len(payloads[0][1])
    for r, (counts, arrays) in enumerate(payloads):
        shapes = [a.shape for a in arrays]
        aligned = len(arrays) == width and len(set(shapes)) == 1
        if len(counts) != p:
            problem = f"{len(counts)} counts for {p} ranks"
        elif not aligned or len(shapes[0]) != 1:
            need = max(width, 1)
            problem = f"need {need} aligned 1-D arrays, got shapes {shapes}"
        elif min(counts) < 0:
            problem = f"negative count in {list(counts)}"
        elif sum(counts) != shapes[0][0]:
            problem = (
                f"counts sum to {sum(counts)} but the arrays hold "
                f"{shapes[0][0]} rows"
            )
        else:
            continue
        raise BSPError(f"alltoallv at rank {r}: {problem}")
    matrix = np.array([counts for counts, _ in payloads], dtype=np.int64)
    row_bytes = np.array(
        [sum(a.dtype.itemsize for a in arrays) for _, arrays in payloads]
    )
    # Row sums of the byte matrix are send volumes, column sums receive
    # volumes.
    nbytes = matrix * row_bytes[:, None]
    send, recv = nbytes.sum(axis=1), nbytes.sum(axis=0)
    bounds = np.zeros((p, p + 1), dtype=np.int64)
    np.cumsum(matrix, axis=1, out=bounds[:, 1:])
    rows = list(enumerate(bounds.tolist()))
    columns = [[arrays[k] for _, arrays in payloads] for k in range(width)]
    results = [
        tuple(
            [column[src][row[dst]: row[dst + 1]] for src, row in rows]
            for column in columns
        )
        for dst in range(p)
    ]
    return ResolvedCollective(
        results, int((send + recv).max()), int(send.sum())
    )


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

    if op == "alltoallv":
        return _resolve_alltoallv(payloads)

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
