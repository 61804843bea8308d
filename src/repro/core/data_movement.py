"""Phase 3: bucketize, all-to-all exchange, and merge (identical for HSS,
sample sort and histogram sort — §2.2 step 3).

Once splitters are known, every rank cuts its sorted local array into ``p``
contiguous runs (binary search per splitter), sends run ``i`` to rank ``i``
in one personalized all-to-all, and merges the ``p`` sorted runs it
receives.  Keys may carry a fixed-size payload (the Mira experiments use
8-byte keys + 4-byte payloads); payloads are permuted along with their keys.

Cost charging follows §5.1: partitioning is ``(p−1)`` binary searches plus a
linear pass of memory traffic; the merge is ``(N_recv)·log p`` comparisons.
Every bare-key sort in the programs goes through :func:`_sort_keys`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.bsp.engine import Context

__all__ = [
    "Shard",
    "locally_sorted_shard",
    "partition_by_splitters",
    "exchange_and_merge",
]


@dataclass
class Shard:
    """A rank's keys (sorted) plus an optional aligned payload array."""

    keys: np.ndarray
    payload: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.payload is not None and len(self.payload) != len(self.keys):
            raise ValueError(
                f"payload length {len(self.payload)} != keys length {len(self.keys)}"
            )

    def __len__(self) -> int:
        return len(self.keys)

    def slice(self, start: int, stop: int) -> "Shard":
        return Shard(
            self.keys[start:stop],
            None if self.payload is None else self.payload[start:stop],
        )


def _sort_keys(keys: np.ndarray, *, inplace: bool = False) -> np.ndarray:
    """Sort a bare key array ascending, with the kernel its dtype allows.

    Equal integer keys are bit-identical, so stability cannot be observed
    and NumPy's default kernel (a SIMD quicksort where the CPU has one)
    does the work.  Every other dtype keeps ``kind="stable"``: structured
    keys need it, and for floats the default kernel is not a bitwise
    permutation (its sorting networks can turn ``-0.0`` into ``0.0`` and
    canonicalize NaN payloads).  ``inplace`` sorts a caller-owned buffer
    (a fresh concatenation) without copying it first.
    """
    kind = None if keys.dtype.kind in "iu" else "stable"
    if inplace:
        keys.sort(kind=kind)
        return keys
    return np.sort(keys, kind=kind)


def locally_sorted_shard(
    ctx: Context,
    keys: np.ndarray,
    payload: np.ndarray | None = None,
) -> Shard:
    """Local sort with cost charging, for every program's phase 1.

    When a payload rides along it is permuted with its keys by a stable
    argsort, so equal keys keep their payloads' input order; bare keys go
    through :func:`_sort_keys`.  Charged as a plain key sort either way,
    matching §5.1's accounting.
    """
    if payload is not None:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        payload = payload[order]
    else:
        keys = _sort_keys(keys)
    ctx.charge_sort(len(keys), key_bytes=keys.dtype.itemsize)
    return Shard(keys, payload)


def partition_by_splitters(
    shard: Shard,
    positions: np.ndarray,
) -> list[Shard]:
    """Cut a sorted shard into ``len(positions)+1`` contiguous bucket runs.

    ``positions`` are the pre-computed boundary indices (from the key-space
    adapter's ``bucket_positions``); they must be non-decreasing.
    """
    n = len(shard)
    bounds = np.empty(len(positions) + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = positions
    bounds[-1] = n
    if np.any(np.diff(bounds) < 0):
        raise ValueError("bucket boundary positions must be non-decreasing")
    return [
        shard.slice(int(bounds[i]), int(bounds[i + 1]))
        for i in range(len(bounds) - 1)
    ]


def _merge_runs(runs: list[Shard], key_dtype: np.dtype) -> Shard:
    """Merge ``p`` sorted runs.

    Implemented as concatenate + sort, the vectorized stand-in for a
    ``p``-way merge.  Bare keys go through :func:`_sort_keys`; with a
    payload, a stable argsort keeps equal keys in run order (rank order,
    then each run's own order).  The simulated cost is charged separately
    as ``total·log₂(ways)`` by the caller, whatever kernel does the work.
    """
    nonempty = [r for r in runs if len(r)]
    if not nonempty:
        return Shard(np.empty(0, dtype=key_dtype))
    keys = np.concatenate([r.keys for r in nonempty])
    have_payload = nonempty[0].payload is not None
    if have_payload:
        payload = np.concatenate([r.payload for r in nonempty])
        order = np.argsort(keys, kind="stable")
        return Shard(keys[order], payload[order])
    return Shard(_sort_keys(keys, inplace=True))


def exchange_and_merge(
    ctx: Context,
    shard: Shard,
    positions: np.ndarray,
    *,
    node_combining: bool = False,
    key_bytes: int | None = None,
) -> Generator:
    """Run the full data-movement phase for one rank (``yield from`` this).

    Parameters
    ----------
    ctx:
        BSP context.
    shard:
        The rank's *sorted* local data.
    positions:
        Bucket boundary indices for the ``p−1`` splitters.
    node_combining:
        Price the all-to-all with §6.1.1 per-node message combining.
    key_bytes:
        Override the per-key byte size for cost charging (defaults to the
        key dtype's item size plus payload item size).

    Returns
    -------
    The rank's merged output :class:`Shard`.
    """
    p = ctx.nprocs
    if len(positions) != p - 1:
        raise ValueError(
            f"expected {p - 1} boundary positions, got {len(positions)}"
        )
    if key_bytes is None:
        key_bytes = shard.keys.dtype.itemsize + (
            shard.payload.dtype.itemsize if shard.payload is not None else 0
        )

    # Bucketize: p−1 binary searches (already done by the caller to get
    # `positions`) plus one linear pass of copies.
    outgoing = partition_by_splitters(shard, positions)
    ctx.charge_binary_searches(p - 1, max(1, len(shard)))
    ctx.charge_bytes(len(shard) * key_bytes)

    payload_rows = [
        (run.keys, run.payload) if run.payload is not None else run.keys
        for run in outgoing
    ]
    received = yield from ctx.alltoall(payload_rows, node_combining=node_combining)

    if outgoing[0].payload is not None:
        runs = [Shard(k, v) for (k, v) in received]
    else:
        runs = [Shard(k) for k in received]
    merged = _merge_runs(runs, shard.keys.dtype)
    ctx.charge_merge(len(merged), p, key_bytes=key_bytes)
    return merged
