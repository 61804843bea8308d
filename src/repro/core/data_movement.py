"""Phase 3: bucketize, all-to-all exchange, and merge (identical for HSS,
sample sort and histogram sort — §2.2 step 3).

Once splitters are known, every rank cuts its sorted local array into ``p``
contiguous runs (binary search per splitter) and sends run ``i`` to rank
``i`` in one ``alltoallv``: the sorted shard itself plus ``p`` run lengths,
never a list of per-destination pieces.  Each rank receives one buffer per
array, its runs concatenated in source-rank order, and merges it with one
sort.  Keys may carry a fixed-size payload (the Mira experiments use 8-byte
keys + 4-byte payloads); the payload travels as a second aligned array and
is permuted along with its keys.

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
) -> np.ndarray:
    """Run lengths cutting a sorted shard into ``len(positions)+1`` buckets.

    ``positions`` are the pre-computed boundary indices (from the key-space
    adapter's ``bucket_positions``); they must be non-decreasing.  Run
    ``i`` is ``shard[bounds[i]:bounds[i+1]]`` with ``bounds`` the
    positions framed by ``0`` and ``len(shard)``.
    """
    counts = np.diff(positions, prepend=0, append=len(shard))
    if np.any(counts < 0):
        raise ValueError("bucket boundary positions must be non-decreasing")
    return counts


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
    arrays = [a for a in (shard.keys, shard.payload) if a is not None]
    if key_bytes is None:
        key_bytes = sum(a.dtype.itemsize for a in arrays)

    # Bucketize: p−1 binary searches (already done by the caller to get
    # `positions`) plus one linear pass of copies.
    counts = partition_by_splitters(shard, positions)
    ctx.charge_binary_searches(p - 1, max(1, len(shard)))
    ctx.charge_bytes(len(shard) * key_bytes)

    keys, *payload = yield from ctx.alltoallv(
        counts, *arrays, node_combining=node_combining
    )
    if payload:
        # A stable argsort keeps equal keys in source-rank order, then in
        # each run's own order.
        order = np.argsort(keys, kind="stable")
        merged = Shard(keys[order], payload[0][order])
    else:
        merged = Shard(_sort_keys(keys, inplace=True))
    # Concatenate + sort is the vectorized stand-in for a p-way merge; the
    # simulated cost is charged as one, whatever kernel does the work.
    ctx.charge_merge(len(merged), p, key_bytes=key_bytes)
    return merged
