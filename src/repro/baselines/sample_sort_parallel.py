"""Regular-sampling sample sort with a *parallel* sample sort (§4.1.2).

The paper notes the ``p²/ε`` sample makes central splitter selection the
scalability bottleneck of PSRS, and that "one way to make regular sampling
scalable is to sort the sample in parallel", citing Goodrich's
communication-efficient scheme.  This variant implements that idea over
the BSP engine:

1. every rank draws its ``s = ⌈p/ε⌉`` regular sample and keeps it local —
   the ``p·s`` sample is never gathered anywhere;
2. the distributed sample is sorted *in place across ranks* with block
   bitonic merge (padding ragged blocks with key-space-max sentinels);
3. splitter ``i`` is the sample element of global rank ``s·i − p/2``
   (Theorem 4.1.2's rule); its owner rank is computed arithmetically from
   the sorted block layout and the ``p−1`` chosen keys are shared with a
   single allgather.

Compared to the central variant, the maximum per-rank memory and the
gather hotspot drop from ``Θ(p²/ε)`` to ``Θ(p/ε)`` — the point of the
exercise — at the price of ``Θ(log² p)`` extra (small) exchange rounds.

Requires a power-of-two ``p`` (bitonic's precondition); integer or float
keys strictly below the dtype maximum (reserved as the padding sentinel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.baselines.sample_sort import SampleSortConfig
from repro.bsp.engine import Context
from repro.core.data_movement import Shard, _sort_keys, exchange_and_merge
from repro.errors import ConfigError
from repro.sampling.regular import regular_sample

__all__ = ["ParallelSampleSortStats", "sample_sort_regular_parallel_program"]


@dataclass
class ParallelSampleSortStats:
    """Accounting for the distributed sample-sorting phase."""

    oversample: int
    total_sample: int
    sample_block: int
    bitonic_exchanges: int
    splitters: np.ndarray


def _sentinel(dtype: np.dtype):
    if np.issubdtype(dtype, np.floating):
        return np.inf
    return np.iinfo(dtype).max


def _keep_half(mine: np.ndarray, theirs: np.ndarray, keep_low: bool) -> np.ndarray:
    n = len(mine)
    merged = _sort_keys(np.concatenate((mine, theirs)), inplace=True)
    return merged[:n] if keep_low else merged[len(theirs):]


@register_algorithm(
    name="sample-regular-parallel",
    config_cls=SampleSortConfig,
    balanced=True,
    paper_section="4.1.2",
    description="PSRS with the sample sorted in parallel (Goodrich-style)",
)
def sample_sort_regular_parallel_program(
    ctx: Context,
    keys: np.ndarray,
    *,
    eps: float = 0.05,
    seed: int = 0,
    oversample: int | None = None,
) -> Generator:
    """SPMD parallel-PSRS; returns ``(Shard, ParallelSampleSortStats)``."""
    del seed
    p = ctx.nprocs
    if p & (p - 1):
        raise ConfigError(
            f"parallel sample sorting uses bitonic merge: p must be a "
            f"power of two, got {p}"
        )
    s = int(oversample) if oversample is not None else max(1, math.ceil(p / eps))
    dtype = keys.dtype
    pad = _sentinel(dtype)

    with ctx.phase("local sort"):
        keys = _sort_keys(keys)
        ctx.charge_sort(len(keys), key_bytes=dtype.itemsize)

    with ctx.phase("splitting"):
        sample = regular_sample(keys, s)
        if np.any(sample == pad):
            raise ConfigError(
                "keys collide with the padding sentinel (dtype max); "
                "shift the key range or use the central variant"
            )
        # Equal blocks for bitonic: pad to the global max sample length.
        sizes = yield from ctx.allgather(np.int64(len(sample)))
        block = int(max(int(x) for x in sizes))
        total_real = int(sum(int(x) for x in sizes))
        padded = np.full(block, pad, dtype=dtype)
        padded[: len(sample)] = sample

        exchanges = 0
        if p > 1 and block > 0:
            log_p = p.bit_length() - 1
            for i in range(log_p):
                for j in range(i, -1, -1):
                    partner = ctx.rank ^ (1 << j)
                    ascending = ((ctx.rank >> (i + 1)) & 1) == 0
                    theirs = yield from ctx.exchange(partner, padded)
                    padded = _keep_half(
                        padded, theirs, (ctx.rank < partner) == ascending
                    )
                    ctx.charge_merge(
                        2 * block, 2, key_bytes=dtype.itemsize
                    )
                    exchanges += 1

        # The distributed sample is now globally sorted with all sentinels
        # at the tail.  Splitter i = global sample rank s_eff*i - p/2
        # (1-based); owners compute their splitters locally.
        s_eff = max(1, total_real // p)
        wanted = np.clip(
            np.arange(1, p, dtype=np.int64) * s_eff - p // 2 - 1,
            0,
            total_real - 1,
        )
        my_lo = ctx.rank * block
        mine_mask = (wanted >= my_lo) & (wanted < my_lo + block)
        my_pairs = [
            (int(i), padded[int(g - my_lo)])
            for i, g in zip(np.where(mine_mask)[0], wanted[mine_mask])
        ]
        shared = yield from ctx.allgather(my_pairs)
        chosen: dict[int, object] = {}
        for pairs in shared:
            for i, key in pairs:
                chosen[i] = key
        splitters = np.array(
            [chosen[i] for i in range(p - 1)], dtype=dtype
        )
        positions = np.searchsorted(keys, splitters, side="left").astype(np.int64)
        ctx.charge_binary_searches(p - 1, max(1, len(keys)))

    with ctx.phase("data exchange"):
        merged = yield from exchange_and_merge(ctx, Shard(keys), positions)
    return merged, ParallelSampleSortStats(
        oversample=s,
        total_sample=total_real,
        sample_block=block,
        bitonic_exchanges=exchanges,
        splitters=splitters,
    )
