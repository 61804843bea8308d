"""Parallel sorting by over-partitioning (Li & Sevcik; §4.2).

The input is cut into ``p·k`` buckets (``k`` = over-partitioning ratio,
log p in the original paper) using ``p·k − 1`` splitters chosen from a
random sample.  Having many more buckets than processors lets the assignment
step smooth out bucket-size variance, achieving load balance with a far
smaller sample than one-shot sample sort.

The original algorithm assigns buckets to shared-memory processors through a
size-ordered task queue.  The paper notes *"it is not immediately clear how
to extend the idea of task queues for a distributed cluster"* — so, as our
distributed adaptation, the central processor computes global bucket sizes
(one reduction) and assigns **contiguous runs of buckets** to processors by
a greedy scan against the average-load target.  Contiguity preserves the
global order of the output (so the result is verifiable like every other
sorter here) while keeping the variance-smoothing benefit of
over-partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.bsp.engine import Context
from repro.core.data_movement import Shard, _sort_keys, exchange_and_merge
from repro.errors import ConfigError
from repro.sampling.random_blocks import block_random_sample
from repro.utils.rng import RngTree

__all__ = [
    "OverPartitionConfig",
    "OverPartitionStats",
    "over_partition_program",
    "assign_buckets_greedy",
]


@dataclass(frozen=True)
class OverPartitionConfig:
    """Typed knobs for parallel sorting by over-partitioning."""

    #: Sampling seed.
    seed: int = 0
    #: Over-partitioning ratio ``k`` (buckets = ``k·p``); None = the
    #: Li & Sevcik default ``⌈log₂ p⌉ + 1``.
    ratio: int | None = None
    #: Sample keys per bucket used to pick the bucket splitters.
    oversample: int = 32


@dataclass
class OverPartitionStats:
    """Accounting for the over-partitioning run."""

    ratio: int
    oversample: int
    total_sample: int
    bucket_count: int
    buckets_per_proc: np.ndarray


def assign_buckets_greedy(bucket_sizes: np.ndarray, p: int) -> np.ndarray:
    """Assign ``len(bucket_sizes)`` contiguous buckets to ``p`` processors.

    Greedy scan: keep adding buckets to the current processor until its load
    reaches the running average of the *remaining* work; always leaves
    enough buckets for the remaining processors.  Returns the bucket-to-
    processor map (non-decreasing).
    """
    nb = len(bucket_sizes)
    if nb < p:
        raise ConfigError(f"need at least {p} buckets, got {nb}")
    owner = np.empty(nb, dtype=np.int64)
    remaining = float(bucket_sizes.sum())
    b = 0
    for proc in range(p):
        procs_left = p - proc
        target = remaining / procs_left
        load = 0.0
        start = b
        # Must leave (procs_left - 1) buckets for the remaining processors.
        while b < nb - (procs_left - 1):
            nxt = float(bucket_sizes[b])
            # Take the bucket if we're under target or taking it overshoots
            # less than stopping undershoots.
            if load + nxt - target <= target - load or load == 0.0:
                load += nxt
                b += 1
            else:
                break
        if proc == p - 1:
            b = nb
            load = float(bucket_sizes[start:].sum())
        owner[start:b] = proc
        remaining -= load
    return owner


@register_algorithm(
    name="over-partition",
    config_cls=OverPartitionConfig,
    balanced=False,
    paper_section="4.2",
    description="over-partitioning with contiguous greedy bucket assignment",
)
def over_partition_program(
    ctx: Context,
    keys: np.ndarray,
    *,
    eps: float = 0.05,
    seed: int = 0,
    ratio: int | None = None,
    oversample: int = 32,
) -> Generator:
    """SPMD over-partitioning sort; returns ``(Shard, OverPartitionStats)``.

    Parameters
    ----------
    ratio:
        Over-partitioning ratio ``k`` (buckets = ``k·p``); defaults to
        ``⌈log₂ p⌉ + 1``, the setting Li & Sevcik found effective.
    oversample:
        Sample keys per *bucket* used to pick the ``k·p − 1`` splitters.
    """
    p = ctx.nprocs
    if ratio is None:
        ratio = max(2, int(np.ceil(np.log2(max(2, p)))) + 1)
    if ratio < 1 or oversample < 1:
        raise ConfigError("ratio and oversample must be >= 1")
    nbuckets = ratio * p
    rng = RngTree(seed).generator("over-partition", ctx.rank)

    with ctx.phase("local sort"):
        keys = _sort_keys(keys)
        ctx.charge_sort(len(keys), key_bytes=keys.dtype.itemsize)

    with ctx.phase("splitting"):
        # Sample: `ratio * oversample` keys per processor → `oversample`
        # per bucket overall.
        local_sample = block_random_sample(keys, ratio * oversample, rng)
        gathered = yield from ctx.gather(local_sample, root=0)
        if ctx.rank == 0:
            sample = np.sort(np.concatenate([g for g in gathered if len(g)]))
            ctx.charge_sort(len(sample), key_bytes=sample.dtype.itemsize)
            m = len(sample)
            idx = np.clip(
                (np.arange(1, nbuckets, dtype=np.int64) * m) // nbuckets,
                0,
                m - 1,
            )
            bucket_splitters = sample[idx]
            total_sample = m
        else:
            bucket_splitters, total_sample = None, 0
        bucket_splitters = yield from ctx.bcast(bucket_splitters, root=0)

        # Global bucket sizes via one reduction, then contiguous greedy
        # assignment at the root.
        bucket_pos = np.searchsorted(keys, bucket_splitters, side="left")
        ctx.charge_binary_searches(nbuckets - 1, max(1, len(keys)))
        local_sizes = np.diff(
            np.concatenate(([0], bucket_pos, [len(keys)]))
        ).astype(np.int64)
        global_sizes = yield from ctx.allreduce(local_sizes)
        owner = assign_buckets_greedy(global_sizes, p)

        # Processor boundaries = positions of the first bucket of each
        # processor; the corresponding splitter keys drive data movement.
        first_bucket = np.searchsorted(owner, np.arange(1, p), side="left")
        positions = np.concatenate(([0], bucket_pos, [len(keys)]))[first_bucket]
        buckets_per_proc = np.bincount(owner, minlength=p)

    with ctx.phase("data exchange"):
        merged = yield from exchange_and_merge(
            ctx, Shard(keys), positions.astype(np.int64)
        )
    return merged, OverPartitionStats(
        ratio=ratio,
        oversample=oversample,
        total_sample=int(total_sample),
        bucket_count=nbuckets,
        buckets_per_proc=buckets_per_proc,
    )
