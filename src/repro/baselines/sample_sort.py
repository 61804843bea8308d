"""Sample sort with regular and with block-random sampling (§2.2, §4.1).

Both variants follow the three-phase skeleton of §2.2: sample locally,
gather the combined sample at a central processor which picks ``p−1``
splitters, broadcast, then the shared data-movement phase.  They differ only
in the sampling step:

* **regular sampling** (Shi & Schaeffer): ``s = ⌈p/ε⌉`` evenly spaced keys
  per processor; splitter ``i`` is the sample element of (1-based) rank
  ``s·i − p/2``, giving the deterministic ``(1+ε)`` guarantee of
  Lemma 4.1.1 at the price of a ``p²/ε`` total sample.
* **block random sampling** (Blelloch et al.): one uniform key from each of
  ``s`` blocks per processor; splitters are evenly spaced sample elements.
  Theorem 4.1.1 needs ``s = Θ(log N/ε²)`` for the w.h.p. guarantee — the
  default here — but any ``s`` may be forced via ``oversample`` to explore
  the sample-size/balance trade-off (used by the shootout benchmark).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.bsp.engine import Context
from repro.core.data_movement import exchange_and_merge, locally_sorted_shard
from repro.errors import ConfigError
from repro.sampling.random_blocks import block_random_sample
from repro.sampling.regular import regular_sample
from repro.utils.rng import RngTree

__all__ = [
    "SampleSortConfig",
    "SampleSortStats",
    "sample_sort_regular_program",
    "sample_sort_random_program",
]


@dataclass(frozen=True)
class SampleSortConfig:
    """Typed knobs for the single-round sample-sort baselines."""

    #: Load-imbalance target (guaranteed for regular, w.h.p. for random).
    eps: float = 0.05
    #: Sampling seed (block-random variant; regular is deterministic).
    seed: int = 0
    #: Per-processor sample size override (None = the variant's
    #: guarantee-preserving default).
    oversample: int | None = None


@dataclass
class SampleSortStats:
    """Sampling-phase accounting, comparable with HSS's SplitterStats."""

    oversample: int
    total_sample: int
    splitters: np.ndarray


def _central_splitters(
    ctx: Context,
    local_sample: np.ndarray,
    *,
    select: str,
    s: int,
) -> Generator:
    """Gather samples, choose ``p−1`` splitters at rank 0, broadcast.

    ``select='regular'`` picks (1-based) sample ranks ``s·i − p/2``
    (Theorem 4.1.2); ``select='even'`` picks evenly spaced elements
    ``⌈ps·i/p⌉`` (the random-sampling convention).  A regular sample in
    which every rank sent fewer than ``s`` keys is every key: its exact
    quantiles (0-based ranks ``⌊m·i/p⌋``) are the splitters, as the
    ``−p/2`` shift, sized for sample keys that stand for ``N/(ps)`` keys
    each, would skew the buckets by ``p/2`` keys.
    """
    p = ctx.nprocs
    gathered = yield from ctx.gather(local_sample, root=0)
    if ctx.rank == 0:
        sample = np.sort(np.concatenate([g for g in gathered if len(g)]))
        m = len(sample)
        ctx.charge_sort(m, key_bytes=sample.dtype.itemsize)
        if select == "regular" and all(len(g) < s for g in gathered):
            idx = np.arange(1, p, dtype=np.int64) * m // p
        else:
            # Use the *achieved* per-processor sample count (the requested
            # ``s`` may have been capped by small local inputs), else the
            # selection indices run past the gathered sample.
            s_eff = max(1, m // p)
            idx_1based = np.arange(1, p, dtype=np.int64) * s_eff
            if select == "regular":
                idx_1based = idx_1based - p // 2
            idx = np.clip(idx_1based - 1, 0, m - 1)
        splitters = sample[idx]
        total = m
    else:
        splitters, total = None, 0
    splitters = yield from ctx.bcast(splitters, root=0)
    total = yield from ctx.bcast(total, root=0)
    return splitters, total


@register_algorithm(
    name="sample-regular",
    config_cls=SampleSortConfig,
    supports_payloads=True,
    balanced=True,
    paper_section="4.1.2",
    description="sample sort, regular sampling (PSRS, central splitter pick)",
)
def sample_sort_regular_program(
    ctx: Context,
    keys: np.ndarray,
    payload: np.ndarray | None = None,
    *,
    eps: float = 0.05,
    seed: int = 0,
    oversample: int | None = None,
) -> Generator:
    """PSRS: sample sort with regular sampling; returns ``(Shard, stats)``.

    ``oversample`` defaults to the guarantee-preserving ``⌈p/ε⌉``.  An
    optional aligned ``payload`` array is permuted along with the keys.
    """
    del seed  # deterministic sampling
    p = ctx.nprocs
    s = int(oversample) if oversample is not None else max(1, math.ceil(p / eps))
    if s < 1:
        raise ConfigError(f"oversample must be >= 1, got {s}")

    with ctx.phase("local sort"):
        shard = locally_sorted_shard(ctx, keys, payload)
        keys = shard.keys

    with ctx.phase("splitting"):
        local_sample = regular_sample(keys, s)
        splitters, total = yield from _central_splitters(
            ctx, local_sample, select="regular", s=s
        )
        positions = np.searchsorted(keys, splitters, side="left").astype(np.int64)
        ctx.charge_binary_searches(p - 1, max(1, len(keys)))

    with ctx.phase("data exchange"):
        merged = yield from exchange_and_merge(ctx, shard, positions)
    return merged, SampleSortStats(s, total, splitters)


@register_algorithm(
    name="sample-random",
    config_cls=SampleSortConfig,
    supports_payloads=True,
    balanced=False,
    paper_section="4.1.1",
    description="sample sort, block random sampling (w.h.p. balance)",
)
def sample_sort_random_program(
    ctx: Context,
    keys: np.ndarray,
    payload: np.ndarray | None = None,
    *,
    eps: float = 0.05,
    seed: int = 0,
    oversample: int | None = None,
) -> Generator:
    """Sample sort with block random sampling; returns ``(Shard, stats)``.

    ``oversample`` defaults to Theorem 4.1.1's ``⌈4(1+ε)·ln N/ε²⌉`` (the
    constant making the failure probability ``1/N``), capped at the local
    size.  An optional aligned ``payload`` is permuted with the keys.
    """
    p = ctx.nprocs
    rng = RngTree(seed).generator("sample-sort-random", ctx.rank)

    with ctx.phase("local sort"):
        shard = locally_sorted_shard(ctx, keys, payload)
        keys = shard.keys

    with ctx.phase("splitting"):
        total_keys = int((yield from ctx.allreduce(np.int64(len(keys)))))
        if oversample is not None:
            s = int(oversample)
        else:
            s = max(
                1,
                math.ceil(
                    4.0 * (1.0 + eps) * math.log(max(2, total_keys)) / (eps * eps)
                ),
            )
        local_sample = block_random_sample(keys, s, rng)
        splitters, total = yield from _central_splitters(
            ctx, local_sample, select="even", s=s
        )
        positions = np.searchsorted(keys, splitters, side="left").astype(np.int64)
        ctx.charge_binary_searches(p - 1, max(1, len(keys)))

    with ctx.phase("data exchange"):
        merged = yield from exchange_and_merge(ctx, shard, positions)
    return merged, SampleSortStats(s, total, splitters)
