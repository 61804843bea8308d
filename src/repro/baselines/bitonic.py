"""Batcher bitonic sort on a hypercube of processors (§4.2).

The classical merge-based baseline: ``log₂p·(log₂p+1)/2`` compare-exchange
stages, each exchanging a rank's *entire* local array with a partner — the
``Θ(log p)`` full-data movements that make merge-based sorts uncompetitive
when ``N ≫ p``, which is the paper's stated reason for focusing on
splitter-based algorithms.  Including it lets the shootout benchmark show
that crossover directly.

Implementation: the standard block-bitonic scheme — each rank keeps its
local array sorted; a compare-exchange with partner ``rank ^ (1<<j)`` merges
the two arrays and keeps the lower or upper half according to the stage's
direction bit.  Requires ``p`` a power of two and equal local sizes (the
textbook preconditions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.bsp.engine import Context
from repro.core.data_movement import _sort_keys
from repro.errors import ConfigError

__all__ = ["BitonicConfig", "bitonic_sort_program"]


@dataclass(frozen=True)
class BitonicConfig:
    """Bitonic sort has no knobs: deterministic, exactly balanced blocks."""


def _keep_half(
    mine: np.ndarray, theirs: np.ndarray, keep_low: bool
) -> np.ndarray:
    """Merge two sorted arrays, keep the lower or upper ``len(mine)`` keys."""
    n = len(mine)
    merged = _sort_keys(np.concatenate((mine, theirs)), inplace=True)
    return merged[:n] if keep_low else merged[len(theirs):]


@register_algorithm(
    name="bitonic",
    config_cls=BitonicConfig,
    balanced=False,
    duplicate_tolerant=True,
    paper_section="4.2",
    description="Batcher bitonic sort on a hypercube (power-of-two p)",
)
def bitonic_sort_program(
    ctx: Context,
    keys: np.ndarray,
    *,
    eps: float = 0.05,
    seed: int = 0,
) -> Generator:
    """SPMD bitonic sort; returns the rank's sorted block (``np.ndarray``).

    Raises :class:`~repro.errors.ConfigError` unless ``p`` is a power of two
    and all ranks hold the same number of keys.
    """
    del eps, seed  # bitonic sort is deterministic and exactly balanced
    p = ctx.nprocs
    if p & (p - 1):
        raise ConfigError(f"bitonic sort requires a power-of-two p, got {p}")

    sizes = yield from ctx.allgather(np.int64(len(keys)))
    if len(set(int(s) for s in sizes)) != 1:
        raise ConfigError(
            f"bitonic sort requires equal local sizes, "
            f"got {sorted(set(int(s) for s in sizes))}"
        )

    with ctx.phase("local sort"):
        keys = _sort_keys(keys)
        ctx.charge_sort(len(keys), key_bytes=keys.dtype.itemsize)

    if p == 1:
        return keys

    log_p = p.bit_length() - 1
    with ctx.phase("bitonic merge"):
        for i in range(log_p):
            for j in range(i, -1, -1):
                partner = ctx.rank ^ (1 << j)
                ascending = ((ctx.rank >> (i + 1)) & 1) == 0
                theirs = yield from ctx.exchange(partner, keys)
                keep_low = (ctx.rank < partner) == ascending
                keys = _keep_half(keys, theirs, keep_low)
                ctx.charge_merge(2 * len(keys), 2, key_bytes=keys.dtype.itemsize)
    return keys
