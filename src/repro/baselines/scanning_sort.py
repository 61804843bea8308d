"""Full sort built on the scanning algorithm (§3.2, Theorem 3.2.1).

One Bernoulli sampling pass at probability ``2p/(εN)``, one histogramming
round to learn the sample's exact ranks, then the greedy scan chooses
splitters.  This is the strongest *one-round* method in the paper — better
constants than one-round HSS — and serves as the bridge baseline between
sample sort (one round, huge sample) and multi-round HSS (tiny samples).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.algorithms.spec import AlgorithmSpec
from repro.bsp.engine import Context
from repro.core.config import HSSConfig
from repro.core.data_movement import Shard, _sort_keys, exchange_and_merge
from repro.core.hss import (
    HSS_PHASE_EXCHANGE,
    HSS_PHASE_HISTOGRAM,
    HSS_PHASE_LOCAL_SORT,
    hss_splitter_program,
)
from repro.core.keyspace import make_keyspace
from repro.utils.rng import RngTree

__all__ = ["scanning_sort_program"]


def scanning_sort_program(
    ctx: Context,
    keys: np.ndarray,
    *,
    cfg: HSSConfig,
) -> Generator:
    """SPMD scanning sort for one rank; returns ``(Shard, SplitterStats)``."""
    rng = RngTree(cfg.seed).generator("scanning-sample", ctx.rank)
    keyspace = make_keyspace(keys.dtype, cfg.tag_duplicates)

    with ctx.phase(HSS_PHASE_LOCAL_SORT):
        keys = _sort_keys(keys)
        ctx.charge_sort(len(keys), key_bytes=keys.dtype.itemsize)

    with ctx.phase(HSS_PHASE_HISTOGRAM):
        splitters, stats = yield from hss_splitter_program(
            ctx,
            keys,
            nparts=ctx.nprocs,
            cfg=cfg,
            keyspace=keyspace,
            rng=rng,
            method="scanning",
        )
        positions = keyspace.bucket_positions(keys, ctx.rank, splitters)

    with ctx.phase(HSS_PHASE_EXCHANGE):
        merged = yield from exchange_and_merge(
            ctx, Shard(keys), positions, node_combining=cfg.node_level
        )
    return merged, stats


register_algorithm(
    AlgorithmSpec(
        name="scanning",
        program=scanning_sort_program,
        config_cls=HSSConfig,
        config_style="cfg",
        balanced=True,
        duplicate_tolerant=True,
        paper_section="3.2",
        description="one-round sample + Axtmann scanning splitters",
        excluded_config_keys=("schedule", "initial_intervals"),
    )
)
