"""Two-level node partitioning with shared memory (§6.1).

The paper's implementation exploits multicore nodes three ways:

1. **message combining** — all per-core messages headed to the same node
   travel as one network message (``~cores²`` fewer messages);
2. **node-level splitter determination** — HSS determines ``n−1`` splitters
   for the *nodes* rather than ``p−1`` for the cores, shrinking the
   histogram and sample by ``cores×``;
3. **within-node sort** — once a node owns its bucket, the final
   redistribution across its cores runs entirely in shared memory, using
   sample sort with regular sampling ("since the number of splitters
   required for splitting data within node is significantly smaller").

The load-balance thresholds follow §6.1.2: ``eps`` (2% in the paper) across
nodes and ``within_node_eps`` (5%) across a node's cores, so per-core load
is bounded by ``N/p·(1+eps)(1+within_node_eps)``.

:func:`hss_node_sort_program` is the SPMD program;
:func:`combined_eps` gives the end-to-end bound for verification.
"""

from __future__ import annotations

import math
from typing import Generator

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.algorithms.spec import AlgorithmSpec
from repro.bsp.engine import Context
from repro.core.config import HSSConfig
from repro.core.data_movement import Shard, _sort_keys
from repro.core.hss import (
    HSS_PHASE_EXCHANGE,
    HSS_PHASE_HISTOGRAM,
    HSS_PHASE_LOCAL_SORT,
    check_strict,
    hss_splitter_program,
)
from repro.core.keyspace import make_keyspace
from repro.errors import BSPError, ConfigError
from repro.sampling.regular import regular_sample
from repro.utils.rng import RngTree

__all__ = ["hss_node_sort_program", "combined_eps", "node_sample_sort"]

HSS_PHASE_WITHIN_NODE = "within-node sort"


def combined_eps(eps: float, within_node_eps: float) -> float:
    """End-to-end per-core load bound of the two-level scheme."""
    return (1.0 + eps) * (1.0 + within_node_eps) - 1.0


def node_sample_sort(
    node_ctx, keys: np.ndarray, eps: float, keyspace
) -> Generator:
    """Sample sort with regular sampling inside one node (§6.1.2, step 3).

    Runs over a node communicator; all collectives are shared-memory priced.
    ``keys`` must already be sorted (they arrive merged from the global
    exchange).  ``keyspace`` is the run's key-space adapter: a tagged one
    (§4.3) tags the sample with its ``(core, index)``, so equal keys split
    across cores too.  Returns this core's final slice.
    """
    c = node_ctx.nprocs
    if c == 1:
        return keys
    s = max(1, math.ceil(c / eps))
    sample = regular_sample(keys, s)
    if keyspace.tagged:
        tagged = np.empty(len(sample), dtype=keyspace.key_dtype)
        tagged["key"] = sample
        tagged["pe"] = node_ctx.rank
        tagged["idx"] = regular_sample(np.arange(len(keys)), s)
        sample = tagged
    gathered = yield from node_ctx.gather(sample, root=0)
    if node_ctx.rank == 0:
        combined = np.sort(np.concatenate(gathered))
        node_ctx.charge_sort(len(combined), key_bytes=keys.dtype.itemsize)
        m = len(combined)
        if m:
            s_eff = max(1, m // c)
            idx = np.clip(
                np.arange(1, c, dtype=np.int64) * s_eff - c // 2 - 1, 0, m - 1
            )
            splitters = combined[idx]
        else:
            # The whole node holds no keys: any splitters leave it empty.
            splitters = np.zeros(c - 1, dtype=combined.dtype)
    else:
        splitters = None
    splitters = yield from node_ctx.bcast(splitters, root=0)
    positions = keyspace.bucket_positions(keys, node_ctx.rank, splitters)
    node_ctx.charge_binary_searches(c - 1, max(1, len(keys)))
    counts = np.diff(positions, prepend=0, append=len(keys))
    (merged,) = yield from node_ctx.alltoallv(counts, keys)
    _sort_keys(merged, inplace=True)
    node_ctx.charge_merge(len(merged), c, key_bytes=keys.dtype.itemsize)
    return merged


def hss_node_sort_program(
    ctx: Context,
    keys: np.ndarray,
    *,
    cfg: HSSConfig,
) -> Generator:
    """SPMD two-level HSS sort; returns ``(Shard, SplitterStats)``.

    Requires an engine configured with a :class:`~repro.bsp.node.NodeLayout`
    (``machine.cores_per_node > 1`` or an explicit layout).
    """
    layout = ctx.node_layout
    if layout is None:
        raise BSPError("node-level HSS requires a NodeLayout on the engine")
    nnodes = layout.nnodes
    if nnodes < 1:
        raise ConfigError("need at least one node")
    rng = RngTree(cfg.seed).generator("hss-node-sample", ctx.rank)
    keyspace = make_keyspace(keys.dtype, cfg.tag_duplicates)

    with ctx.phase(HSS_PHASE_LOCAL_SORT):
        keys = _sort_keys(keys)
        ctx.charge_sort(len(keys), key_bytes=keys.dtype.itemsize)

    # --- node-level splitter determination (n−1 splitters, all cores help)
    with ctx.phase(HSS_PHASE_HISTOGRAM):
        if nnodes > 1:
            # Weighted targets: node b must receive N·cores_b/p keys so that
            # per-core load stays bounded on ragged layouts (partially
            # filled last node).
            sizes = layout.node_sizes().astype(np.float64)
            fractions = np.cumsum(sizes)[:-1] / layout.nprocs
            tol_fraction = cfg.eps * float(sizes.min()) / (2.0 * layout.nprocs)
            splitters, stats = yield from hss_splitter_program(
                ctx,
                keys,
                nparts=nnodes,
                cfg=cfg,
                keyspace=keyspace,
                rng=rng,
                target_fractions=fractions,
                tolerance_fraction=tol_fraction,
            )
            node_positions = keyspace.bucket_positions(keys, ctx.rank, splitters)
        else:
            stats = None
            node_positions = np.empty(0, dtype=np.int64)

    # --- global exchange: node buckets, combined per node ----------------
    with ctx.phase(HSS_PHASE_EXCHANGE):
        # Deal each node's bucket across its cores as evenly as
        # np.array_split would; the within-node pass re-balances exactly,
        # so only rough evenness matters here.
        counts = np.zeros(ctx.nprocs, dtype=np.int64)
        buckets = np.diff(node_positions, prepend=0, append=len(keys))
        for b, size in enumerate(buckets.tolist()):
            ranks = layout.ranks_on_node(b)
            share, extra = divmod(size, len(ranks))
            counts[ranks.start: ranks.stop] = share
            counts[ranks.start: ranks.start + extra] += 1
        ctx.charge_binary_searches(nnodes - 1, max(1, len(keys)))
        ctx.charge_bytes(len(keys) * keys.dtype.itemsize)
        (mine,) = yield from ctx.alltoallv(counts, keys, node_combining=True)
        _sort_keys(mine, inplace=True)
        ctx.charge_merge(len(mine), ctx.nprocs, key_bytes=keys.dtype.itemsize)

    # --- within-node redistribution (shared memory only) -----------------
    with ctx.phase(HSS_PHASE_WITHIN_NODE):
        node_ctx = ctx.node_comm()
        final = yield from node_sample_sort(
            node_ctx, mine, cfg.within_node_eps, keyspace
        )

    if stats is not None:
        check_strict(cfg, stats)
    return Shard(final), stats


register_algorithm(
    AlgorithmSpec(
        name="hss-node",
        program=hss_node_sort_program,
        config_cls=HSSConfig,
        make_config=lambda **kw: HSSConfig(node_level=True, **kw),
        config_style="cfg",
        balanced=True,
        needs_multicore=True,
        duplicate_tolerant=True,
        paper_section="6.1",
        description="two-level node-partitioned HSS (multicore machines)",
        excluded_config_keys=("schedule", "node_level", "initial_intervals"),
        pinned_config=(("node_level", True),),
        verify_eps_fn=lambda cfg: combined_eps(cfg.eps, cfg.within_node_eps),
    )
)
