"""Exact splitting à la Cheng, Edelman, Gilbert & Shah (§2.1).

The paper's problem statement cites an algorithm that finds *exact*
splitters — perfect ``N/p`` load balance — using ``O(p·log N)`` rounds of
communication, noting it is "largely of theoretical interest" because no
practical application demands zero imbalance.  We implement it as the
``ε → 0`` limit of the histogramming machinery: iterative parallel
multi-selection that refines every splitter's key interval by median-rank
probing until the key of rank exactly ``⌈N·i/p⌉`` is identified.

Each round histograms one probe per open splitter, chosen as the key-space
midpoint of the splitter's current interval, so the rank interval at least
halves in expectation for continuous-ish key distributions and the *key*
interval halves deterministically — giving the ``log(key range)`` round
bound the paper quotes for bisection-style refinement.

This is the extreme point of the sample-size/rounds trade-off the paper
maps: scanning (1 round, ``2p/ε`` sample) … HSS (``log log p/ε`` rounds,
``O(p)``/round) … exact splitting (``log N`` rounds, ``p``/round, ε = 0).

Only numeric key dtypes are supported (interval midpoints need key
arithmetic), and the input must be duplicate-free for exact targets to be
achievable (use §4.3 tagging upstream otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.bsp.engine import Context
from repro.core.data_movement import Shard, _sort_keys, exchange_and_merge
from repro.errors import VerificationError

__all__ = ["ExactSplitConfig", "ExactSplitStats", "exact_split_sort_program"]


@dataclass(frozen=True)
class ExactSplitConfig:
    """Typed knobs for exact splitting (ε = 0 multi-selection)."""

    #: Verification budget only — the algorithm itself always targets
    #: perfect balance.
    eps: float = 0.05
    #: Bisection-round budget.
    max_rounds: int = 256


@dataclass
class ExactSplitStats:
    """Round accounting for the exact-splitting run."""

    rounds: int = 0
    probes_total: int = 0
    all_exact: bool = False

    @property
    def num_rounds(self) -> int:
        return self.rounds


def _midpoint(lo, hi, dtype):
    """Overflow-safe key-space midpoint (works on the width)."""
    if np.issubdtype(dtype, np.floating):
        return lo + (hi - lo) / 2.0
    width = int(hi) - int(lo)
    return dtype.type(int(lo) + width // 2)


@register_algorithm(
    name="exact-split",
    config_cls=ExactSplitConfig,
    balanced=True,
    paper_section="2.1",
    description="exact splitters / perfect balance (Cheng et al.)",
)
def exact_split_sort_program(
    ctx: Context,
    keys: np.ndarray,
    *,
    eps: float = 0.05,
    seed: int = 0,
    max_rounds: int = 256,
) -> Generator:
    """SPMD exact-splitting sort; returns ``(Shard, ExactSplitStats)``.

    ``eps`` is accepted for registry-signature uniformity but ignored —
    this algorithm always targets perfect balance (splitter ``i`` is the
    key of exact rank ``⌈N·i/p⌉``; output loads differ by at most one key).
    """
    del eps, seed
    p = ctx.nprocs
    root = 0
    dtype = keys.dtype

    with ctx.phase("local sort"):
        keys = _sort_keys(keys)
        ctx.charge_sort(len(keys), key_bytes=dtype.itemsize)

    with ctx.phase("exact selection"):
        total = int((yield from ctx.allreduce(np.int64(len(keys)))))
        local_min = keys[0] if len(keys) else None
        local_max = keys[-1] if len(keys) else None
        key_min = yield from ctx.allreduce(
            local_min if local_min is not None else np.inf, op="min"
        )
        key_max = yield from ctx.allreduce(
            local_max if local_max is not None else -np.inf, op="max"
        )

        if ctx.rank == root:
            targets = -(-(np.arange(1, p, dtype=np.int64) * total) // p)  # ceil
            lo_key = np.full(p - 1, key_min, dtype=dtype)
            hi_key = np.full(p - 1, key_max, dtype=dtype)
            lo_rank = np.zeros(p - 1, dtype=np.int64)
            hi_rank = np.full(p - 1, total, dtype=np.int64)
            found_key = np.empty(p - 1, dtype=dtype)
            found = np.zeros(p - 1, dtype=bool)
            stats = ExactSplitStats()
        else:
            stats = None

        rounds = 0
        while True:
            if ctx.rank == root:
                open_idx = np.where(~found)[0]
                if len(open_idx) == 0 or rounds >= max_rounds:
                    command = {"done": True, "splitters": found_key.copy()}
                else:
                    probes = np.array(
                        [
                            _midpoint(lo_key[i], hi_key[i], dtype)
                            for i in open_idx
                        ],
                        dtype=dtype,
                    )
                    order = np.argsort(probes, kind="stable")
                    command = {
                        "done": False,
                        "probes": probes[order],
                        "open": open_idx[order],
                    }
            else:
                command = None
            command = yield from ctx.bcast(command, root=root)
            if command["done"]:
                splitters = command["splitters"]
                break

            probes = command["probes"]
            counts = np.searchsorted(keys, probes, side="left").astype(np.int64)
            ctx.charge_binary_searches(len(probes), max(1, len(keys)))
            ranks = yield from ctx.reduce(counts, op="sum", root=root)
            rounds += 1

            if ctx.rank == root:
                stats.rounds = rounds
                stats.probes_total += len(probes)
                for probe, rank, i in zip(probes, ranks, command["open"]):
                    target = targets[i]
                    # <=/>= on the rank comparisons: a probe tying the
                    # current bound still tightens the *key* interval (the
                    # midpoint is strictly interior), which is what drives
                    # the pinch below.
                    if rank >= target and rank <= hi_rank[i]:
                        hi_rank[i] = rank
                        hi_key[i] = probe
                    if rank < target and rank >= lo_rank[i]:
                        lo_rank[i] = rank
                        lo_key[i] = probe
                    # Exact hit: the smallest key with global rank >= target
                    # has rank == target exactly when the probe interval
                    # pinches to width <= 1 in key space or the rank lands.
                    if rank == target:
                        found[i] = True
                        found_key[i] = probe
                    elif not np.issubdtype(dtype, np.floating) and int(
                        hi_key[i]
                    ) - int(lo_key[i]) <= 1:
                        found[i] = True
                        found_key[i] = hi_key[i]

        if ctx.rank == root:
            stats.all_exact = bool(np.all(found))
            if not stats.all_exact:
                raise VerificationError(
                    f"exact splitting did not converge in {max_rounds} rounds "
                    "(duplicate keys? tag upstream)"
                )
        stats = yield from ctx.bcast(stats, root=root)
        positions = np.searchsorted(keys, splitters, side="left").astype(np.int64)
        ctx.charge_binary_searches(p - 1, max(1, len(keys)))

    with ctx.phase("data exchange"):
        merged = yield from exchange_and_merge(ctx, Shard(keys), positions)
    return merged, stats
