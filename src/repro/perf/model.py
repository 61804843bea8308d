"""Phase-time models for weak scaling (Fig 6.1) and ChaNGa splitting (Fig 6.2).

Every formula here mirrors what the BSP engine charges for the real SPMD
programs — same :class:`~repro.bsp.cost_model.CostModel` collective prices,
same comparison/byte computation charges — just evaluated at machine scales
the simulator cannot materialize (``N = p·10⁶`` keys).  The inputs that
depend on algorithm behaviour (round counts, per-round sample sizes) are
*measured* from rank-space executions, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.bsp.cost_model import CostModel
from repro.bsp.node import NodeLayout
from repro.core.hss import SplitterStats
from repro.machines import MachineSpec, resolve_machine

__all__ = [
    "PhaseTimes",
    "histogram_round_cost",
    "model_splitting_time",
    "model_weak_scaling",
]


@dataclass(frozen=True)
class PhaseTimes:
    """Seconds per phase — the stacked bars of Fig 6.1."""

    local_sort: float
    histogramming: float
    data_exchange: float
    within_node: float = 0.0
    #: Resolved machine the phases were priced on
    #: (``{name, topology, cores_per_node}``); empty for hand-built values.
    machine: Mapping[str, object] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return (
            self.local_sort
            + self.histogramming
            + self.data_exchange
            + self.within_node
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "local sort": self.local_sort,
            "histogramming": self.histogramming,
            "data exchange": self.data_exchange,
            "within-node sort": self.within_node,
            "total": self.total,
        }


def histogram_round_cost(
    cost_model: CostModel,
    machine: MachineSpec,
    *,
    sample_keys: int,
    open_intervals: int,
    local_keys: float,
    key_bytes: int,
    style: str = "hss",
) -> float:
    """Modeled seconds for one histogramming round.

    ``style="hss"`` prices the four collectives of an HSS round (interval
    broadcast, sample gather, probe broadcast, histogram reduction) plus
    the computation the SPMD program charges (interval location, central
    sample sort, local histogram binary searches).

    ``style="bisect"`` prices a classic histogram-sort round (§2.3): the
    central processor *generates* probes by key-space subdivision, so there
    is no sampling gather and no interval broadcast — just the probe
    broadcast and the histogram reduction.
    """
    if style not in ("hss", "bisect"):
        raise ValueError(f"unknown round style {style!r}")
    S = sample_keys * key_bytes
    H = sample_keys * 8  # int64 counts
    intervals_bytes = open_intervals * 2 * key_bytes

    if style == "hss":
        ops = (
            ("bcast", intervals_bytes),
            ("gather", S),
            ("bcast", S),
            ("reduce", H),
        )
    else:
        ops = (("bcast", S), ("reduce", H))

    comm = 0.0
    for op, nbytes in ops:
        cost = cost_model.price(op, max_bytes=nbytes, total_bytes=nbytes)
        comm += cost.comm_seconds + cost.compute_seconds

    compute = 0.0
    lg_local = math.log2(max(2.0, local_keys))
    if style == "hss":
        # Sampling: locate intervals in the sorted local input.
        compute += machine.key_compare_seconds(
            2 * max(1, open_intervals) * lg_local
        )
        # Central sample sort.
        if sample_keys > 1:
            compute += machine.key_compare_seconds(
                sample_keys * math.log2(sample_keys)
            )
            compute += machine.copy_seconds(2 * S)
    else:
        # Central probe generation: linear in the probe count.
        compute += machine.copy_seconds(2 * S)
    # Local histogram: one binary search per probe over the local input.
    compute += machine.key_compare_seconds(sample_keys * lg_local)
    # Per-round runtime synchronization (quiescence between refinement
    # rounds); see MachineSpec.round_sync_per_level.
    sync = machine.round_sync_per_level * math.log2(max(2, cost_model.nprocs))
    return comm + compute + sync


def model_splitting_time(
    machine: str | MachineSpec,
    *,
    nprocs: int,
    nbuckets: int,
    rounds: list[tuple[int, int]],
    local_keys: float,
    key_bytes: int = 8,
    node_layout: NodeLayout | None = None,
    style: str = "hss",
) -> float:
    """Total splitter-determination seconds.

    ``rounds`` is a list of ``(sample_keys, open_intervals)`` per round —
    taken from a measured :class:`SplitterStats` (HSS; ``style="hss"``) or
    probe counts (classic histogram sort; ``style="bisect"``, where
    ``sample_keys`` plays the probe-count role).  ``machine`` may be a
    registered machine name or a spec.
    """
    machine = resolve_machine(machine)
    cost_model = CostModel(machine, nprocs, node_layout)
    total = 0.0
    for sample_keys, open_intervals in rounds:
        total += histogram_round_cost(
            cost_model,
            machine,
            sample_keys=sample_keys,
            open_intervals=max(1, open_intervals),
            local_keys=local_keys,
            key_bytes=key_bytes,
            style=style,
        )
    # Final splitter broadcast.
    cost = cost_model.price(
        "bcast",
        max_bytes=(nbuckets - 1) * key_bytes,
        total_bytes=(nbuckets - 1) * key_bytes,
    )
    return total + cost.comm_seconds


def model_weak_scaling(
    machine: str | MachineSpec,
    *,
    nprocs: int,
    keys_per_core: float,
    splitter_stats: SplitterStats,
    key_bytes: int = 8,
    payload_bytes: int = 4,
    node_level: bool = True,
) -> PhaseTimes:
    """Model the three stacked phases of Fig 6.1 for one machine point.

    Parameters
    ----------
    machine:
        Machine reference — a registered name (``"mira-like-bgq"``) or a
        :class:`~repro.machines.MachineSpec`.
    nprocs:
        Total cores ``p``.
    keys_per_core:
        Weak-scaling grain (10⁶ in the paper).
    splitter_stats:
        Measured splitter-phase behaviour for this configuration, e.g. from
        :class:`~repro.core.rankspace.RankSpaceSimulator` with
        ``nparts = nnodes`` when ``node_level``.
    node_level:
        Apply the §6.1 optimizations (node-level partitioning + message
        combining + within-node sample sort).
    """
    machine = resolve_machine(machine)
    record = key_bytes + payload_bytes
    layout = (
        NodeLayout(nprocs, machine.cores_per_node)
        if node_level and machine.cores_per_node > 1
        else None
    )
    cost_model = CostModel(machine, nprocs, layout)
    n_local = float(keys_per_core)

    # --- local sort -------------------------------------------------------
    local_sort = machine.compare_seconds(
        n_local * math.log2(max(2.0, n_local))
    ) + machine.copy_seconds(2 * n_local * record)

    # --- histogramming (measured rounds) -----------------------------------
    histogramming = model_splitting_time(
        machine,
        nprocs=nprocs,
        nbuckets=splitter_stats.nparts,
        rounds=[
            (r.sample_size, max(1, r.open_intervals_after))
            for r in splitter_stats.rounds
        ],
        local_keys=n_local,
        key_bytes=key_bytes,
        node_layout=layout,
    )

    # --- data exchange ------------------------------------------------------
    V = n_local * record  # per-core send (≈ receive) volume
    cost = cost_model.price(
        "alltoallv",
        max_bytes=int(2 * V),
        total_bytes=int(V * nprocs),
        node_combining=node_level and layout is not None,
    )
    merge = machine.compare_seconds(
        n_local * math.log2(max(2, nprocs))
    ) + machine.copy_seconds(2 * n_local * record)
    data_exchange = cost.comm_seconds + cost.compute_seconds + merge

    # --- within-node redistribution (shared memory) -------------------------
    within = 0.0
    if node_level and layout is not None and machine.cores_per_node > 1:
        c = machine.cores_per_node
        # Regular-sampling sample sort over c cores in shared memory: one
        # node-local gather/bcast/alltoall plus a merge pass.
        within += machine.copy_seconds(2 * n_local * record)
        within += machine.compare_seconds(n_local * math.log2(max(2, c)))
        within += machine.resolved().node_alpha * 3 * math.log2(max(2, c))

    return PhaseTimes(
        local_sort=local_sort,
        histogramming=histogramming,
        data_exchange=data_exchange,
        within_node=within,
        machine=machine.describe(),
    )
