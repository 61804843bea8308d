"""Histogram Sort with Sampling — the SPMD program (§3) over the BSP engine.

Structure per histogramming round (paper §3.3 steps 1–4):

1. the central processor (rank 0) broadcasts the open splitter intervals and
   the round's Bernoulli inclusion probability;
2. every rank samples keys falling inside the intervals;
3. samples are gathered at the central processor, sorted/deduplicated and
   broadcast back as *probes*;
4. every rank computes a local histogram (rank of each probe in its sorted
   local data, a binary search each) and a global reduction delivers exact
   global probe ranks to the central processor, which tightens every
   splitter's ``[L_j(i), U_j(i)]`` bounds.

The loop ends when every splitter is *finalized* — some seen key lies inside
its ``T_i`` window — or the schedule's round bound is hit.  Splitter keys are
then broadcast (step 5) and the data-movement phase runs.

Two splitter-selection methods are provided:

* ``method="hss"`` — the full multi-round algorithm above;
* ``method="scanning"`` — one sampling + histogramming round followed by the
  Axtmann scanning algorithm (§3.2), the better one-round choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro.algorithms.registry import register_algorithm
from repro.algorithms.spec import AlgorithmSpec
from repro.bsp.engine import Context
from repro.core.config import HSSConfig
from repro.core.data_movement import exchange_and_merge, locally_sorted_shard
from repro.core.keyspace import make_keyspace
from repro.core.scanning import scanning_sample_probability, scanning_splitters
from repro.errors import ConfigError, VerificationError
from repro.utils.rng import RngTree

__all__ = [
    "RoundStats",
    "SplitterStats",
    "hss_splitter_program",
    "hss_sort_program",
    "HSS_PHASE_LOCAL_SORT",
    "HSS_PHASE_HISTOGRAM",
    "HSS_PHASE_EXCHANGE",
]

HSS_PHASE_LOCAL_SORT = "local sort"
HSS_PHASE_HISTOGRAM = "histogramming"
HSS_PHASE_EXCHANGE = "data exchange"


@dataclass(frozen=True)
class RoundStats:
    """Observability record for one histogramming round (drives Fig 3.1)."""

    round_index: int
    probability: float
    sample_size: int
    candidate_mass_before: int
    finalized_after: int
    open_intervals_after: int
    max_interval_width_after: float
    mean_interval_width_after: float


@dataclass
class SplitterStats:
    """Summary of the splitter-determination phase (central processor view)."""

    nparts: int
    total_keys: int
    eps: float
    method: str
    rounds: list[RoundStats] = field(default_factory=list)
    all_finalized: bool = False
    max_rank_error: int = 0

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_sample(self) -> int:
        """Overall sample size across all rounds (the paper's headline cost)."""
        return sum(r.sample_size for r in self.rounds)

    def satisfies_tolerance(self) -> bool:
        """Whether every chosen splitter landed inside its ``T_i`` window."""
        return self.max_rank_error <= self.eps * self.total_keys / (2 * self.nparts)


def hss_splitter_program(
    ctx: Context,
    local_sorted: np.ndarray,
    *,
    nparts: int,
    cfg: HSSConfig,
    keyspace,
    rng: np.random.Generator,
    method: str = "hss",
    target_fractions: np.ndarray | None = None,
    tolerance_fraction: float | None = None,
    initial_intervals=None,
) -> Generator:
    """Determine ``nparts − 1`` splitters collectively (``yield from`` this).

    Returns ``(splitters, stats)`` on every rank; ``stats`` is the
    root's :class:`SplitterStats` (broadcast at the end, it is tiny).

    ``nparts`` may exceed ``ctx.nprocs`` — ChaNGa-style virtual-processor
    bucket counts (§6.3) — in which case only splitter determination makes
    sense and the caller handles bucket placement.

    ``target_fractions`` (length ``nparts − 1``, increasing, in (0, 1))
    overrides the uniform ``N·i/p`` target ranks for *weighted*
    partitioning — e.g. ragged node layouts where node ``b`` must receive
    ``N·cores_b/p`` keys.  ``tolerance_fraction`` likewise overrides the
    acceptance half-window as a fraction of ``N`` (default ``eps/(2·nparts)``).

    ``initial_intervals`` (``((lo, hi), ...)`` key pairs, see
    :class:`~repro.core.splitters.SplitterState`) warm-starts round 1:
    instead of Bernoulli-sampling the whole input, the round broadcasts the
    pair endpoints as probes and histogram them exactly.  When the hints
    come from a previous run on similar data (a splitter cache) most
    splitters finalize immediately; when they are stale the bounds simply
    tighten less and the normal sampling rounds continue — warm starts can
    never produce an output a cold run would reject.
    """
    if method not in ("hss", "scanning"):
        raise ConfigError(f"unknown splitter method {method!r}")
    if initial_intervals is not None and method != "hss":
        raise ConfigError(
            "initial_intervals warm starts apply to the multi-round 'hss' "
            "method only (scanning is single-round by construction)"
        )
    root = 0
    rank = ctx.rank
    n_local = len(local_sorted)
    total_keys = yield from ctx.allreduce(np.int64(n_local))
    total_keys = int(total_keys)
    if total_keys < nparts:
        raise ConfigError(
            f"cannot cut {total_keys} keys into {nparts} non-trivial parts"
        )

    if hasattr(keyspace, "prepare"):
        # §3.4 approximate histogramming: build the resident representative
        # sample once (block random sampling over the sorted local input).
        keyspace.prepare(local_sorted, nparts, rng)
        ctx.charge_bytes(getattr(keyspace, "resident_sample_size", 0) * 8)

    if rank == root:
        state_kwargs = {}
        if target_fractions is not None:
            state_kwargs["targets"] = (
                np.asarray(target_fractions, dtype=np.float64) * total_keys
            ).astype(np.int64)
        if tolerance_fraction is not None:
            state_kwargs["tolerances"] = float(tolerance_fraction) * total_keys
        if initial_intervals is not None:
            state_kwargs["initial_intervals"] = initial_intervals
        state = keyspace.make_state(total_keys, nparts, cfg.eps, **state_kwargs)
    else:
        state = None
    stats = (
        SplitterStats(nparts=nparts, total_keys=total_keys, eps=cfg.eps, method=method)
        if rank == root
        else None
    )
    schedule = cfg.schedule
    max_rounds = 1 if method == "scanning" else cfg.max_rounds(nparts)

    splitters = None
    round_index = 0
    while True:
        round_index += 1
        # -- step 1: root announces intervals + probability (or completion)
        if rank == root:
            if state.all_finalized() or round_index > max_rounds:
                command = {"done": True, "splitters": state.final_splitters()}
            elif round_index == 1 and state.initial_intervals is not None:
                # Warm start: probe the cached interval endpoints directly —
                # no sampling, no gather; one broadcast + one reduction.
                command = {
                    "done": False,
                    "warm": True,
                    "probes": state.hint_probes(),
                    "mass": total_keys,
                }
            else:
                if round_index == 1:
                    intervals = None  # whole input
                    mass = total_keys
                else:
                    merged = state.merged_intervals()
                    intervals = merged.pairs()
                    mass = merged.mass
                if method == "scanning":
                    prob = scanning_sample_probability(total_keys, nparts, cfg.eps)
                else:
                    prob = schedule.probability(
                        round_index,
                        p=nparts,
                        eps=cfg.eps,
                        total_keys=total_keys,
                        candidate_mass=mass,
                    )
                command = {
                    "done": False,
                    "intervals": intervals,
                    "prob": prob,
                    "mass": mass,
                }
        else:
            command = None
        command = yield from ctx.bcast(command, root=root)
        if command["done"]:
            splitters = command["splitters"]
            break

        if command.get("warm"):
            # Warm round: the probes arrived with the command; steps 2–3
            # (sampling + gather) are skipped entirely.
            probes = command["probes"]
        else:
            # -- step 2: sample inside intervals
            sample = keyspace.sample(
                local_sorted, rank, command["intervals"], command["prob"], rng
            )
            ctx.charge_binary_searches(
                2 * (len(command["intervals"]) if command["intervals"] else 1),
                max(1, n_local),
            )

            # -- step 3: gather at root, sort, broadcast probes
            gathered = yield from ctx.gather(sample, root=root)
            if rank == root:
                probes = keyspace.sort_unique_probes(gathered)
                m = len(probes)
                if m > 1:
                    ctx.charge_sort(m, key_bytes=probes.dtype.itemsize)
            else:
                probes = None
            probes = yield from ctx.bcast(probes, root=root)

        # -- step 4: local histogram + reduction
        counts = keyspace.local_counts(local_sorted, rank, probes)
        ctx.charge_binary_searches(
            len(probes),
            getattr(keyspace, "resident_sample_size", None) or max(1, n_local),
        )
        ranks = yield from ctx.reduce(counts, op="sum", root=root)
        if rank == root and ranks.dtype.kind == "f":
            # Approximate-histogram estimates arrive as floats; round once
            # at the central processor.
            ranks = np.rint(np.maximum(ranks, 0.0)).astype(np.int64)

        if rank == root:
            if method == "scanning":
                scan = scanning_splitters(
                    probes, ranks, total_keys, nparts, cfg.eps
                )
                state.update(probes, ranks)
                stats.rounds.append(
                    RoundStats(
                        round_index=round_index,
                        probability=command["prob"],
                        sample_size=len(probes),
                        candidate_mass_before=command["mass"],
                        finalized_after=nparts - 1,
                        open_intervals_after=0,
                        max_interval_width_after=0.0,
                        mean_interval_width_after=0.0,
                    )
                )
                stats.all_finalized = True
                stats.max_rank_error = int(
                    np.abs(scan.splitter_ranks - state.targets).max()
                ) if nparts > 1 else 0
                command = {"done": True, "splitters": scan.splitters,
                           "scan_loads": scan.loads}
                command = yield from ctx.bcast(command, root=root)
                splitters = command["splitters"]
                break
            state.update(probes, ranks)
            width_stats = state.interval_width_stats()
            stats.rounds.append(
                RoundStats(
                    round_index=round_index,
                    # A warm probe round draws no sample (probability 0).
                    probability=command.get("prob", 0.0),
                    sample_size=len(probes),
                    candidate_mass_before=command["mass"],
                    finalized_after=state.num_finalized(),
                    open_intervals_after=int(width_stats["open_splitters"]),
                    max_interval_width_after=width_stats["max_width"],
                    mean_interval_width_after=width_stats["mean_width"],
                )
            )
        else:
            if method == "scanning":
                command = yield from ctx.bcast(None, root=root)
                splitters = command["splitters"]
                break

    if rank == root and method == "hss":
        stats.all_finalized = state.all_finalized()
        stats.max_rank_error = state.max_rank_error()
    stats = yield from ctx.bcast(stats, root=root)
    return splitters, stats


def hss_sort_program(
    ctx: Context,
    keys: np.ndarray,
    payload: np.ndarray | None = None,
    *,
    cfg: HSSConfig,
) -> Generator:
    """Full three-phase HSS sort for one rank (``yield from`` this).

    Returns ``(shard, stats)``: the rank's globally-sorted output shard and
    the splitter-phase statistics.
    """
    p = ctx.nprocs
    rng = RngTree(cfg.seed).generator("hss-sample", ctx.rank)
    if cfg.initial_intervals is not None and cfg.tag_duplicates:
        raise ConfigError(
            "initial_intervals warm starts and duplicate tagging (§4.3) "
            "cannot be combined: tagged probes carry (PE, index) tags that "
            "cached plain-key intervals do not have"
        )
    if cfg.approximate_histograms:
        if cfg.tag_duplicates:
            raise ConfigError(
                "approximate histogramming (§3.4) and duplicate tagging "
                "(§4.3) cannot be combined: the rank oracle is defined over "
                "plain keys"
            )
        from repro.core.approx_histogram import ApproxHistogramKeySpace

        keyspace = ApproxHistogramKeySpace(keys.dtype, cfg.eps)
    else:
        keyspace = make_keyspace(keys.dtype, cfg.tag_duplicates)

    with ctx.phase(HSS_PHASE_LOCAL_SORT):
        shard = locally_sorted_shard(ctx, keys, payload)
        keys = shard.keys

    with ctx.phase(HSS_PHASE_HISTOGRAM):
        splitters, stats = yield from hss_splitter_program(
            ctx,
            keys,
            nparts=p,
            cfg=cfg,
            keyspace=keyspace,
            rng=rng,
            initial_intervals=cfg.initial_intervals,
        )
        positions = keyspace.bucket_positions(keys, ctx.rank, splitters)

    with ctx.phase(HSS_PHASE_EXCHANGE):
        merged = yield from exchange_and_merge(
            ctx,
            shard,
            positions,
            node_combining=cfg.node_level,
        )

    check_strict(cfg, stats)
    return merged, stats


def check_strict(cfg: HSSConfig, stats: SplitterStats) -> None:
    """Raise if ``cfg.strict`` and the splitters missed their tolerance."""
    if cfg.strict and not stats.all_finalized and not stats.satisfies_tolerance():
        raise VerificationError(
            f"splitter determination ended after {stats.num_rounds} rounds "
            f"with max rank error {stats.max_rank_error} > tolerance "
            f"(set HSSConfig(strict=False) for best-effort output, or "
            f"tag_duplicates=True if the input has heavy duplicates)"
        )


# --------------------------------------------------------------------- #
# Registry entries — one program, three named sampling schedules.  The
# spec lives next to the program it describes (self-registration); see
# repro.algorithms.registry for the plugin model.
# --------------------------------------------------------------------- #
def _register_hss_variants() -> None:
    common: dict = dict(
        program=hss_sort_program,
        config_cls=HSSConfig,
        config_style="cfg",
        supports_payloads=True,
        balanced=True,
        duplicate_tolerant=True,  # via HSSConfig(tag_duplicates=True), §4.3
        supports_warm_start=True,
        excluded_config_keys=("schedule", "node_level", "initial_intervals"),
    )
    register_algorithm(
        AlgorithmSpec(
            name="hss",
            make_config=HSSConfig.constant_oversampling,
            extra_config_keys=("oversample",),
            paper_section="6.1.2",
            description="HSS, constant oversampling until finalization",
            **common,
        )
    )
    register_algorithm(
        AlgorithmSpec(
            name="hss-1round",
            make_config=HSSConfig.one_round,
            paper_section="3.2",
            description="HSS, one geometric round (Lemma 3.2.1)",
            **common,
        )
    )
    register_algorithm(
        AlgorithmSpec(
            name="hss-2round",
            make_config=lambda **kw: HSSConfig.k_rounds(2, **kw),
            paper_section="3.3",
            description="HSS, two geometric rounds",
            **common,
        )
    )


_register_hss_variants()
