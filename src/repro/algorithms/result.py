"""The uniform result type returned by every sorter entry point."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.metrics import load_imbalance

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.bsp.engine import RunResult
    from repro.core.hss import SplitterStats
    from repro.records import RecordSchema
    from repro.runtime import Measured

__all__ = ["SortRun"]


@dataclass
class SortRun:
    """Sorted output plus everything observable about the simulated run."""

    #: Per-rank sorted output key arrays (globally ascending across ranks).
    shards: list[np.ndarray]
    #: Per-rank payload arrays when the input carried payloads, else None.
    payloads: list[np.ndarray] | None
    #: Algorithm statistics (central-processor view): the per-algorithm
    #: stats object every program returns alongside its shard —
    #: :class:`~repro.core.hss.SplitterStats` for the HSS family,
    #: ``HistogramSortStats`` for classic histogram sort, ``RadixStats``
    #: for radix, ... — or None for algorithms that report nothing.
    stats: Any
    #: Raw BSP engine result (trace, comm stats, modeled makespan).
    engine_result: "RunResult"
    #: Algorithm name.
    algorithm: str
    #: Per-rank stats objects, extracted uniformly from every rank's
    #: return (not just rank 0).  Entries are None for ranks that
    #: returned no stats.
    rank_stats: list[Any] = field(default_factory=list)
    #: Resolved machine the run executed on —
    #: ``{name, topology, cores_per_node}`` (see
    #: :meth:`repro.machines.MachineSpec.describe`).
    machine: dict[str, Any] = field(default_factory=dict)
    #: Execution backend the run used (``"simulated"``, ``"process"``, ...;
    #: see :mod:`repro.runtime`).  Modeled fields are bit-identical across
    #: backends; only :attr:`measured` depends on it.
    backend: str = "simulated"
    #: Record schema of the payload columns (see :mod:`repro.records`),
    #: or None for key-only runs and schema-less payloads.
    schema: "RecordSchema | None" = None

    @property
    def splitter_stats(self) -> "SplitterStats | None":
        """Splitter-phase statistics, for runs that histogram.

        Populated (with :class:`~repro.core.hss.SplitterStats`) by the HSS
        variants and scanning sort; None for every other algorithm — whose
        own stats objects remain available as :attr:`stats`.
        """
        from repro.core.hss import SplitterStats

        return self.stats if isinstance(self.stats, SplitterStats) else None

    @property
    def makespan(self) -> float:
        """Modeled execution time on the simulated machine (seconds)."""
        return self.engine_result.makespan

    @property
    def measured(self) -> "Measured | None":
        """Real wall-clock measurements from the execution backend.

        The measured counterpart of the *modeled* :attr:`makespan` /
        :meth:`breakdown`: end-to-end wall time plus per-rank/per-phase
        compute and collective-wait times, which every built-in backend
        measures in the shared rank loop.
        """
        return self.engine_result.measured

    @property
    def imbalance(self) -> float:
        return load_imbalance(self.shards)

    def breakdown(self):
        return self.engine_result.breakdown()
