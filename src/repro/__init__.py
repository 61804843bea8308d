"""repro — a full reproduction of *Histogram Sort with Sampling* (SPAA 2019).

Quick tour
----------
>>> import numpy as np
>>> import repro
>>> rng = np.random.default_rng(0)
>>> run = repro.sort(rng.integers(0, 2**40, 80_000), p=8, eps=0.05)
>>> run.imbalance <= 1.05
True
>>> run.splitter_stats.num_rounds  # doctest: +SKIP
3

Public API highlights
---------------------
- :func:`repro.sort` — the one-call façade: flat array, per-rank arrays
  or a ``Dataset`` in; :class:`~repro.algorithms.SortRun` out.
- :class:`repro.Sorter` / :class:`repro.Dataset` — the first-class API:
  capability-checked execution of any registered algorithm on validated
  distributed inputs.
- :data:`repro.algorithms.REGISTRY` — typed
  :class:`~repro.algorithms.AlgorithmSpec` for every algorithm (HSS
  variants + all baselines); plugins register the same way.
- :class:`repro.MachineSpec` / :func:`repro.get_machine` — the machine
  registry (:mod:`repro.machines`): six catalogued presets, pluggable
  named topologies, JSON-serializable specs.
- :mod:`repro.experiments` — ``Scenario`` grids and the
  ``ExperimentRunner.sweep`` engine behind ``repro sweep``.
- :class:`repro.bsp.BSPEngine` — the BSP simulation substrate (simulated
  ranks, collectives, α–β cost model, multicore nodes).
- :class:`repro.core.rankspace.RankSpaceSimulator` — exact splitter-phase
  simulation at hundreds of thousands of processors.
- :mod:`repro.workloads` — input generators (uniform/skewed/ChaNGa-like/
  duplicate-heavy) behind one registry,
  :data:`repro.workloads.WORKLOAD_SPECS`.
- :mod:`repro.theory` — closed-form sample sizes, round bounds, Table 5.1.

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from repro._version import __version__

# Importing repro.algorithms populates the algorithm registry (the program
# modules self-register on import).
from repro.algorithms import (
    AlgorithmSpec,
    Dataset,
    REGISTRY,
    SortRun,
    Sorter,
    register_algorithm,
    sort,
)
from repro.core.config import HSSConfig, SamplingSchedule
from repro.machines import MachineSpec, get_machine, register_machine

__all__ = [
    "__version__",
    "sort",
    "AlgorithmSpec",
    "REGISTRY",
    "register_algorithm",
    "Dataset",
    "Sorter",
    "SortRun",
    "HSSConfig",
    "SamplingSchedule",
    "MachineSpec",
    "get_machine",
    "register_machine",
]
