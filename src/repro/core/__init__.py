"""The paper's primary contribution: Histogram Sort with Sampling.

Layout
------
- :mod:`repro.core.config` — :class:`HSSConfig` and sampling-ratio schedules.
- :mod:`repro.core.splitters` — splitter-interval state ``[L_j(i), U_j(i)]``.
- :mod:`repro.core.scanning` — the Axtmann scanning algorithm (§3.2).
- :mod:`repro.core.hss` — the SPMD HSS program over the BSP engine.
- :mod:`repro.core.rankspace` — exact large-``p`` splitter-phase simulator.
- :mod:`repro.core.data_movement` — bucketize / all-to-all / merge (phase 3).
- :mod:`repro.core.keyspace` — plain vs implicit-``(key, PE, index)``-tagged
  key spaces (§4.3) behind one adapter interface.
- :mod:`repro.core.approx_histogram` — §3.4 approximate rank oracle wiring.
- :mod:`repro.core.node_sort` — §6.1 two-level node partitioning.
"""

from repro.core.config import HSSConfig, SamplingSchedule
from repro.core.splitters import SplitterState
from repro.core.scanning import scanning_splitters

__all__ = [
    "HSSConfig",
    "SamplingSchedule",
    "SplitterState",
    "scanning_splitters",
]
