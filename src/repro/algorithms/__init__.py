"""First-class Algorithm/Dataset API: typed specs, capabilities, registry.

This package is the uniform extension surface over every sorting algorithm
in the reproduction:

- :class:`AlgorithmSpec` — declarative description of one algorithm: its
  SPMD program, typed config class, and capability flags
  (``supports_payloads`` / ``balanced`` / ``needs_multicore`` /
  ``duplicate_tolerant``) plus the paper section it implements.
- :data:`REGISTRY` / :func:`register_algorithm` — the plugin registry.
  Each module in :mod:`repro.baselines` and :mod:`repro.core` registers its
  own spec(s); third-party programs register the same way.
- :class:`Dataset` — validated per-rank shards + optional payloads,
  constructible from raw arrays or by workload name.
- :class:`Sorter` — capability-checked execution:
  ``Sorter("hss", eps=0.02).run(dataset) -> SortRun``.

Quick tour
----------
>>> from repro.algorithms import Dataset, Sorter, available_algorithms
>>> "hss" in list(available_algorithms())
True
>>> ds = Dataset.from_workload("uniform", p=4, n_per=300, seed=1)
>>> run = Sorter("sample-regular", eps=0.2).run(ds)
>>> run.algorithm
'sample-regular'
>>> int(sum(len(s) for s in run.shards))
1200
"""

# Import order matters: the public names must all be bound *before* the
# program modules load, because those modules import back into this
# namespace while it is still initializing.
from repro.algorithms.spec import AlgorithmSpec
from repro.algorithms.registry import (
    REGISTRY,
    available_algorithms,
    get_spec,
    register_algorithm,
)
from repro.algorithms.result import SortRun
from repro.algorithms.dataset import Dataset
from repro.algorithms.sorter import Sorter

# Built-in algorithm modules self-register on import; loading them here
# means REGISTRY is fully populated after ``import repro``.
import repro.core.hss  # noqa: E402,F401  (hss, hss-1round, hss-2round)
import repro.core.node_sort  # noqa: E402,F401  (hss-node)
import repro.baselines.scanning_sort  # noqa: E402,F401
import repro.baselines.sample_sort  # noqa: E402,F401
import repro.baselines.sample_sort_parallel  # noqa: E402,F401
import repro.baselines.histogram_sort  # noqa: E402,F401
import repro.baselines.over_partition  # noqa: E402,F401
import repro.baselines.exact_split  # noqa: E402,F401
import repro.baselines.bitonic  # noqa: E402,F401
import repro.baselines.radix  # noqa: E402,F401

# The one-call façade builds on Sorter/Dataset and needs the registry
# populated, so it loads after the program modules.
from repro.algorithms.facade import sort  # noqa: E402

__all__ = [
    "sort",
    "AlgorithmSpec",
    "REGISTRY",
    "register_algorithm",
    "get_spec",
    "available_algorithms",
    "Dataset",
    "Sorter",
    "SortRun",
]
