"""Input generators for experiments and tests — the workload registry.

* :mod:`repro.workloads.distributions` — parametric key distributions from
  benign (uniform) to adversarial (staircase skew, nearly-sorted), each
  returning per-rank shards.
* :mod:`repro.workloads.changa` — synthetic cosmological particle sets
  standing in for ChaNGa's Dwarf and Lambb datasets (§6.3): clustered 3-D
  matter mapped to Morton space-filling-curve keys.
* :mod:`repro.workloads.duplicates` — heavy-duplicate inputs for the §4.3
  tagging machinery.
* :mod:`repro.workloads.drift` — adversarial and *time-evolving* inputs
  (drifting mixtures, duplicate-heavy staircases, replayed multi-timestep
  traces) that stress the splitter-cache/fingerprint path under drift.

Every generator self-registers through
:func:`~repro.workloads.registry.register_workload`, which couples it with
a description, a paper-section tag and (for record-carrying workloads like
the particle sets) its natural record schema — the same plugin-registry
treatment algorithms, machines and backends already get.  ``repro
workloads`` lists the catalog; :data:`WORKLOAD_SPECS` resolves names.
"""

from repro.workloads.registry import (
    WORKLOAD_SPECS,
    WorkloadSpec,
    register_workload,
)
from repro.workloads.distributions import (
    uniform_shards,
    normal_shards,
    exponential_shards,
    lognormal_shards,
    staircase_shards,
    nearly_sorted_shards,
    reversed_shards,
)
from repro.workloads.changa import (
    PARTICLE_SCHEMA,
    dwarf_like_shards,
    lambb_like_shards,
    plummer_positions,
    morton_keys_from_positions,
    fractal_dwarf_shards,
    fractal_lambb_shards,
)
from repro.workloads.duplicates import (
    constant_shards,
    few_distinct_shards,
    hotspot_shards,
    zipf_duplicate_shards,
)
from repro.workloads.drift import (
    changa_drift_shards,
    drifting_mixture_shards,
    staircase_duplicate_shards,
)


def make_workload(name, p, n_per, rng=0, **kwargs):
    """Generate per-rank shards for any registered workload by name."""
    return WORKLOAD_SPECS.get(name).generate(p, n_per, rng, **kwargs)


__all__ = [
    "PARTICLE_SCHEMA",
    "WORKLOAD_SPECS",
    "WorkloadSpec",
    "register_workload",
    "make_workload",
    "uniform_shards",
    "normal_shards",
    "exponential_shards",
    "lognormal_shards",
    "staircase_shards",
    "nearly_sorted_shards",
    "reversed_shards",
    "dwarf_like_shards",
    "lambb_like_shards",
    "fractal_dwarf_shards",
    "fractal_lambb_shards",
    "plummer_positions",
    "morton_keys_from_positions",
    "constant_shards",
    "few_distinct_shards",
    "hotspot_shards",
    "zipf_duplicate_shards",
    "changa_drift_shards",
    "drifting_mixture_shards",
    "staircase_duplicate_shards",
]
