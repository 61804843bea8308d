"""First-class Machine API: typed specs, topology plugins, machine registry.

This package mirrors :mod:`repro.algorithms` on the hardware axis:

- :class:`MachineSpec` — declarative, JSON-round-trippable description of
  one simulated machine: validated scalar parameters, the interconnect
  referenced *by registered topology name*, a provenance note and the
  paper section it backs.
- :data:`MACHINES` / :func:`register_machine` — the plugin registry with a
  catalog of seven built-in presets (``laptop``, ``mira-like-bgq``,
  ``generic-cluster``, ``fat-tree-hpc``, ``dragonfly-hpc``,
  ``cloud-ethernet``, plus the chaos subsystem's ``jittery-cloud``);
  third-party machines register the same way.
- :data:`TOPOLOGIES` / :func:`register_topology` — named interconnect
  plugins (``fully-connected``, ``torus``, ``fat-tree``, ``dragonfly``,
  and the seeded ``jittered-fat-tree`` / ``jittered-dragonfly`` from
  :mod:`repro.chaos.jitter`).
- :func:`resolve_machine` — the uniform coercion (name | spec | model |
  None) every execution surface goes through.

Quick tour
----------
>>> from repro.machines import get_machine, get_machine_spec, MachineSpec
>>> mira = get_machine("mira-like-bgq")
>>> mira.cores_per_node, mira.topology.name
(16, 'torus')
>>> spec = get_machine_spec("cloud-ethernet")
>>> MachineSpec.from_json(spec.to_json()) == spec
True
"""

from repro.machines.spec import MachineSpec
from repro.machines.topologies import (
    TOPOLOGIES,
    make_topology,
    register_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.machines.registry import (
    MACHINES,
    get_machine,
    get_machine_spec,
    machine_summary,
    register_machine,
    resolve_machine,
)

# The built-in presets self-register on import; loading the catalog here
# means MACHINES is fully populated after ``import repro.machines``.
import repro.machines.catalog  # noqa: E402,F401

# The chaos subsystem contributes the jittered topologies and the
# ``jittery-cloud`` preset (module import only — same benign-cycle rule
# as repro.runtime's chaos import).
import repro.chaos.jitter  # noqa: E402,F401

__all__ = [
    "MachineSpec",
    "MACHINES",
    "TOPOLOGIES",
    "register_machine",
    "register_topology",
    "get_machine",
    "get_machine_spec",
    "make_topology",
    "machine_summary",
    "resolve_machine",
    "topology_to_dict",
    "topology_from_dict",
]
