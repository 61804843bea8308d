"""The built-in machine catalog.

Six deterministic presets spanning the regimes the paper's Chapter 6
analysis cares about (a seventh, jittered ``jittery-cloud``, registers
in :mod:`repro.machines.jitter`).  The absolute constants matter less
than their *ratios* — alpha/beta sets the message-size crossover,
beta/gamma the communication-vs-compute crossover, and the topology's
contention factor is what separates torus from fat-tree behaviour at
scale (Fig 6.1/6.2, Table 6.1).

``mira-like-bgq``, ``generic-cluster`` and ``laptop`` are the original
three presets (the committed modeled baselines are priced on their
constants); the fat-tree HPC, dragonfly and cloud-ethernet profiles open
the machine axis the ROADMAP's scenario-diversity goal asks for.
"""

from __future__ import annotations

from repro.machines.registry import register_machine
from repro.machines.spec import MachineSpec

__all__: list[str] = []  # presets are reached through the registry

#: IBM Blue Gene/Q "Mira"-like machine of the paper's Figure 6.1
#: experiments.  16 cores/node, 5-D torus, slow in-order A2 cores.
#: ``gamma_compare`` is calibrated so sorting 10⁶ 12-byte records takes
#: ~1 s/core (the paper's local-sort bar) and ``beta`` is the *effective*
#: per-core injection bandwidth including runtime software overheads, not
#: the raw link rate — raw α–β with 1.8 GB/s links underestimates BG/Q
#: all-to-all by ~10×.
register_machine(
    MachineSpec(
        name="mira-like-bgq",
        alpha=2.5e-6,
        beta=1.0 / 2.0e8,
        gamma_compare=4.0e-8,
        gamma_key_compare=8.0e-9,
        gamma_byte=1.0 / 2.0e9,
        topology="torus",
        topology_params={"dims": 5, "base_endpoints": 32},
        cores_per_node=16,
        round_sync_per_level=1.0e-3,
        note=(
            "IBM BG/Q (Mira): 1.6 GHz A2 cores, 5-D torus; beta is "
            "effective per-core injection incl. runtime overhead"
        ),
        paper_section="6.1",
    )
)

#: A contemporary commodity cluster: fat tree with 2:1 taper, fast cores.
register_machine(
    MachineSpec(
        name="generic-cluster",
        alpha=1.5e-6,
        beta=1.0 / 1.0e10,
        gamma_compare=1.0e-9,
        gamma_byte=1.0 / 1.0e10,
        topology="fat-tree",
        topology_params={"bisection": 0.5},
        cores_per_node=64,
        note="commodity InfiniBand cluster, 2:1 tapered fat tree",
        paper_section="6.3",
    )
)

#: Single multicore machine (everything in shared memory) — used by tests
#: so cost accounting stays meaningful even for tiny runs.
register_machine(
    MachineSpec(
        name="laptop",
        alpha=2.0e-7,
        beta=1.0 / 2.0e10,
        gamma_compare=1.0e-9,
        gamma_byte=1.0 / 2.0e10,
        topology="fully-connected",
        cores_per_node=8,
        note="single shared-memory multicore; the default test machine",
        paper_section="",
    )
)

#: Leadership-class fat-tree HPC system: full-bisection NDR-class fabric,
#: dense many-core nodes.  The full bisection makes all-to-all contention
#: flat in p — the control against which torus contention is measured.
register_machine(
    MachineSpec(
        name="fat-tree-hpc",
        alpha=1.0e-6,
        beta=1.0 / 2.5e10,
        gamma_compare=8.0e-10,
        gamma_key_compare=4.0e-10,
        gamma_byte=1.0 / 2.0e10,
        topology="fat-tree",
        topology_params={"bisection": 1.0},
        cores_per_node=128,
        round_sync_per_level=1.0e-4,
        note=(
            "non-blocking fat-tree HPC system (Summit/Eagle class): "
            "full bisection, 128-core nodes"
        ),
        paper_section="6.2",
    )
)

#: Dragonfly system (Cray Aries/Slingshot style): all-to-all groups with
#: tapered global links — constant-factor contention past one group, the
#: middle ground between torus growth and fat-tree flatness.
register_machine(
    MachineSpec(
        name="dragonfly-hpc",
        alpha=1.3e-6,
        beta=1.0 / 1.6e10,
        gamma_compare=9.0e-10,
        gamma_key_compare=4.5e-10,
        gamma_byte=1.0 / 1.8e10,
        topology="dragonfly",
        topology_params={"group_size": 1024, "global_taper": 0.5},
        cores_per_node=64,
        round_sync_per_level=2.0e-4,
        note=(
            "dragonfly interconnect (Aries/Slingshot class): 1024-endpoint "
            "groups, 2:1 tapered global links"
        ),
        paper_section="6.3",
    )
)

#: Cloud/ethernet profile: TCP stacks push per-message latency ~20x above
#: HPC interconnects while per-byte bandwidth stays respectable, so the
#: alpha term dominates and round-count differences (Fig 6.2) are
#: amplified; the oversubscribed spine gives a 4:1 effective taper.
register_machine(
    MachineSpec(
        name="cloud-ethernet",
        alpha=4.0e-5,
        beta=1.0 / 3.0e9,
        node_alpha=5.0e-7,
        gamma_compare=1.2e-9,
        gamma_byte=1.0 / 1.5e10,
        topology="fat-tree",
        topology_params={"bisection": 0.25},
        cores_per_node=16,
        round_sync_per_level=2.0e-3,
        note=(
            "cloud VM cluster over 25GbE/TCP: high per-message latency, "
            "4:1 oversubscribed spine"
        ),
        paper_section="1",
    )
)
