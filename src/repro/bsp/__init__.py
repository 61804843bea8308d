"""BSP simulation substrate.

The paper analyzes Histogram Sort with Sampling in Valiant's Bulk Synchronous
Parallel model and implements it on Charm++ over IBM Blue Gene/Q.  Neither an
MPI runtime nor a 32K-core machine is available here, so this subpackage
provides the substitute substrate: a deterministic, single-process **BSP
simulator**.

* :mod:`repro.bsp.engine` runs SPMD *programs* (one Python generator per
  simulated rank) and rendezvouses them at collectives.
* :mod:`repro.bsp.collectives` implements the data semantics of each
  collective (gather, bcast, reduce, all-to-all-v, scan, ...).
* :mod:`repro.bsp.cost_model` prices every superstep with the same
  :math:`\\alpha\\textrm{–}\\beta` / pipelined-collective formulas the paper's
  Chapter 5 uses, so simulated phase breakdowns are directly comparable with
  the paper's analysis.
* :mod:`repro.bsp.network` supplies topology-dependent contention factors
  (5-D torus for the Mira experiments).
* :mod:`repro.bsp.node` models multicore nodes for the shared-memory
  message-combining optimization of §6.1.1.

The machine every run is priced on is a :class:`repro.machines.MachineSpec`
— the one machine type, registered by name in :mod:`repro.machines` —
which this layer only reads (α/β/γ scalars, ``cores_per_node`` and the
``network`` topology instance); :class:`BSPEngine` defaults to the
``laptop`` preset.

Algorithms written against :class:`~repro.bsp.engine.Context` look like
mpi4py code with ``yield from`` at communication points::

    def program(ctx, local_keys):
        local_keys = np.sort(local_keys)
        ctx.charge_sort(len(local_keys))
        sample = local_keys[::step]
        gathered = yield from ctx.gather(sample, root=0)
        ...
"""

from repro.bsp.engine import BSPEngine, Context, NodeContext, RunResult
from repro.bsp.network import (
    Topology,
    FullyConnected,
    Torus,
    FatTree,
    Dragonfly,
)
from repro.bsp.node import NodeLayout
from repro.bsp.cost_model import CostModel, CommStats
from repro.bsp.trace import Trace, PhaseBreakdown

__all__ = [
    "BSPEngine",
    "Context",
    "NodeContext",
    "RunResult",
    "Topology",
    "FullyConnected",
    "Torus",
    "FatTree",
    "Dragonfly",
    "NodeLayout",
    "CostModel",
    "CommStats",
    "Trace",
    "PhaseBreakdown",
]
