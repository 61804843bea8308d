"""The lockstep simulator as a registered backend (the default).

A thin adapter over :meth:`repro.bsp.engine.BSPEngine.run`: the shared
rank loop and broker loop with the inline transport — every rank runs as
a generator in the calling process, advanced by the broker directly with
no thread or queue in between.  Time is *modeled* against the simulated
machine, and the same loop that measures the thread and process backends
fills ``result.measured`` with per-phase, per-rank wall-clock here too.
``Sorter`` without a ``backend=`` argument, every bench suite and every
committed baseline go through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.bsp.engine import BSPEngine, Program, RunResult
from repro.bsp.node import NodeLayout
from repro.runtime.base import Backend, register_backend

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machines import MachineSpec

__all__ = ["SimulatedBackend"]


@register_backend
class SimulatedBackend(Backend):
    """Run every rank in-process on the lockstep BSP simulator."""

    name = "simulated"
    description = (
        "lockstep single-process BSP simulator; time is modeled (default)"
    )

    def run(
        self,
        program: Program,
        rank_args: Sequence[tuple],
        *,
        machine: MachineSpec | None = None,
        node_layout: NodeLayout | None = None,
        **shared_kwargs: Any,
    ) -> RunResult:
        engine = BSPEngine(
            len(rank_args), machine=machine, node_layout=node_layout
        )
        return engine.run(program, rank_args=rank_args, **shared_kwargs)
