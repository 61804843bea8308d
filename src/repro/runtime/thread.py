"""In-process concurrency: one worker thread per rank block, no IPC.

``ThreadBackend`` is the third execution strategy on the runtime axis:
like :class:`~repro.runtime.ProcessBackend` it advances rank generators
concurrently between collective rendezvous, but workers are *threads* in
the calling process, so there is no shared-memory shipping, no pickling,
and no process startup cost.  numpy releases the GIL inside the
partition/merge/sort kernels the programs spend their compute in, so the
backend exhibits real concurrency even on small machines — which is what
makes it the default measurement backend for ``repro calibrate`` on a CI
container where forking one process per rank would drown the signal in
IPC cost.

Worker threads pump the shared rank loop (via the process backend's
:func:`~repro.runtime.process._rank_loop`) and the calling thread runs
the shared broker loop (:func:`~repro.bsp.engine._broker_loop`); this
module only supplies the transport — a pair of ``queue.SimpleQueue`` per
worker, carrying exception *objects* rather than pickled payloads — and
the thread lifecycle.  Sorted outputs, ``CommStats``, modeled makespans
and SPMD-violation errors are bit-identical to the simulator (the parity
grid in ``tests/runtime/test_backend_parity.py`` pins this), and the
``Measured`` block has the same per-phase wall / collective-wait shape.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from typing import TYPE_CHECKING, Any, Sequence

from repro.bsp.engine import BSPEngine, Program, RunResult, _broker_loop
from repro.bsp.node import NodeLayout
from repro.runtime.base import Backend, register_backend
from repro.runtime.process import _assign_ranks, _rank_loop

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machines import MachineSpec

__all__ = ["ThreadBackend"]


@register_backend
class ThreadBackend(Backend):
    """Execute ranks on worker threads; measure real wall-clock, no IPC.

    Parameters
    ----------
    workers:
        Worker threads to multiplex ranks over; defaults to
        ``min(nprocs, os.cpu_count())``.  Contiguous rank blocks, as in
        the process backend, so node-scoped collectives co-locate.
    """

    name = "thread"
    description = (
        "one worker thread per rank block; real concurrency through "
        "GIL-releasing numpy kernels, zero IPC, bit-identical modeled "
        "results"
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
        p = engine.nprocs
        nworkers = min(self.workers or os.cpu_count() or 1, p)
        start = time.perf_counter()

        assignment = _assign_ranks(p, nworkers)
        to_broker = [queue.SimpleQueue() for _ in assignment]
        to_worker = [queue.SimpleQueue() for _ in assignment]
        threads = [
            threading.Thread(
                target=_rank_loop,
                args=(
                    to_broker[i].put,
                    to_worker[i].get,
                    engine,
                    ranks,
                    [rank_args[r] for r in ranks],
                    program,
                    shared_kwargs,
                ),
                daemon=True,
            )
            for i, ranks in enumerate(assignment)
        ]
        try:
            for thread in threads:
                thread.start()
            return _broker_loop(
                engine,
                assignment,
                lambda i: to_broker[i].get(),
                lambda i, results: to_worker[i].put(results),
                backend=self.name,
                start=start,
            )
        finally:
            for rx in to_worker:
                rx.put(None)  # wake any worker still blocked on results
            for thread in threads:
                thread.join(timeout=5)
