"""repro.runtime — pluggable execution backends for SPMD rank programs.

*How* a rank program executes is a strategy, not a fact of the system.
There is one rank loop and one broker loop
(:func:`~repro.bsp.engine._rank_steps` and
:func:`~repro.bsp.engine._broker_loop`, resolving every collective
through the one :class:`~repro.bsp.engine.SuperstepResolver`); each
built-in :class:`Backend` supplies only the transport between them:

* :class:`SimulatedBackend` (the default) — inline: the broker advances
  one block of all ranks directly in the calling thread;
* :class:`ThreadBackend` — ``queue.SimpleQueue`` pairs to worker threads
  that advance rank blocks concurrently (numpy releases the GIL in the
  sort/partition/merge kernels) with zero IPC — the measurement backend
  of choice on small machines, and what ``repro calibrate`` uses by
  default;
* :class:`ProcessBackend` — a pipe plus shared-memory segments to worker
  processes on real cores.

All three therefore agree bit-for-bit on sorted outputs, ``CommStats``
and modeled times, and all three return the wall-clock the loop
measured the same way: each rank's compute segments and collective
waits on the result, and the :class:`Measured` totals derived from them
(``result.measured``: per-phase walls, per-rank compute and collective
wait).  What differs is the wall-clock itself.  Telemetry is a view of
that result: :meth:`Backend.emit_spans` projects it into a trace sink
after the run, so no backend takes a sink.  Fault injection is not a
backend: a run that names a :mod:`repro.chaos` plan
(``Scenario(chaos=...)``, ``--chaos PLAN``) wraps whichever of the three
it runs on.

Select a backend anywhere the system runs programs::

    Sorter("hss", backend="process").run(dataset)
    ExperimentRunner().sweep(..., backend="process")
    repro sort --backend process --workers 4
    repro sort --backend process --chaos stragglers
    repro backends                      # list this registry

Examples
--------
>>> from repro.runtime import BACKENDS, resolve_backend
>>> sorted(BACKENDS)
['process', 'simulated', 'thread']
>>> resolve_backend(None).name          # the default
'simulated'
"""

from repro.runtime.base import (
    BACKENDS,
    Backend,
    Measured,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.runtime.process import ProcessBackend
from repro.runtime.simulated import SimulatedBackend
from repro.runtime.thread import ThreadBackend

__all__ = [
    "BACKENDS",
    "Backend",
    "Measured",
    "SimulatedBackend",
    "ProcessBackend",
    "ThreadBackend",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
