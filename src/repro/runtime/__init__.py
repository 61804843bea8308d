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
and modeled times, and all three report the wall-clock the loop
measured — per-phase walls, per-rank compute and collective wait — in
the same :class:`Measured` block (``result.measured``).  What differs
is the wall-clock itself.
The fourth registered backend is adversarial: ``chaos`` (from
:mod:`repro.chaos`) wraps any of the above — spelled
``chaos:<inner>`` — and injects a seeded, deterministic fault plan.

Select a backend anywhere the system runs programs::

    Sorter("hss", backend="process").run(dataset)
    ExperimentRunner().sweep(..., backend="process")
    repro sort --backend process --workers 4
    repro sort --backend chaos:process --chaos stragglers
    repro backends                      # list this registry

Examples
--------
>>> from repro.runtime import BACKENDS, resolve_backend
>>> sorted(BACKENDS)
['chaos', 'process', 'simulated', 'thread']
>>> resolve_backend(None).name          # the default
'simulated'
"""

from repro.runtime.base import (
    BACKENDS,
    Backend,
    Measured,
    backend_class,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.runtime.process import ProcessBackend
from repro.runtime.simulated import SimulatedBackend
from repro.runtime.thread import ThreadBackend

# Registers the 'chaos' backend.  Imported last (module, not symbol): it
# wraps the built-ins above and reaches back into repro.runtime.base, so
# when repro.chaos.backend is what triggered this package's import the
# module object here is still mid-execution — binding the module works,
# grabbing the class would not.  ChaosBackend is re-exported lazily via
# the PEP 562 __getattr__ below.
import repro.chaos.backend as _chaos_backend  # noqa: E402,F401


def __getattr__(name: str):
    if name == "ChaosBackend":
        return _chaos_backend.ChaosBackend
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "BACKENDS",
    "Backend",
    "ChaosBackend",
    "Measured",
    "SimulatedBackend",
    "ProcessBackend",
    "ThreadBackend",
    "backend_class",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
