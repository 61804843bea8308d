"""The execution-backend abstraction and its plugin registry.

A :class:`Backend` answers one question the rest of the system never has
to ask again: *how* does an SPMD rank program execute?  The lockstep
single-process simulator (:class:`~repro.runtime.SimulatedBackend`, the
default) and the thread and process backends all implement the same
``run(program, rank_args, ...) -> RunResult`` contract and run the one
shared rank loop and broker loop of :mod:`repro.bsp.engine` — so sorted
outputs, comm stats and modeled times are bit-identical across backends
while wall-clock behaviour differs.  A run takes no trace sink: spans
are projected from the returned result by :meth:`Backend.emit_spans`.

The registry mirrors :mod:`repro.algorithms.registry` and
:mod:`repro.machines.registry`: backends self-register at import via
:func:`register_backend`, and ``Sorter``, ``repro sort --backend``, the
experiment sweeps and the bench suites resolve them through this one
mapping.

Examples
--------
>>> from repro.runtime import BACKENDS, get_backend
>>> BACKENDS.names()
['process', 'simulated', 'thread']
>>> get_backend("simulated").name
'simulated'
>>> get_backend("process", workers=2).workers
2
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Sequence

# Measured lives beside the shared rank loop that fills it; this package
# re-exports it as repro.runtime.Measured.
from repro.bsp.engine import Measured, Program, RunResult
from repro.bsp.node import NodeLayout
from repro.errors import ConfigError
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machines import MachineSpec

__all__ = [
    "Measured",
    "Backend",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "resolve_backend",
]


class Backend(ABC):
    """One strategy for executing an SPMD rank program.

    Subclasses set :attr:`name`/:attr:`description` class attributes and
    implement :meth:`run`.  All backends accept a ``workers`` option —
    how many workers the backend multiplexes ranks over: threads on the
    thread backend, OS processes on the process backend (the simulator
    always runs inline and ignores it).  Telemetry is not part of a run: a
    finished result is projected into a trace sink by :meth:`emit_spans`.
    """

    #: Registry key (``Sorter(backend=...)``, ``repro sort --backend``).
    name: str = ""
    #: One-line human description (shown by ``repro backends``).
    description: str = ""

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    @abstractmethod
    def run(
        self,
        program: Program,
        rank_args: Sequence[tuple],
        *,
        machine: MachineSpec | None = None,
        node_layout: NodeLayout | None = None,
        **shared_kwargs: Any,
    ) -> RunResult:
        """Execute ``program`` on ``len(rank_args)`` ranks.

        Parameters mirror :meth:`repro.bsp.engine.BSPEngine.run` with the
        rank count implied by ``rank_args`` (one positional-argument tuple
        per rank).  Returns a :class:`~repro.bsp.engine.RunResult` whose
        modeled fields (returns, trace, stats, makespan) are bit-identical
        across backends and whose :attr:`~repro.bsp.engine.RunResult.measured`
        block carries this backend's wall-clock observations.
        """

    def emit_spans(self, result: RunResult, sink: Any) -> None:
        """Project a finished ``result`` of this backend into ``sink``.

        The modeled superstep spans plus, from every backend that runs
        the shared rank loop (all built-ins), measured per-rank
        compute/wait spans — see
        :func:`repro.telemetry.adapters.run_to_spans`.
        """
        from repro.telemetry.adapters import run_to_spans

        run_to_spans(result, sink, self.name)

    @classmethod
    def summary_lines(cls) -> list[str]:
        """This backend's row in the ``repro backends`` listing."""
        default = "(default)" if cls.name == "simulated" else ""
        return [f"{cls.name:12s} {default:10s} {cls.description}"]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}(workers={self.workers})"


#: name -> :class:`Backend` subclass, populated at import time by the
#: built-in backends (plus any third-party plugins).
BACKENDS: Registry[type[Backend]] = Registry("backend")


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Class decorator registering an execution backend.

    ::

        @register_backend
        class MPIBackend(Backend):
            name = "mpi"
            description = "one MPI rank per program rank"
            ...
    """
    if not (isinstance(cls, type) and issubclass(cls, Backend)):
        raise ConfigError(
            f"register_backend needs a Backend subclass, got {cls!r}"
        )
    if not cls.name:
        raise ConfigError(f"backend class {cls.__name__} must set a name")
    if not cls.description:
        raise ConfigError(f"backend {cls.name!r} must set a description")
    return BACKENDS.register(cls.name, cls)


def get_backend(name: str, **options: Any) -> Backend:
    """Instantiate a registered backend by name (e.g. ``workers=4``)."""
    return BACKENDS.get(name)(**options)


def resolve_backend(
    backend: str | Backend | None, **options: Any
) -> Backend:
    """Coerce any backend reference to a :class:`Backend` instance.

    The uniform front door used by ``Sorter``, the CLI and the sweep
    runner: a registry name, an already-built instance, or ``None`` for
    the default (simulated) backend.  ``options`` apply to names only —
    passing them with a pre-built instance is an error.
    """
    if backend is None:
        backend = "simulated"
    if isinstance(backend, str):
        return get_backend(backend, **options)
    if isinstance(backend, Backend):
        if options:
            raise ConfigError(
                "backend options apply to registry names; configure a "
                "pre-built Backend instance at construction instead"
            )
        return backend
    raise ConfigError(
        f"cannot resolve a backend from {type(backend).__name__}; pass a "
        f"registered name or a Backend instance"
    )
