"""The machine plugin registry.

Mirrors :mod:`repro.algorithms.registry` on the hardware axis: the preset
catalog (:mod:`repro.machines.catalog`) self-registers at import, and
third-party code extends the system the same way — build a
:class:`~repro.machines.MachineSpec` and hand it to
:func:`register_machine`, either directly or by decorating a zero-argument
factory::

    @register_machine
    def my_testbed() -> MachineSpec:
        return MachineSpec(name="my-testbed", alpha=5e-6, ...)

``Sorter``, ``repro sort --machine``, ``perf.model``, the benchmark suites
and the experiment sweeps all resolve machines through this one mapping.

Examples
--------
>>> from repro.machines import MACHINES, get_machine
>>> len(MACHINES.names()) >= 6
True
>>> get_machine("mira-like-bgq").network.dims
5
>>> get_machine("mira-like-bgq", overrides={"cores_per_node": 1}).cores_per_node
1
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.errors import ConfigError
from repro.machines.spec import MachineSpec
from repro.utils.registry import Registry

__all__ = [
    "MACHINES",
    "register_machine",
    "get_machine",
    "resolve_machine",
]


def register_machine(
    spec: MachineSpec | Callable[[], MachineSpec],
    *,
    replace: bool = False,
) -> MachineSpec | Callable[[], MachineSpec]:
    """Register a machine spec; usable directly or as a factory decorator.

    Direct form::

        register_machine(MachineSpec(name="my-testbed", ...))

    Decorator form (the factory is called once, at registration)::

        @register_machine
        def my_testbed() -> MachineSpec: ...

    Re-registering an *identical* spec is a no-op; a conflicting duplicate
    is an error unless ``replace=True`` (the calibration emitter uses it —
    re-calibrating the same host legitimately updates ``local-calibrated``).
    """
    built = spec() if callable(spec) else spec
    if not isinstance(built, MachineSpec):
        raise ConfigError(
            f"register_machine needs a MachineSpec (or a factory returning "
            f"one), got {type(built).__name__}"
        )
    MACHINES.register(built.name, built, replace=replace)
    return spec


def _load_machine_path() -> None:
    """Load spec JSON files named by ``REPRO_MACHINE_PATH``.

    The env var holds ``os.pathsep``-separated paths to ``MachineSpec``
    JSON files (``repro calibrate --out spec.json`` output).  It is how a
    generated spec crosses process boundaries — ``repro sweep --machines
    local-calibrated`` in a fresh process resolves the name without any
    code registering it.  This is the :data:`MACHINES` loader: it runs
    before every listing and on a lookup miss, so ``repro machines`` and
    ``repro sweep --machines`` see the same catalog.  Files are
    (re)loaded with replace semantics, so a re-calibration on disk wins
    over a stale in-process copy.
    """
    import os

    raw = os.environ.get("REPRO_MACHINE_PATH", "")
    for path in filter(None, raw.split(os.pathsep)):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                spec = MachineSpec.from_json(fh.read())
        except OSError as exc:
            raise ConfigError(
                f"REPRO_MACHINE_PATH entry {path!r} is unreadable: {exc}"
            ) from exc
        register_machine(spec, replace=True)


#: name -> :class:`MachineSpec`, populated at import time by the preset
#: catalog (plus any third-party plugins and ``REPRO_MACHINE_PATH`` files).
MACHINES: Registry[MachineSpec] = Registry("machine", loader=_load_machine_path)


def get_machine(
    name: str, overrides: Mapping[str, Any] | None = None
) -> MachineSpec:
    """Look up a registered machine by name, applying overrides."""
    spec = MACHINES.get(name)
    if overrides:
        spec = spec.override(**overrides)
    return spec


def resolve_machine(
    machine: str | MachineSpec | None,
    overrides: Mapping[str, Any] | None = None,
    *,
    default: str = "laptop",
) -> MachineSpec:
    """Coerce a machine reference to its :class:`MachineSpec`.

    The uniform front door used by ``Sorter``, the CLI, ``perf.model`` and
    the benchmark suites: a registered name, a :class:`MachineSpec`, or
    ``None`` for the default machine.  ``overrides`` apply to either.
    """
    if machine is None:
        machine = default
    if isinstance(machine, str):
        return get_machine(machine, overrides)
    if isinstance(machine, MachineSpec):
        return machine.override(**overrides) if overrides else machine
    raise ConfigError(
        f"cannot resolve a machine from {type(machine).__name__}; pass a "
        f"registered name or a MachineSpec"
    )
