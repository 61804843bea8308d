"""The algorithm plugin registry.

Program modules *self-register*: each module in :mod:`repro.baselines` and
:mod:`repro.core` declares its :class:`~repro.algorithms.spec.AlgorithmSpec`
next to the program it describes, either with the :func:`register_algorithm`
decorator::

    @register_algorithm(
        name="bitonic",
        config_cls=BitonicConfig,
        balanced=False,
        paper_section="4.2",
        description="Batcher bitonic sort on a hypercube",
    )
    def bitonic_sort_program(ctx, keys, *, eps=0.05, seed=0): ...

or, when one program backs several named variants (the HSS schedules), by
calling :func:`register_algorithm` with complete specs.  Importing
:mod:`repro.algorithms` imports every built-in program module, so
``REGISTRY`` is fully populated after ``import repro``.

Third-party code extends the system the same way — build an
``AlgorithmSpec`` for your program and call ``register_algorithm(spec)``;
``Sorter``, ``Scenario``, the benchmarks and the CLI all resolve
algorithms through this one mapping.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.algorithms.spec import AlgorithmSpec
from repro.errors import ConfigError
from repro.utils.registry import Registry

__all__ = ["REGISTRY", "register_algorithm"]

#: name -> :class:`AlgorithmSpec`, populated at import time by the program
#: modules themselves (plus any third-party plugins).
REGISTRY: Registry[AlgorithmSpec] = Registry("algorithm")


def register_algorithm(spec: AlgorithmSpec | None = None, /, **spec_kwargs: Any):
    """Register an algorithm spec; usable directly or as a decorator.

    Direct form (``program`` supplied in the spec)::

        register_algorithm(AlgorithmSpec(name="hss", program=..., ...))

    Decorator form (``program`` is the decorated function)::

        @register_algorithm(name="radix", config_cls=RadixConfig, ...)
        def radix_sort_program(ctx, keys, *, key_bits=None): ...
    """
    if spec is not None:
        if spec_kwargs:
            raise ConfigError(
                "pass either a complete AlgorithmSpec or keyword fields, "
                "not both"
            )
        return REGISTRY.register(spec.name, spec)

    def decorator(program: Callable[..., Any]) -> Callable[..., Any]:
        built = AlgorithmSpec(program=program, **spec_kwargs)
        REGISTRY.register(built.name, built)
        return program

    return decorator
