"""The workload plugin registry — fourth registry axis of the repo.

Algorithms, machines and execution backends already resolve through typed
spec registries; this module gives input workloads the same treatment.  A
:class:`WorkloadSpec` couples the generator function with its description,
paper-section tag and (when the workload models record-carrying inputs,
like the ChaNGa particle sets) its natural :class:`~repro.records.RecordSchema`.

Generator modules self-register::

    @register_workload(
        "uniform",
        description="Uniform 62-bit integer keys",
        paper_section="6.2",
    )
    def uniform_shards(p, n_per, rng=0): ...

Call sites resolve names through :data:`WORKLOAD_SPECS` /
:func:`get_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import WorkloadError
from repro.records import RecordSchema

__all__ = [
    "WorkloadSpec",
    "WORKLOAD_SPECS",
    "register_workload",
    "get_workload",
    "available_workloads",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload generator plus its declarative metadata."""

    #: Registry name (``repro sort --workload <name>``).
    name: str
    #: Generator with the catalog call shape ``fn(p, n_per, rng, **kwargs)``
    #: returning ``p`` per-rank key arrays.
    fn: Callable
    #: One-line description (the README workloads table row).
    description: str
    #: Paper section the workload reproduces/stresses ("6.2", "4.3", ...).
    paper_section: str = ""
    #: Natural record layout for record-carrying runs, or None for
    #: key-only workloads.  ``Dataset.from_workload(..., payloads=True)``
    #: resolves to this schema.
    record_schema: RecordSchema | None = field(default=None)

    def generate(self, p: int, n_per: int, rng=0, **kwargs):
        """Generate the per-rank key shards."""
        return self.fn(p, n_per, rng, **kwargs)


#: name -> spec; populated by :func:`register_workload` at import time of
#: the generator modules (the package ``__init__`` imports them all).
WORKLOAD_SPECS: dict[str, WorkloadSpec] = {}


def register_workload(
    name: str,
    *,
    description: str,
    paper_section: str = "",
    record_schema: Mapping[str, str] | RecordSchema | None = None,
):
    """Decorator registering a generator function under ``name``."""
    if record_schema is not None and not isinstance(record_schema, RecordSchema):
        record_schema = RecordSchema.from_mapping(record_schema)

    def decorate(fn: Callable) -> Callable:
        if name in WORKLOAD_SPECS:
            raise WorkloadError(f"workload {name!r} is already registered")
        WORKLOAD_SPECS[name] = WorkloadSpec(
            name=name,
            fn=fn,
            description=description,
            paper_section=paper_section,
            record_schema=record_schema,
        )
        return fn

    return decorate


def get_workload(name: str) -> WorkloadSpec:
    """Resolve a registered workload spec by name."""
    try:
        return WORKLOAD_SPECS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOAD_SPECS)}"
        ) from None


def available_workloads() -> list[str]:
    """Sorted names of every registered workload."""
    return sorted(WORKLOAD_SPECS)
