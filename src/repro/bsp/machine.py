"""Machine descriptions for the BSP cost model.

A :class:`MachineModel` bundles the handful of scalars that the paper's
Chapter 5 analysis needs:

* ``alpha`` — per-message latency (the BSP ``L`` / LogP ``o+L`` lump),
* ``beta``  — per-byte transfer time on one link (inverse bandwidth),
* ``gamma_compare`` — time per key comparison (the ``T_I`` computation unit),
* ``gamma_byte`` — time per byte of local memory movement (copy/partition),
* ``topology`` — interconnect model supplying contention factors,
* ``cores_per_node`` — for the §6.1.1 shared-memory node-combining layout.

``MachineModel`` is the *resolved, executable* form consumed by the cost
model and engine.  The serializable catalog of named machines — presets,
the ``@register_machine`` plugin registry, topology-by-name references —
lives in :mod:`repro.machines`; build models from it with
``repro.machines.get_machine("mira-like-bgq")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.bsp.network import FullyConnected, Topology

__all__ = ["MachineModel"]

#: Fields where 0 means "inherit the value of another field" — the single
#: source of truth for every derived-field fallback rule.  Use sites must
#: price through :meth:`MachineModel.resolved` (or the convenience
#: conversion methods, which do) rather than re-implementing ``x or y``.
DERIVED_FIELD_FALLBACKS: dict[str, str] = {
    # Bare-key comparisons default to the record-comparison constant.
    "gamma_key_compare": "gamma_compare",
    # Intra-node latency defaults to the network message latency (a
    # machine spec that never thought about shared memory stays safe).
    "node_alpha": "alpha",
}


@dataclass(frozen=True)
class MachineModel:
    """Scalar performance parameters of a simulated machine.

    All times are in seconds; rates in bytes or operations per second are
    expressed as their reciprocal per-unit times.
    """

    name: str = "generic"
    #: Per-message latency in seconds (software + network injection).
    alpha: float = 2.0e-6
    #: Per-byte transfer time in seconds (inverse of link bandwidth).
    beta: float = 1.0 / 2.0e9
    #: Per-message latency for *intra-node* (shared-memory) collectives —
    #: essentially a synchronization + cache-line handoff.  0 means
    #: "inherit ``alpha``" (see :meth:`resolved`).
    node_alpha: float = 2.0e-7
    #: Runtime synchronization overhead per histogramming *round*, per tree
    #: level (seconds).  Iterative splitter refinement needs a full
    #: quiesce-broadcast-reduce-quiesce cycle per round; on Charm++ systems
    #: quiescence detection alone costs milliseconds at scale — far above
    #: the α·log p of the raw collectives.  This term charges
    #: ``round_sync_per_level · log₂(endpoints)`` per round to *every*
    #: round-based splitter algorithm (HSS and classic histogram sort
    #: alike), so it rewards algorithms that need fewer rounds — the
    #: mechanism behind Fig 6.2.
    round_sync_per_level: float = 0.0
    #: Seconds per *record* comparison for local sorting/merging — includes
    #: the cache-miss cost of moving key+payload records, so it is the right
    #: constant for the local-sort and merge phases.
    gamma_compare: float = 1.5e-9
    #: Seconds per *bare-key* comparison (contiguous key arrays: sample
    #: sorting, histogram binary searches, probe generation).  0 means
    #: "inherit ``gamma_compare``" (see :meth:`resolved`).
    gamma_key_compare: float = 0.0
    #: Seconds per byte of local memory traffic (bucketizing, copying).
    gamma_byte: float = 1.0 / 6.0e9
    #: Interconnect model.
    topology: Topology = field(default_factory=FullyConnected)
    #: Physical cores per node (1 = no shared-memory structure).
    cores_per_node: int = 1

    def __post_init__(self) -> None:
        for attr in (
            "alpha",
            "beta",
            "gamma_compare",
            "gamma_key_compare",
            "gamma_byte",
            "node_alpha",
            "round_sync_per_level",
        ):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")

    def with_(self, **changes: object) -> "MachineModel":
        """Return a copy with some fields replaced (dataclass ``replace``)."""
        return replace(self, **changes)

    @cached_property
    def _resolved(self) -> "MachineModel":
        changes = {
            derived: getattr(self, source)
            for derived, source in DERIVED_FIELD_FALLBACKS.items()
            if getattr(self, derived) == 0.0 and getattr(self, source) != 0.0
        }
        return replace(self, **changes) if changes else self

    def resolved(self) -> "MachineModel":
        """This machine with every "0 means inherit" field made explicit.

        The returned view prices identically whether a spec spelled a
        derived field out or left it 0 — the one place the fallback rules
        in :data:`DERIVED_FIELD_FALLBACKS` are applied.  Idempotent and
        cached; a model with no zeroed derived fields returns itself.
        """
        return self._resolved

    def nodes_for(self, nprocs: int) -> int:
        """Number of physical nodes hosting ``nprocs`` simulated cores."""
        return -(-nprocs // self.cores_per_node)

    # -- convenience conversions ------------------------------------------
    def compare_seconds(self, comparisons: float) -> float:
        """Time to execute ``comparisons`` record comparisons."""
        return comparisons * self.gamma_compare

    def key_compare_seconds(self, comparisons: float) -> float:
        """Time for ``comparisons`` bare-key comparisons (no payload)."""
        return comparisons * self.resolved().gamma_key_compare

    def copy_seconds(self, nbytes: float) -> float:
        """Time to move ``nbytes`` through local memory."""
        return nbytes * self.gamma_byte

    def transfer_seconds(self, nbytes: float, contention: float = 1.0) -> float:
        """Time to push ``nbytes`` through one link at the given contention."""
        return nbytes * self.beta * contention
