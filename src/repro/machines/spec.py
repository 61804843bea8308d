"""The one machine type: a typed, declarative, priceable machine.

A :class:`MachineSpec` bundles the handful of scalars that the paper's
Chapter 5 analysis prices every algorithm from:

* ``alpha`` — per-message latency (the BSP ``L`` / LogP ``o+L`` lump),
* ``beta``  — per-byte transfer time on one link (inverse bandwidth),
* ``gamma_compare`` — time per key comparison (the ``T_I`` computation unit),
* ``gamma_byte`` — time per byte of local memory movement (copy/partition),
* ``topology`` — interconnect plugin supplying contention factors,
* ``cores_per_node`` — for the §6.1.1 shared-memory node-combining layout.

It is to the hardware axis what :class:`~repro.algorithms.AlgorithmSpec`
is to the algorithm axis: a plain validated record that the registry hands
out by name and the cost model prices directly.  The interconnect is
referenced *by registered topology name + parameters*, so a spec
round-trips through JSON bit-identically — provenance note and
paper-section tag included; validation builds the topology instance once,
as :attr:`MachineSpec.network`.

Examples
--------
>>> from repro.machines import MachineSpec
>>> spec = MachineSpec(
...     name="toy", alpha=1e-6, beta=1e-9,
...     topology="torus", topology_params={"dims": 3},
... )
>>> MachineSpec.from_json(spec.to_json()) == spec
True
>>> spec.network.dims
3
>>> spec.override(cores_per_node=4).cores_per_node
4
>>> spec.resolved().gamma_key_compare == spec.gamma_compare
True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.machines.topologies import make_topology
from repro.utils.document import load_json

__all__ = ["MachineSpec"]

#: The per-unit time fields (seconds), all required to be non-negative.
_TIME_FIELDS = (
    "alpha",
    "beta",
    "node_alpha",
    "round_sync_per_level",
    "gamma_compare",
    "gamma_key_compare",
    "gamma_byte",
)

#: Fields where 0 means "inherit the value of another field" — the single
#: source of truth for every derived-field fallback rule.  Use sites must
#: price through :meth:`MachineSpec.resolved` (or the convenience
#: conversion methods, which do) rather than re-implementing ``x or y``.
DERIVED_FIELD_FALLBACKS: dict[str, str] = {
    # Bare-key comparisons default to the record-comparison constant.
    "gamma_key_compare": "gamma_compare",
    # Intra-node latency defaults to the network message latency (a
    # machine spec that never thought about shared memory stays safe).
    "node_alpha": "alpha",
}


@dataclass(frozen=True)
class MachineSpec:
    """Scalar performance parameters of a registered, simulated machine.

    All times are in seconds; rates in bytes or operations per second are
    expressed as their reciprocal per-unit times.  Besides its fields a
    spec carries ``network``: the :class:`~repro.bsp.network.Topology`
    instance that ``topology`` and ``topology_params`` name, built once at
    validation and read by the cost model for all-to-all contention.
    """

    #: Registry key (the name used by ``Sorter``/``repro sort``/sweeps).
    name: str
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
    #: Registered interconnect plugin name (see ``TOPOLOGIES``).
    topology: str = "fully-connected"
    #: Keyword parameters for the topology plugin.
    topology_params: Mapping[str, Any] = field(default_factory=dict)
    #: Physical cores per node (1 = no shared-memory structure).
    cores_per_node: int = 1
    #: Provenance: what real system (or regime) the constants model and
    #: how they were calibrated.
    note: str = ""
    #: Paper section whose experiments this machine backs (e.g. ``"6.1"``).
    paper_section: str = ""
    #: Structured provenance for generated specs (``repro calibrate``):
    #: DoE seed, backend, sample counts, fit residuals.  Plain JSON data;
    #: never consulted by the cost model.  Empty for hand-written presets.
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("machine spec needs a non-empty name")
        # Pin the mappings to plain dicts so equality and JSON round-trips
        # are representation-independent.
        object.__setattr__(self, "topology_params", dict(self.topology_params))
        object.__setattr__(self, "provenance", dict(self.provenance))
        # Validate eagerly — a spec that constructs is a spec that prices.
        # make_topology rejects unknown names/params; the instance it
        # builds is the interconnect the cost model asks for contention.
        object.__setattr__(
            self, "network", make_topology(self.topology, **self.topology_params)
        )
        for attr in _TIME_FIELDS:
            if getattr(self, attr) < 0:
                raise ConfigError(
                    f"invalid machine spec {self.name!r}: {attr} must be "
                    f"non-negative"
                )
        if self.cores_per_node < 1:
            raise ConfigError(
                f"invalid machine spec {self.name!r}: cores_per_node must "
                f"be >= 1"
            )

    # ------------------------------------------------------------------ #
    def override(self, **changes: Any) -> "MachineSpec":
        """A copy with some fields replaced (validated like any spec).

        Unknown fields raise :class:`~repro.errors.ConfigError` naming the
        valid ones — the ``overrides={}`` surface of the machine registry.
        """
        valid = {f.name for f in fields(self)} - {"name"}
        unknown = sorted(set(changes) - valid)
        if unknown:
            raise ConfigError(
                f"unknown override(s) {unknown} for machine {self.name!r}; "
                f"valid fields: {sorted(valid)}"
            )
        return replace(self, **changes)

    @cached_property
    def _resolved(self) -> "MachineSpec":
        changes = {
            derived: getattr(self, source)
            for derived, source in DERIVED_FIELD_FALLBACKS.items()
            if getattr(self, derived) == 0.0 and getattr(self, source) != 0.0
        }
        return replace(self, **changes) if changes else self

    def resolved(self) -> "MachineSpec":
        """This machine with every "0 means inherit" field made explicit.

        The returned view prices identically whether a spec spelled a
        derived field out or left it 0 — the one place the fallback rules
        in :data:`DERIVED_FIELD_FALLBACKS` are applied.  Idempotent and
        cached; a spec with no zeroed derived fields returns itself.
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

    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, Any]:
        """Compact provenance block (bench/experiment documents)."""
        return {
            "name": self.name,
            "topology": self.topology,
            "cores_per_node": self.cores_per_node,
        }

    def summary_lines(self) -> list[str]:
        """This spec's rows in the ``repro machines`` listing."""
        section = f"§{self.paper_section}" if self.paper_section else ""
        topo = self.topology
        if self.topology_params:
            inner = ", ".join(
                f"{k}={v}" for k, v in sorted(self.topology_params.items())
            )
            topo = f"{topo}({inner})"
        lines = [
            f"{self.name:18s} {section:6s} {topo}, "
            f"{self.cores_per_node} cores/node",
            f"{'':18s} alpha={self.alpha:.2e}s  beta={self.beta:.2e}s/B  "
            f"gamma={self.gamma_compare:.2e}s/cmp",
        ]
        if self.note:
            lines.append(f"{'':18s} {self.note}")
        return lines

    # ------------------------------------------------------------------ #
    # (De)serialization.
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            **{f: getattr(self, f) for f in _TIME_FIELDS},
            "cores_per_node": self.cores_per_node,
            "topology": {
                "name": self.topology,
                "params": dict(self.topology_params),
            },
            "note": self.note,
            "paper_section": self.paper_section,
            # Presets carry no structured provenance; omit the key so
            # their serialized form is unchanged by the calibration layer.
            **({"provenance": dict(self.provenance)} if self.provenance else {}),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MachineSpec":
        missing = [k for k in ("name", "topology") if k not in data]
        if missing:
            raise ConfigError(f"machine dict missing required keys {missing}")
        topology = data["topology"]
        if isinstance(topology, str):
            topo_name, topo_params = topology, {}
        elif isinstance(topology, Mapping) and "name" in topology:
            topo_name = topology["name"]
            topo_params = dict(topology.get("params", {}))
        else:
            raise ConfigError(
                "machine 'topology' must be a name or a {name, params} object"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known - {"topology"})
        if unknown:
            raise ConfigError(
                f"unknown machine field(s) {unknown} for "
                f"{data.get('name')!r}"
            )
        kwargs = {
            key: data[key]
            for key in known - {"name", "topology", "topology_params"}
            if key in data
        }
        return cls(
            name=data["name"],
            topology=topo_name,
            topology_params=topo_params,
            **kwargs,
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MachineSpec":
        return cls.from_dict(load_json(text, ConfigError, "machine spec"))
