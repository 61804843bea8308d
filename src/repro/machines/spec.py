"""Typed, declarative description of one simulated machine.

A :class:`MachineSpec` is to the hardware axis what
:class:`~repro.algorithms.AlgorithmSpec` is to the algorithm axis: a plain
validated record that the registry hands out by name.  It carries the same
scalar parameters as the executable
:class:`~repro.bsp.machine.MachineModel`, but references its interconnect
*by registered topology name + parameters* rather than by instance, so a
spec round-trips through JSON bit-identically — provenance note and
paper-section tag included.

Examples
--------
>>> from repro.machines import MachineSpec
>>> spec = MachineSpec(
...     name="toy", alpha=1e-6, beta=1e-9,
...     topology="torus", topology_params={"dims": 3},
... )
>>> MachineSpec.from_json(spec.to_json()) == spec
True
>>> spec.model().topology.dims
3
>>> spec.override(cores_per_node=4).cores_per_node
4
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from repro.bsp.machine import MachineModel
from repro.errors import ConfigError
from repro.machines.topologies import make_topology

__all__ = ["MachineSpec"]

#: MachineModel scalar fields a spec carries verbatim (everything except
#: the topology, which a spec holds by name).
_MODEL_FIELDS = (
    "alpha",
    "beta",
    "node_alpha",
    "round_sync_per_level",
    "gamma_compare",
    "gamma_key_compare",
    "gamma_byte",
    "cores_per_node",
)


@dataclass(frozen=True)
class MachineSpec:
    """Declarative, serializable description of a registered machine.

    Time parameters mirror :class:`~repro.bsp.machine.MachineModel` (same
    units, same "0 means inherit" fallbacks, applied at pricing time via
    ``MachineModel.resolved``); :meth:`model` resolves the named topology
    into an executable model.
    """

    #: Registry key (the name used by ``Sorter``/``repro sort``/sweeps).
    name: str
    #: Per-message network latency (seconds).
    alpha: float = 2.0e-6
    #: Per-byte transfer time (seconds; inverse link bandwidth).
    beta: float = 1.0 / 2.0e9
    #: Intra-node collective latency; 0 inherits ``alpha``.
    node_alpha: float = 2.0e-7
    #: Per-round, per-tree-level runtime synchronization overhead.
    round_sync_per_level: float = 0.0
    #: Seconds per record comparison (local sort / merge phases).
    gamma_compare: float = 1.5e-9
    #: Seconds per bare-key comparison; 0 inherits ``gamma_compare``.
    gamma_key_compare: float = 0.0
    #: Seconds per byte of local memory traffic.
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
        # Validate scalars and the topology reference eagerly: a spec that
        # constructs is a spec that models.  Building the model checks
        # both (MachineModel rejects bad scalars, make_topology rejects
        # unknown names/params) and pins topology_params to a plain dict
        # so equality and JSON round-trips are representation-independent.
        object.__setattr__(self, "topology_params", dict(self.topology_params))
        object.__setattr__(self, "provenance", dict(self.provenance))
        try:
            self._build_model()
        except ValueError as exc:
            raise ConfigError(f"invalid machine spec {self.name!r}: {exc}") from exc

    # ------------------------------------------------------------------ #
    def _build_model(self) -> MachineModel:
        return MachineModel(
            name=self.name,
            topology=make_topology(self.topology, **self.topology_params),
            **{f: getattr(self, f) for f in _MODEL_FIELDS},
        )

    def model(self) -> MachineModel:
        """Resolve to the executable :class:`MachineModel`."""
        return self._build_model()

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
            **{f: getattr(self, f) for f in _MODEL_FIELDS},
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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"machine spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)
