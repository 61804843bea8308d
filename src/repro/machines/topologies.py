"""The interconnect-topology plugin registry.

:class:`~repro.bsp.network.Topology` subclasses are frozen dataclasses;
this module makes them *named plugins* so a machine spec can reference its
interconnect by name + parameters instead of holding an instance — the
step that makes machines fully serializable.  The four built-ins register
here; third-party topologies register the same way::

    @register_topology
    @dataclass(frozen=True)
    class HyperX(Topology):
        name: str = "hyperx"
        ...

Examples
--------
>>> from repro.machines import make_topology, topology_to_dict
>>> torus = make_topology("torus", dims=3, base_endpoints=16)
>>> torus.alltoall_contention(128)
2.0
>>> topology_to_dict(torus)
{'name': 'torus', 'params': {'base_endpoints': 16, 'dims': 3}}
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Mapping

from repro.bsp.network import Dragonfly, FatTree, FullyConnected, Topology, Torus
from repro.errors import ConfigError
from repro.utils.registry import Registry

__all__ = [
    "TOPOLOGIES",
    "register_topology",
    "make_topology",
    "topology_to_dict",
    "topology_from_dict",
]

#: name -> :class:`Topology` subclass.  The registry key is the class's
#: default ``name`` field, which instances carry — so any topology object
#: can be mapped back to its plugin without extra bookkeeping.
TOPOLOGIES: Registry[type[Topology]] = Registry("topology")


def register_topology(cls: type[Topology]) -> type[Topology]:
    """Register a :class:`Topology` dataclass under its default ``name``.

    Usable as a decorator.  The class must be a dataclass with a ``name``
    field whose default is the registry key.
    """
    if not hasattr(cls, "__dataclass_fields__"):
        raise ConfigError(
            f"topology {cls.__name__} must be a dataclass to be registrable"
        )
    name_fields = [f for f in fields(cls) if f.name == "name"]
    if not name_fields or not isinstance(name_fields[0].default, str):
        raise ConfigError(
            f"topology {cls.__name__} needs a 'name' field with a string "
            f"default (the registry key)"
        )
    return TOPOLOGIES.register(name_fields[0].default, cls)


def make_topology(name: str, /, **params: Any) -> Topology:
    """Instantiate a registered topology from keyword parameters.

    Unknown parameters raise :class:`~repro.errors.ConfigError` naming the
    valid ones (the dataclass fields, minus ``name``).
    """
    cls = TOPOLOGIES.get(name)
    valid = _param_names(cls)
    unknown = sorted(set(params) - valid)
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {unknown} for topology {name!r}; "
            f"valid parameters: {sorted(valid)}"
        )
    try:
        return cls(**params)
    except ValueError as exc:
        raise ConfigError(f"invalid topology {name!r}: {exc}") from exc


def topology_to_dict(topology: Topology) -> dict[str, Any]:
    """Serialize a topology instance to its ``{name, params}`` JSON form.

    Only non-default parameters are needed for fidelity, but *all*
    parameters are emitted so serialized machines are self-describing.
    """
    cls = type(topology)
    if topology.name not in TOPOLOGIES or TOPOLOGIES[topology.name] is not cls:
        raise ConfigError(
            f"topology {topology.name!r} ({cls.__name__}) is not registered; "
            f"register it with @register_topology before serializing"
        )
    return {
        "name": topology.name,
        "params": {
            key: getattr(topology, key) for key in sorted(_param_names(cls))
        },
    }


def topology_from_dict(data: Mapping[str, Any]) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output."""
    if "name" not in data:
        raise ConfigError("topology dict missing required key 'name'")
    return make_topology(data["name"], **dict(data.get("params", {})))


def _param_names(cls: type[Topology]) -> set[str]:
    return {f.name for f in fields(cls) if f.name != "name"}


# The built-in interconnects are plugins like any other.
for _cls in (FullyConnected, Torus, FatTree, Dragonfly):
    register_topology(_cls)
del _cls
