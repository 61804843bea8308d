"""Machine-readable experiment documents (the ``experiment.json`` format).

An :class:`ExperimentDocument` is the canonical record of one
``repro sweep`` invocation: the grid axes that were expanded, one
:class:`CellResult` per scenario, and host provenance.  It follows the
same determinism contract as :mod:`repro.bench.schema`: everything except
``wall_*``, ``created_unix``, ``provenance`` and the per-cell ``worker``
block is a pure function of (code, grid, seeds), so two runs of the same
sweep — serial or parallel, any host — agree on
:func:`strip_volatile_experiment` projections exactly.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Mapping

from repro.bench.schema import machine_provenance
from repro.experiments.scenario import Scenario
from repro.utils import document

__all__ = [
    "EXPERIMENT_SCHEMA_VERSION",
    "CellResult",
    "ExperimentDocument",
    "ExperimentSchemaError",
    "strip_volatile_experiment",
    "validate_experiment",
]

#: Bumped on any backwards-incompatible change to the JSON layout.
EXPERIMENT_SCHEMA_VERSION = 1

#: Cell execution outcomes.  ``skipped`` records a scenario the capability
#: model rejected upfront (e.g. a node-level algorithm on a flat layout) —
#: part of the deterministic payload, since which cells are runnable is a
#: property of the grid, not the host.
CELL_STATUSES = ("ok", "skipped")

#: Host-dependent keys, by nesting level.
_VOLATILE = document.Volatile(
    ("created_unix", "provenance", "wall_s"),
    {"cells": document.Volatile(("wall_s", "worker"))},
)


class ExperimentSchemaError(ValueError):
    """A document (or dict) does not conform to the experiment schema."""


@dataclass
class CellResult:
    """One executed (or skipped) grid cell."""

    scenario: dict[str, Any]
    status: str = "ok"
    metrics: dict[str, Any] = field(default_factory=dict)
    machine: dict[str, Any] = field(default_factory=dict)
    #: Human-readable reason for ``status="skipped"`` cells.
    reason: str = ""
    wall_s: float = 0.0
    worker: dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return Scenario.from_dict(self.scenario).name

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellResult":
        return cls(
            scenario=dict(data["scenario"]),
            status=data["status"],
            metrics=dict(data.get("metrics", {})),
            machine=dict(data.get("machine", {})),
            reason=data.get("reason", ""),
            wall_s=float(data.get("wall_s", 0.0)),
            worker=dict(data.get("worker", {})),
        )


@dataclass
class ExperimentDocument(document.JsonDocument):
    """A full ``repro sweep`` run: grid axes plus one entry per cell."""

    error_cls = ExperimentSchemaError
    volatile = _VOLATILE

    grid: dict[str, Any] = field(default_factory=dict)
    cells: list[CellResult] = field(default_factory=list)
    schema_version: int = EXPERIMENT_SCHEMA_VERSION
    created_unix: float = field(default_factory=time.time)
    provenance: dict[str, Any] = field(default_factory=machine_provenance)
    wall_s: float = 0.0

    def cell(self, name: str) -> CellResult:
        for cell in self.cells:
            if cell.name == name:
                return cell
        raise KeyError(f"document has no cell {name!r}")

    def iter_ok(self) -> Iterator[CellResult]:
        for cell in self.cells:
            if cell.status == "ok":
                yield cell

    def skipped(self) -> list[CellResult]:
        return [c for c in self.cells if c.status == "skipped"]

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "created_unix": self.created_unix,
            "provenance": dict(self.provenance),
            "grid": dict(self.grid),
            "wall_s": self.wall_s,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentDocument":
        errors = validate_experiment(data)
        if errors:
            raise ExperimentSchemaError("; ".join(errors))
        return cls(
            grid=dict(data.get("grid", {})),
            cells=[CellResult.from_dict(c) for c in data["cells"]],
            schema_version=int(data["schema_version"]),
            created_unix=float(data.get("created_unix", 0.0)),
            provenance=dict(data.get("provenance", {})),
            wall_s=float(data.get("wall_s", 0.0)),
        )


def strip_volatile_experiment(data: Mapping[str, Any]) -> dict[str, Any]:
    """Drop the fields allowed to differ between identical sweeps."""
    return document.strip_volatile(data, _VOLATILE)


def validate_experiment(data: Any) -> list[str]:
    """Return a list of human-readable schema violations (empty = valid)."""
    errors, complete = document.check_header(
        data, "document", ("schema_version", "grid", "cells"),
        EXPERIMENT_SCHEMA_VERSION,
    )
    if not complete:
        return errors
    if not isinstance(data["grid"], Mapping):
        errors.append("grid must be an object")
    if not isinstance(data["cells"], list):
        return errors + ["cells must be a list"]
    seen: set[str] = set()
    for i, cell in enumerate(data["cells"]):
        where = f"cells[{i}]"
        if not isinstance(cell, Mapping):
            errors.append(f"{where} must be an object")
            continue
        errors += document.missing_keys(cell, where, ("scenario", "status"))
        status = cell.get("status")
        if status is not None and status not in CELL_STATUSES:
            errors.append(
                f"{where}.status {status!r} not in {list(CELL_STATUSES)}"
            )
        scenario = cell.get("scenario")
        if scenario is not None:
            if not isinstance(scenario, Mapping):
                errors.append(f"{where}.scenario must be an object")
            else:
                key = json.dumps(scenario, sort_keys=True)
                if key in seen:
                    errors.append(f"{where}: duplicate scenario")
                seen.add(key)
        if status == "ok" and not cell.get("metrics"):
            errors.append(f"{where}: ok cell has no metrics")
        if not isinstance(cell.get("metrics", {}), Mapping):
            errors.append(f"{where}.metrics must be an object")
        if not isinstance(cell.get("machine", {}), Mapping):
            errors.append(f"{where}.machine must be an object")
    return errors
