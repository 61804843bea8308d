"""Deterministic design of experiments for machine-constant calibration.

A DoE is a short list of :class:`DoECell`\\ s — sort scenarios chosen so
the four fittable constants of the α–β–γ cost model are *separately*
excited:

* **γ_compare** — compute-heavy cells (large ``keys_per_rank``) where
  ``n log n`` comparison work dominates the per-phase wall-clock;
* **γ_byte** — record-carrying cells (wide payload schemas) whose local
  bucketizing/copy traffic scales with record width while comparison
  counts stay key-only;
* **α** — small-``n``, larger-``p`` cells where the splitter phase's many
  tiny collectives dominate the collective wait;
* **β** — the same record-carrying cells seen from the wire: payload
  bytes multiply the one-pass all-to-all volume without adding
  collectives.

Two algorithms with different collective mixes (multi-round ``hss`` vs
single-gather ``sample-regular``) keep the (collectives, bytes) feature
columns of the communication fit linearly independent.

The design is a *pure function of its seed*: same seed, same profile →
the same cells, the same workload draws, the same feature matrix —
which is what lets the ``calibration_quality`` bench suite gate the
fitter deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ConfigError

__all__ = ["DoECell", "DOE_PROFILES", "design_cells", "render_doe_table"]

#: The §6.3 particle layout (32-byte records) — the wide-record probe.
_RECORD_SCHEMA = "mass:f8,vx:f4,vy:f4,vz:f4,id:u4"
#: A narrow two-column schema for the small-record middle ground.
_NARROW_SCHEMA = "mass:f8,id:u4"


@dataclass(frozen=True)
class DoECell:
    """One calibration scenario: a (algorithm, workload, size, schema) cell."""

    name: str
    algorithm: str
    workload: str
    procs: int
    keys_per_rank: int
    eps: float
    #: Compact record schema (``"mass:f8,id:u4"``) or ``""`` for key-only.
    schema: str
    #: Workload generation seed (derived from the DoE seed).
    workload_seed: int
    #: Algorithm sampling seed (derived from the DoE seed).
    sort_seed: int

    def describe(self) -> dict[str, Any]:
        """Flat JSON form (provenance blocks, the ``--dry-run`` table)."""
        return {
            "name": self.name,
            "algorithm": self.algorithm,
            "workload": self.workload,
            "procs": self.procs,
            "keys_per_rank": self.keys_per_rank,
            "eps": self.eps,
            "schema": self.schema,
        }


@dataclass(frozen=True)
class _Profile:
    procs: tuple[int, ...]
    keys_per_rank: tuple[int, ...]
    schemas: tuple[str, ...]
    algorithms: tuple[str, ...]
    workloads: tuple[str, ...]
    eps: float = 0.1


#: Named cell grids.  ``default`` is the ``repro calibrate`` design;
#: ``tiny`` is the CI-smoke / unit-test grid (seconds, not minutes).
DOE_PROFILES: dict[str, _Profile] = {
    "default": _Profile(
        procs=(4, 8),
        keys_per_rank=(2_000, 12_000, 48_000),
        schemas=("", _RECORD_SCHEMA),
        algorithms=("hss", "sample-regular"),
        workloads=("uniform",),
    ),
    "tiny": _Profile(
        procs=(4,),
        keys_per_rank=(1_000, 4_000),
        schemas=("", _NARROW_SCHEMA),
        algorithms=("hss", "sample-regular"),
        workloads=("uniform",),
    ),
}


def design_cells(seed: int = 0, profile: str = "default") -> list[DoECell]:
    """The calibration DoE: a pure function of ``(seed, profile)``.

    Workload and sampling seeds are derived per cell from ``seed`` with a
    fixed affine map, so two calibrations with the same seed measure
    byte-identical inputs while different seeds draw fresh data.
    """
    try:
        spec = DOE_PROFILES[profile]
    except KeyError:
        raise ConfigError(
            f"unknown DoE profile {profile!r}; "
            f"choose from {sorted(DOE_PROFILES)}"
        ) from None
    cells: list[DoECell] = []
    index = 0
    for algorithm in spec.algorithms:
        for workload in spec.workloads:
            for procs in spec.procs:
                for n_per in spec.keys_per_rank:
                    for schema in spec.schemas:
                        # Wide records on every size would double the
                        # slowest cells for no extra information; probe
                        # record width everywhere except the largest n.
                        if schema and n_per == max(spec.keys_per_rank):
                            continue
                        tag = "rec" if schema else "key"
                        cells.append(
                            DoECell(
                                name=(
                                    f"c{index:02d}/{algorithm}/{workload}/"
                                    f"p{procs}/n{n_per}/{tag}"
                                ),
                                algorithm=algorithm,
                                workload=workload,
                                procs=procs,
                                keys_per_rank=n_per,
                                eps=spec.eps,
                                schema=schema,
                                workload_seed=(seed * 7919 + 131 * index + 7)
                                % 2**31,
                                sort_seed=(seed * 104729 + 17 * index + 3)
                                % 2**31,
                            )
                        )
                        index += 1
    return cells


def render_doe_table(cells: Sequence[DoECell]) -> str:
    """The ``repro calibrate --dry-run`` table."""
    rows = [
        ("cell", "algorithm", "workload", "p", "n/rank", "schema"),
    ]
    for cell in cells:
        rows.append(
            (
                cell.name,
                cell.algorithm,
                cell.workload,
                str(cell.procs),
                str(cell.keys_per_rank),
                cell.schema or "(key-only)",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(col.ljust(width) for col, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)
