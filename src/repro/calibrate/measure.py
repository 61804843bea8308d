"""Run DoE cells and collect the calibration fit's inputs.

Two kinds of data come out of a cell, through the *existing* Sorter and
runtime plumbing — calibration adds no execution path of its own:

**Features** (:func:`extract_features`) are the cost model's deterministic
coefficients: per-phase comparison and local-byte counts plus the
machine-invariant collective/byte totals of :class:`CommStats`.  They are
read off *basis-machine* simulated runs — a machine whose constants are
all zero except the probed one set to ``1.0`` prices each phase at
exactly its raw count (``seconds = 1.0 x count``), so no formula here can
drift from the engine's actual charging.

**Measurements** (:func:`measure_cells`) are what the host really did:
per-phase compute wall (max over ranks, the BSP critical path) and mean
collective wait from ``RunResult.measured``, on any built-in backend
(thread by default), with warmup/repeat/outlier-trim controls.

:func:`synthetic_measurements` fabricates measurements *exactly* from the
linear form under a known :class:`~repro.machines.MachineSpec` — the
ground-truth generator behind the fitter tests and the
``calibration_quality`` bench suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.calibrate.doe import DoECell
from repro.errors import ConfigError
from repro.machines.spec import MachineSpec

__all__ = [
    "CellFeatures",
    "CellMeasurement",
    "extract_features",
    "measure_cells",
    "synthetic_measurements",
]

#: Constants the calibration fit recovers, in feature-column order.
COMPUTE_CONSTANTS = ("gamma_compare", "gamma_byte")
COMM_CONSTANTS = ("alpha", "beta")


@dataclass(frozen=True)
class CellFeatures:
    """Deterministic cost-model coefficients of one DoE cell."""

    cell: DoECell
    #: phase -> (comparison count, local byte count), critical path.
    compute: Mapping[str, tuple[float, float]]
    #: Number of priced collectives (machine-invariant).
    collectives: int
    #: Total network payload bytes (machine-invariant).
    net_bytes: int


@dataclass(frozen=True)
class CellMeasurement:
    """Wall-clock observations of one DoE cell (or a synthetic stand-in)."""

    cell: DoECell
    #: phase -> compute wall seconds (max over ranks, reduced over repeats).
    phase_wall_s: Mapping[str, float]
    #: Mean per-rank collective-wait seconds (reduced over repeats).
    comm_wait_s: float
    #: Samples that survived warmup and trimming.
    samples: int


def _basis_machine(**constants: float) -> MachineSpec:
    """A machine pricing *only* the probed constants (all others zero)."""
    fields = dict(
        alpha=0.0,
        beta=0.0,
        node_alpha=0.0,
        round_sync_per_level=0.0,
        gamma_compare=0.0,
        gamma_key_compare=0.0,
        gamma_byte=0.0,
        cores_per_node=1,
    )
    fields.update(constants)
    return MachineSpec(name="calibration-basis", **fields)


def _run_cell(cell: DoECell, machine, backend):
    from repro.algorithms import Dataset, Sorter
    from repro.records import parse_schema

    dataset = Dataset.from_workload(
        cell.workload,
        p=cell.procs,
        n_per=cell.keys_per_rank,
        seed=cell.workload_seed,
        payloads=parse_schema(cell.schema) if cell.schema else None,
    )
    strict = {"strict": False} if cell.algorithm.startswith("hss") else {}
    return Sorter(
        cell.algorithm,
        machine=machine,
        backend=backend,
        verify=False,
        eps=cell.eps,
        seed=cell.sort_seed,
        **strict,
    ).run(dataset)


def extract_features(cells: Sequence[DoECell]) -> list[CellFeatures]:
    """Per-cell cost coefficients via two basis-machine simulated runs.

    Run 1 (``gamma_compare=1``) prices each phase at its comparison count;
    run 2 (``gamma_byte=1``) at its local byte count.  Both runs use
    ``cores_per_node=1`` on a fully-connected topology — the same flat
    structure :func:`measure_cells` executes under, so the counts describe
    exactly the runs being timed.
    """
    features: list[CellFeatures] = []
    for cell in cells:
        cmp_run = _run_cell(cell, _basis_machine(gamma_compare=1.0), "simulated")
        byte_run = _run_cell(cell, _basis_machine(gamma_byte=1.0), "simulated")
        cmp_by_phase = cmp_run.engine_result.trace.breakdown().compute
        byte_by_phase = byte_run.engine_result.trace.breakdown().compute
        stats = cmp_run.engine_result.stats
        compute = {
            phase: (
                cmp_by_phase.get(phase, 0.0),
                byte_by_phase.get(phase, 0.0),
            )
            for phase in sorted(set(cmp_by_phase) | set(byte_by_phase))
        }
        features.append(
            CellFeatures(
                cell=cell,
                compute=compute,
                collectives=stats.collectives,
                net_bytes=stats.bytes,
            )
        )
    return features


def _trimmed_mean(values: Sequence[float], trim: int) -> float:
    ordered = sorted(values)
    kept = ordered[trim: len(ordered) - trim] if trim else ordered
    return float(sum(kept) / len(kept))


def measure_cells(
    cells: Sequence[DoECell],
    *,
    backend: str = "thread",
    workers: int | None = None,
    warmup: int = 1,
    repeats: int = 3,
    trim: int = 0,
) -> list[CellMeasurement]:
    """Time every cell on a measuring backend.

    Each cell runs ``warmup + repeats`` times; warmup runs are discarded
    (cold caches, lazy imports), and each phase's wall is the
    ``trim``-trimmed mean over the remaining repeats (``trim`` samples
    dropped from *each* end — ``repeats`` must exceed ``2 * trim``).
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")
    if trim < 0 or repeats - 2 * trim < 1:
        raise ConfigError(
            f"trim={trim} leaves no samples from repeats={repeats}; "
            f"need repeats > 2 * trim"
        )
    from repro.runtime import get_backend

    machine = _basis_machine()  # flat structure; constants never affect wall
    resolved = get_backend(backend, workers=workers)
    measurements: list[CellMeasurement] = []
    for cell in cells:
        phase_samples: dict[str, list[float]] = {}
        wait_samples: list[float] = []
        for attempt in range(warmup + repeats):
            run = _run_cell(cell, machine, resolved)
            measured = run.measured
            if measured is None or not measured.phase_wall_s:
                raise ConfigError(
                    f"backend {backend!r} reports no per-phase Measured "
                    f"block; calibration needs a measuring backend, one "
                    f"that runs the shared rank loop (e.g. thread)"
                )
            if attempt < warmup:
                continue
            for phase, seconds in measured.phase_wall_s.items():
                phase_samples.setdefault(phase, []).append(seconds)
            waits = measured.rank_comm_wait_s
            wait_samples.append(float(sum(waits) / max(1, len(waits))))
        measurements.append(
            CellMeasurement(
                cell=cell,
                phase_wall_s={
                    phase: _trimmed_mean(samples, trim)
                    for phase, samples in sorted(phase_samples.items())
                },
                comm_wait_s=_trimmed_mean(wait_samples, trim),
                samples=repeats,
            )
        )
    return measurements


def synthetic_measurements(
    features: Sequence[CellFeatures],
    spec: MachineSpec,
    *,
    noise: float = 0.0,
    seed: int = 0,
) -> list[CellMeasurement]:
    """Measurements fabricated exactly from the model's linear form.

    ``phase_wall = gamma_compare * comparisons + gamma_byte * bytes`` and
    ``comm_wait = alpha * collectives + beta * net_bytes`` under the known
    ``spec``, optionally perturbed by seeded multiplicative noise
    (``1 + noise * N(0, 1)``).  With ``noise=0`` the fitter must recover
    the spec's constants to solver precision — the ground truth the
    calibration tests and the ``calibration_quality`` suite gate on.
    """
    rng = np.random.default_rng(seed)
    out: list[CellMeasurement] = []
    for feat in features:
        jitter = (
            lambda: 1.0 + noise * float(rng.standard_normal())
            if noise
            else 1.0
        )
        phase_wall = {
            phase: (spec.gamma_compare * cmp + spec.gamma_byte * nbytes)
            * jitter()
            for phase, (cmp, nbytes) in feat.compute.items()
        }
        comm = (
            spec.alpha * feat.collectives + spec.beta * feat.net_bytes
        ) * jitter()
        out.append(
            CellMeasurement(
                cell=feat.cell,
                phase_wall_s=phase_wall,
                comm_wait_s=comm,
                samples=1,
            )
        )
    return out
