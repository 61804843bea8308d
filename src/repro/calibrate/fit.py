"""Non-negative least squares over the cost model's linear form.

The engine prices every run as a linear combination of four constants —
per-phase compute is ``gamma_compare * comparisons + gamma_byte *
local_bytes`` (the only two constants :mod:`repro.bsp.cost_model` charges
through), and the collective wait is ``alpha * collectives + beta *
net_bytes``.  Calibration is therefore two small regressions:

* the **compute fit** stacks one row per (cell, phase) with feature
  columns ``[comparisons, local_bytes]`` and the measured phase wall as
  the target, recovering ``gamma_compare`` and ``gamma_byte``;
* the **comm fit** stacks one row per cell with columns
  ``[collectives, net_bytes]`` and the measured collective wait as the
  target, recovering ``alpha`` and ``beta``.

Machine constants are times, so the solver is a hand-rolled
Lawson–Hanson NNLS (non-negativity built in, no SciPy dependency).
Before solving, the design matrix is checked for identifiability: an
all-zero feature column or a rank-deficient column space means some
constant could take *any* value without changing the fit, and
:class:`~repro.errors.CalibrationError` names it rather than emitting a
spec that silently encodes garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.calibrate.measure import CellFeatures, CellMeasurement
from repro.errors import CalibrationError, ConfigError
from repro.machines.spec import MachineSpec

__all__ = [
    "FitResult",
    "fit_constants",
    "modeled_measurements",
    "total_abs_error",
    "constants_of",
]

#: The fittable constants, keyed by the regression they come from.
_COMPUTE_COLUMNS = ("gamma_compare", "gamma_byte")
_COMM_COLUMNS = ("alpha", "beta")

#: Relative singular-value floor below which a design is rank-deficient.
_CONDITION_FLOOR = 1e-10


@dataclass(frozen=True)
class FitResult:
    """Fitted machine constants plus the evidence behind them.

    ``constants`` always carries exactly the four engine-priced keys
    (``alpha``, ``beta``, ``gamma_compare``, ``gamma_byte``); the
    remaining quality fields feed the emitted spec's provenance block and
    the ``calibration_quality`` bench gate.
    """

    #: constant name -> fitted non-negative value (seconds / per-byte).
    constants: dict[str, float]
    #: fit name (``"compute"`` / ``"comm"``) -> coefficient of determination.
    r2: dict[str, float]
    #: fit name -> summed absolute residual (seconds).
    residual_s: dict[str, float]
    #: fit name -> number of regression rows.
    rows: dict[str, int]
    #: DoE cells behind the fit.
    cells: int


def constants_of(spec: MachineSpec) -> dict[str, float]:
    """A spec's engine-priced constants in fit form (fallbacks resolved)."""
    return {
        "alpha": spec.alpha,
        "beta": spec.beta,
        "gamma_compare": spec.gamma_compare,
        "gamma_byte": spec.gamma_byte,
    }


def _nnls(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Lawson–Hanson active-set NNLS: ``argmin ||Ax - b||, x >= 0``."""
    m, n = design.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = design.T @ (target - design @ x)
    tol = 10 * np.finfo(float).eps * np.linalg.norm(design, 1) * max(m, n)
    for _ in range(3 * n * max(m, 30)):
        if passive.all() or w[~passive].max(initial=-np.inf) <= tol:
            break
        j = int(np.flatnonzero(~passive)[np.argmax(w[~passive])])
        passive[j] = True
        while True:
            s = np.zeros(n)
            cols = np.flatnonzero(passive)
            s[cols], *_ = np.linalg.lstsq(
                design[:, cols], target, rcond=None
            )
            if s[cols].min(initial=np.inf) > 0:
                x = s
                break
            blocking = cols[s[cols] <= 0]
            ratios = x[blocking] / (x[blocking] - s[blocking])
            step = ratios.min()
            x = x + step * (s - x)
            passive[x <= tol] = False
            x[~passive] = 0.0
        w = design.T @ (target - design @ x)
    return x


def _check_identifiable(
    design: np.ndarray, columns: Sequence[str], fit: str
) -> None:
    """Raise :class:`CalibrationError` naming unidentifiable constants."""
    norms = np.linalg.norm(design, axis=0)
    dead = [name for name, norm in zip(columns, norms) if norm == 0.0]
    if dead:
        err = CalibrationError(
            f"{fit} fit cannot identify {', '.join(dead)}: its feature "
            f"column is all-zero over the DoE — no cell exercises it; "
            f"widen the design (see repro calibrate --profile)"
        )
        err.constants = tuple(dead)
        raise err
    scaled = design / norms
    svals = np.linalg.svd(scaled, compute_uv=False)
    if svals.min() / svals.max() < _CONDITION_FLOOR:
        _, _, vt = np.linalg.svd(scaled)
        null = np.abs(vt[-1])
        entangled = [
            name
            for name, weight in zip(columns, null)
            if weight > 0.1 * null.max()
        ]
        err = CalibrationError(
            f"{fit} fit is rank-deficient: the feature columns for "
            f"{', '.join(entangled)} are linearly dependent over the DoE, "
            f"so their values cannot be separated; add cells that vary "
            f"them independently"
        )
        err.constants = tuple(entangled)
        raise err


def _r2(design: np.ndarray, target: np.ndarray, x: np.ndarray) -> float:
    residual = target - design @ x
    ss_res = float(residual @ residual)
    centered = target - target.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def _paired(
    features: Sequence[CellFeatures],
    measurements: Sequence[CellMeasurement],
) -> list[tuple[CellFeatures, CellMeasurement]]:
    by_name = {m.cell.name: m for m in measurements}
    missing = [f.cell.name for f in features if f.cell.name not in by_name]
    if missing or len(features) != len(measurements):
        raise ConfigError(
            f"features and measurements describe different cells "
            f"({len(features)} vs {len(measurements)}; "
            f"unmatched: {missing[:3]})"
        )
    return [(f, by_name[f.cell.name]) for f in features]


def fit_constants(
    features: Sequence[CellFeatures],
    measurements: Sequence[CellMeasurement],
) -> FitResult:
    """Recover ``alpha, beta, gamma_compare, gamma_byte`` from a DoE run.

    ``features`` and ``measurements`` must describe the same cells (they
    are matched by cell name).  Raises
    :class:`~repro.errors.CalibrationError` when the design does not
    identify every constant.
    """
    pairs = _paired(features, measurements)
    if not pairs:
        raise ConfigError("cannot fit machine constants from zero cells")

    compute_rows: list[tuple[float, float]] = []
    compute_target: list[float] = []
    for feat, meas in pairs:
        for phase, (cmp_count, byte_count) in feat.compute.items():
            compute_rows.append((cmp_count, byte_count))
            compute_target.append(meas.phase_wall_s.get(phase, 0.0))
    comm_rows = [(f.collectives, f.net_bytes) for f, _ in pairs]
    comm_target = [m.comm_wait_s for _, m in pairs]

    constants: dict[str, float] = {}
    r2: dict[str, float] = {}
    residual_s: dict[str, float] = {}
    rows: dict[str, int] = {}
    for fit, columns, matrix, target in (
        ("compute", _COMPUTE_COLUMNS, compute_rows, compute_target),
        ("comm", _COMM_COLUMNS, comm_rows, comm_target),
    ):
        design = np.asarray(matrix, dtype=np.float64)
        b = np.asarray(target, dtype=np.float64)
        _check_identifiable(design, columns, fit)
        x = _nnls(design, b)
        constants.update(zip(columns, (float(v) for v in x)))
        r2[fit] = _r2(design, b, x)
        residual_s[fit] = float(np.abs(b - design @ x).sum())
        rows[fit] = len(b)
    return FitResult(
        constants=constants,
        r2=r2,
        residual_s=residual_s,
        rows=rows,
        cells=len(pairs),
    )


def modeled_measurements(
    features: Sequence[CellFeatures],
    constants: Mapping[str, float],
) -> list[CellMeasurement]:
    """Re-price DoE cells under ``constants`` via the model's linear form.

    The deterministic counterpart of :func:`~repro.calibrate.measure.\
measure_cells` — used to compare a fitted (or preset) machine against
    what the host actually measured.
    """
    out: list[CellMeasurement] = []
    for feat in features:
        out.append(
            CellMeasurement(
                cell=feat.cell,
                phase_wall_s={
                    phase: constants["gamma_compare"] * cmp_count
                    + constants["gamma_byte"] * byte_count
                    for phase, (cmp_count, byte_count) in feat.compute.items()
                },
                comm_wait_s=constants["alpha"] * feat.collectives
                + constants["beta"] * feat.net_bytes,
                samples=0,
            )
        )
    return out


def total_abs_error(
    measurements: Sequence[CellMeasurement],
    features: Sequence[CellFeatures],
    constants: Mapping[str, float],
) -> float:
    """Sum of |measured − modeled| seconds over every phase and cell.

    The acceptance metric behind ``repro calibrate``'s report: fitted
    constants must beat the preset they replace on exactly this number.
    """
    modeled = {m.cell.name: m for m in modeled_measurements(features, constants)}
    total = 0.0
    for meas in measurements:
        twin = modeled[meas.cell.name]
        # Sorted: a set's order follows PYTHONHASHSEED, and the float sum
        # must not.
        for phase in sorted(set(meas.phase_wall_s) | set(twin.phase_wall_s)):
            total += abs(
                meas.phase_wall_s.get(phase, 0.0)
                - twin.phase_wall_s.get(phase, 0.0)
            )
        total += abs(meas.comm_wait_s - twin.comm_wait_s)
    return total
