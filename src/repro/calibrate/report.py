"""The measured-vs-modeled calibration report.

One text table — also what ``repro calibrate`` prints and what
EXPERIMENTS.md cites — comparing, per DoE cell, the measured wall
(compute phases + collective wait) against the model re-priced two ways:
with the freshly fitted constants and with a preset baseline (``laptop``
by default).  The summary line carries the acceptance number: total
|measured − modeled| seconds under each set of constants, and the
improvement factor of fitted over baseline.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.calibrate.fit import (
    FitResult,
    constants_of,
    modeled_measurements,
    total_abs_error,
)
from repro.calibrate.measure import CellFeatures, CellMeasurement

__all__ = ["render_report"]


def _cell_total(meas: CellMeasurement) -> float:
    return sum(meas.phase_wall_s.values()) + meas.comm_wait_s


def render_report(
    features: Sequence[CellFeatures],
    measurements: Sequence[CellMeasurement],
    fit: FitResult,
    *,
    baseline: Mapping[str, float] | None = None,
    baseline_name: str = "laptop",
) -> str:
    """Measured-vs-modeled table plus the fitted-vs-baseline verdict."""
    if baseline is None:
        from repro.machines import get_machine

        baseline = constants_of(get_machine(baseline_name))
    fitted_twins = {
        m.cell.name: m for m in modeled_measurements(features, fit.constants)
    }
    baseline_twins = {
        m.cell.name: m for m in modeled_measurements(features, baseline)
    }
    rows = [("cell", "measured", "fitted", baseline_name)]
    for meas in measurements:
        rows.append(
            (
                meas.cell.name,
                f"{_cell_total(meas):.6f}",
                f"{_cell_total(fitted_twins[meas.cell.name]):.6f}",
                f"{_cell_total(baseline_twins[meas.cell.name]):.6f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(col.ljust(width) for col, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))

    fitted_err = total_abs_error(measurements, features, fit.constants)
    baseline_err = total_abs_error(measurements, features, baseline)
    lines.append("")
    lines.append(
        "fitted constants: "
        + "  ".join(
            f"{key}={value:.4g}" for key, value in sorted(fit.constants.items())
        )
    )
    lines.append(
        f"fit quality: compute R^2={fit.r2['compute']:.4f} "
        f"({fit.rows['compute']} rows), comm R^2={fit.r2['comm']:.4f} "
        f"({fit.rows['comm']} rows), {fit.cells} cells"
    )
    lines.append(
        f"total |measured - modeled|: fitted {fitted_err:.6f} s vs "
        f"{baseline_name} {baseline_err:.6f} s"
        + (
            f" ({baseline_err / fitted_err:.1f}x better)"
            if fitted_err > 0 and baseline_err > fitted_err
            else ""
        )
    )
    return "\n".join(lines)
