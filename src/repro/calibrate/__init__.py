"""Machine-constant calibration: measure the host, fit the cost model.

The presets in :mod:`repro.machines.catalog` describe *hypothetical*
machines; this package closes the loop on the machine you are actually
running on.  It mirrors the repo's registry-package design — four small
modules forming a pipeline, each usable on its own:

- :mod:`repro.calibrate.doe` — a deterministic design of experiments:
  sort scenarios chosen so α, β, γ_compare and γ_byte are separately
  excited (pure function of a seed);
- :mod:`repro.calibrate.measure` — run the cells on a real backend
  (thread by default) for wall-clock observations, and on basis machines
  in the simulator for the exact cost-model coefficients;
- :mod:`repro.calibrate.fit` — non-negative least squares over the cost
  model's linear form, with identifiability checks that raise
  :class:`~repro.errors.CalibrationError` naming any constant the DoE
  cannot pin down;
- :mod:`repro.calibrate.emit` — package the fit as the
  ``local-calibrated`` :class:`~repro.machines.MachineSpec`, provenance
  block included, registered so ``resolve_machine("local-calibrated")``
  and ``repro sweep --machines local-calibrated`` just work.

``repro calibrate`` drives the whole pipeline; the
``calibration_quality`` bench suite gates the fitter against synthetic
measurements with known ground-truth constants.

Examples
--------
>>> from repro.calibrate import design_cells, extract_features
>>> from repro.calibrate import synthetic_measurements, fit_constants
>>> from repro.machines import get_machine
>>> cells = design_cells(seed=7, profile="tiny")
>>> features = extract_features(cells[:2])
>>> truth = get_machine("laptop")
>>> fit = fit_constants(features, synthetic_measurements(features, truth))
>>> round(fit.constants["gamma_compare"] / truth.gamma_compare, 6)
1.0
"""

from repro.calibrate.doe import (
    DOE_PROFILES,
    DoECell,
    design_cells,
    render_doe_table,
)
from repro.calibrate.emit import DEFAULT_SPEC_NAME, build_spec, emit_spec
from repro.calibrate.fit import (
    FitResult,
    constants_of,
    fit_constants,
    modeled_measurements,
    total_abs_error,
)
from repro.calibrate.measure import (
    CellFeatures,
    CellMeasurement,
    extract_features,
    measure_cells,
    synthetic_measurements,
)
from repro.calibrate.report import render_report

__all__ = [
    "DOE_PROFILES",
    "DoECell",
    "design_cells",
    "render_doe_table",
    "CellFeatures",
    "CellMeasurement",
    "extract_features",
    "measure_cells",
    "synthetic_measurements",
    "FitResult",
    "constants_of",
    "fit_constants",
    "modeled_measurements",
    "total_abs_error",
    "DEFAULT_SPEC_NAME",
    "build_spec",
    "emit_spec",
    "render_report",
]
