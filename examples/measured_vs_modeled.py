#!/usr/bin/env python
"""Measured vs modeled, with the loop closed by calibration.

The paper reports *measured* end-to-end times on real parallel hardware
alongside its analytic cost model.  This example tells the same
two-sided story — and then closes the gap with :mod:`repro.calibrate`:

1. sort one dataset with HSS on the lockstep simulator and again on the
   thread backend (real concurrency through GIL-releasing numpy), and
   check outputs and modeled metrics are bit-identical — the backend
   contract;
2. run the tiny calibration design of experiments on this host, fit the
   cost model's alpha/beta/gamma constants by non-negative least
   squares, and emit the ``local-calibrated`` machine;
3. print measured per-phase wall-clock next to the model priced two
   ways — the ``laptop`` preset and the fitted constants — so the
   calibration's improvement is visible phase by phase.

Run:  python examples/measured_vs_modeled.py [keys_per_rank]
"""

import sys

import numpy as np

import repro
from repro.algorithms import Dataset
from repro.calibrate import (
    build_spec,
    constants_of,
    design_cells,
    emit_spec,
    extract_features,
    fit_constants,
    measure_cells,
    render_report,
    total_abs_error,
)
from repro.machines import get_machine

P = 8                    # ranks (the thread backend maps them to cores)
KEYS_PER_PROC = 200_000  # bump this to see real-core speedups grow
EPS = 0.05


def backend_parity(n_per: int) -> None:
    """Step 1: the backend contract, demonstrated."""
    dataset = Dataset.from_workload("uniform", p=P, n_per=n_per, seed=2019)
    runs = {}
    for backend in ("simulated", "thread"):
        runs[backend] = repro.sort(
            dataset,
            algorithm="hss",
            machine="mira-like-bgq",
            eps=EPS,
            seed=1,
            backend=backend,
            verify=False,
        )
    sim, thr = runs["simulated"], runs["thread"]
    assert all(
        np.array_equal(a, b) for a, b in zip(sim.shards, thr.shards)
    ), "backends disagreed on the sorted output"
    assert sim.engine_result.stats == thr.engine_result.stats
    assert sim.makespan == thr.makespan

    print(
        f"sorted {P * n_per:,} keys on {P} ranks with both backends "
        f"(outputs and comm stats bit-identical)"
    )
    print(
        f"  simulated : wall {sim.measured.wall_s:8.3f} s   "
        f"(single process, lockstep)"
    )
    print(
        f"  thread    : wall {thr.measured.wall_s:8.3f} s   "
        f"({thr.measured.workers} worker threads; compute "
        f"{thr.measured.compute_s:.3f} s, collective wait "
        f"{thr.measured.comm_wait_s:.3f} s)"
    )
    print()


def calibrate_host() -> None:
    """Steps 2 and 3: fit this host's constants, report the gap closed."""
    cells = design_cells(seed=2019, profile="tiny")
    print(
        f"calibrating against {len(cells)} DoE cells on the thread "
        f"backend..."
    )
    measurements = measure_cells(cells, warmup=1, repeats=3, trim=0)
    features = extract_features(cells)
    fit = fit_constants(features, measurements)
    spec = emit_spec(build_spec(fit, doe_seed=2019, profile="tiny"))
    print()
    print(render_report(features, measurements, fit))
    print()

    preset_err = total_abs_error(
        measurements, features, constants_of(get_machine("laptop"))
    )
    fitted_err = total_abs_error(measurements, features, fit.constants)
    print(
        f"machine {spec.name!r} is registered: "
        f"repro.sort(..., machine={spec.name!r}) now prices this host "
        f"({preset_err / fitted_err:.1f}x closer than the laptop preset)."
    )


def main() -> None:
    n_per = int(sys.argv[1]) if len(sys.argv) > 1 else KEYS_PER_PROC
    backend_parity(n_per)
    calibrate_host()


if __name__ == "__main__":
    main()
