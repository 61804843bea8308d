"""Measurement layer: control validation, feature/wall alignment."""

import pytest

from repro.calibrate import (
    design_cells,
    extract_features,
    measure_cells,
)
from repro.errors import ConfigError

CELLS = design_cells(seed=3, profile="tiny")[:2]


class TestControlValidation:
    def test_repeats_must_be_positive(self):
        with pytest.raises(ConfigError, match="repeats"):
            measure_cells(CELLS, repeats=0)

    def test_warmup_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="warmup"):
            measure_cells(CELLS, warmup=-1)

    @pytest.mark.parametrize("repeats,trim", [(3, 2), (2, 1), (1, 1)])
    def test_trim_must_leave_samples(self, repeats, trim):
        with pytest.raises(ConfigError, match="trim"):
            measure_cells(CELLS, repeats=repeats, trim=trim)

    def test_backend_without_phase_walls_rejected(self, unmeasured_backend):
        """A plugin backend with no per-phase walls has nothing to fit."""
        with pytest.raises(ConfigError, match="measuring backend"):
            measure_cells(
                CELLS, backend=unmeasured_backend, repeats=1, warmup=0
            )

    def test_simulator_measures_phases(self):
        """The simulator runs the shared rank loop, so it is measurable."""
        (meas,) = measure_cells(
            CELLS[:1], backend="simulated", repeats=1, warmup=0
        )
        assert meas.phase_wall_s


class TestMeasureOnThreadBackend:
    @pytest.fixture(scope="class")
    def measurements(self):
        return measure_cells(CELLS, warmup=0, repeats=3, trim=1)

    def test_one_measurement_per_cell(self, measurements):
        assert [m.cell for m in measurements] == list(CELLS)
        assert all(m.samples == 3 for m in measurements)

    def test_phases_match_modeled_breakdown(self, measurements):
        """Measured phases line up with the features' modeled phases, so
        the fit's rows pair a real wall with real counts."""
        features = extract_features(CELLS)
        for feat, meas in zip(features, measurements):
            assert set(meas.phase_wall_s) >= set(feat.compute)

    def test_walls_are_finite_and_nonnegative(self, measurements):
        for meas in measurements:
            assert meas.comm_wait_s >= 0.0
            for phase, wall in meas.phase_wall_s.items():
                assert wall >= 0.0, phase
