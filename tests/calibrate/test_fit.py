"""Fitter tests: exact recovery, graceful noise, named failure modes."""

import numpy as np
import pytest

from repro.calibrate import (
    CellFeatures,
    CellMeasurement,
    constants_of,
    design_cells,
    extract_features,
    fit_constants,
    modeled_measurements,
    synthetic_measurements,
    total_abs_error,
)
from repro.calibrate.doe import DoECell
from repro.errors import CalibrationError, ConfigError
from repro.machines import get_machine

CONSTANTS = ("alpha", "beta", "gamma_compare", "gamma_byte")


@pytest.fixture(scope="module")
def tiny_features():
    return extract_features(design_cells(seed=3, profile="tiny"))


class TestSyntheticRecovery:
    @pytest.mark.parametrize("truth", ["laptop", "cloud-ethernet"])
    def test_known_constants_recovered_within_tolerance(
        self, tiny_features, truth
    ):
        """The ISSUE acceptance bound is 1%; exact synthetic data is a
        consistent linear system, so assert far tighter."""
        spec = get_machine(truth)
        fit = fit_constants(
            tiny_features, synthetic_measurements(tiny_features, spec)
        )
        expected = constants_of(spec)
        for name in CONSTANTS:
            rel = abs(fit.constants[name] - expected[name]) / expected[name]
            assert rel < 1e-9, (name, fit.constants[name], expected[name])
        assert fit.r2["compute"] == pytest.approx(1.0)
        assert fit.r2["comm"] == pytest.approx(1.0)
        assert fit.cells == len(tiny_features)

    def test_recovery_is_deterministic(self, tiny_features):
        spec = get_machine("laptop")
        runs = [
            fit_constants(
                tiny_features, synthetic_measurements(tiny_features, spec)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_noisy_recovery_stays_close(self, tiny_features):
        spec = get_machine("laptop")
        fit = fit_constants(
            tiny_features,
            synthetic_measurements(
                tiny_features, spec, noise=0.05, seed=99
            ),
        )
        expected = constants_of(spec)
        for name in CONSTANTS:
            rel = abs(fit.constants[name] - expected[name]) / expected[name]
            assert rel < 0.2, name

    def test_fitted_constants_minimize_total_abs_error(self, tiny_features):
        """On its own DoE the fit beats any preset's constants."""
        spec = get_machine("laptop")
        synth = synthetic_measurements(tiny_features, spec)
        fit = fit_constants(tiny_features, synth)
        fitted_err = total_abs_error(synth, tiny_features, fit.constants)
        for preset in ("cloud-ethernet", "mira-like-bgq"):
            preset_err = total_abs_error(
                synth, tiny_features, constants_of(get_machine(preset))
            )
            assert fitted_err < preset_err

    def test_nonnegativity(self, tiny_features):
        """Negative targets cannot drive constants below zero."""
        spec = get_machine("laptop")
        synth = synthetic_measurements(tiny_features, spec)
        hostile = [
            CellMeasurement(
                cell=m.cell,
                phase_wall_s={k: -v for k, v in m.phase_wall_s.items()},
                comm_wait_s=-m.comm_wait_s,
                samples=m.samples,
            )
            for m in synth
        ]
        fit = fit_constants(tiny_features, hostile)
        assert all(v >= 0.0 for v in fit.constants.values())


def _cell(i: int) -> DoECell:
    return DoECell(
        name=f"fake{i}",
        algorithm="hss",
        workload="uniform",
        procs=4,
        keys_per_rank=100,
        eps=0.1,
        schema="",
        workload_seed=i,
        sort_seed=i,
    )


def _features(rows):
    """Hand-built features: rows of (cmp, bytes, collectives, net_bytes)."""
    return [
        CellFeatures(
            cell=_cell(i),
            compute={"sort": (cmp, nbytes)},
            collectives=coll,
            net_bytes=net,
        )
        for i, (cmp, nbytes, coll, net) in enumerate(rows)
    ]


class TestIllConditioned:
    def test_zero_column_names_the_constant(self):
        """No cell moves any local bytes -> gamma_byte is unidentifiable."""
        feats = _features([(100.0, 0.0, 3, 50), (500.0, 0.0, 4, 90)])
        synth = synthetic_measurements(feats, get_machine("laptop"))
        with pytest.raises(CalibrationError, match="gamma_byte") as info:
            fit_constants(feats, synth)
        assert info.value.constants == ("gamma_byte",)

    def test_rank_deficiency_names_the_entangled_constants(self):
        """Byte counts exactly proportional to comparison counts: the two
        gammas cannot be separated, and the error says which pair."""
        feats = _features(
            [(100.0, 200.0, 3, 50), (500.0, 1000.0, 7, 90),
             (900.0, 1800.0, 9, 130)]
        )
        synth = synthetic_measurements(feats, get_machine("laptop"))
        with pytest.raises(
            CalibrationError, match="gamma_compare, gamma_byte"
        ) as info:
            fit_constants(feats, synth)
        assert set(info.value.constants) == {"gamma_compare", "gamma_byte"}

    def test_comm_rank_deficiency_detected(self):
        """Net bytes proportional to collective count entangles alpha/beta."""
        feats = _features(
            [(100.0, 30.0, 2, 200), (500.0, 700.0, 4, 400),
             (900.0, 100.0, 8, 800)]
        )
        synth = synthetic_measurements(feats, get_machine("laptop"))
        with pytest.raises(CalibrationError, match="alpha, beta"):
            fit_constants(feats, synth)

    def test_calibration_error_is_config_error(self):
        assert issubclass(CalibrationError, ConfigError)


class TestInputValidation:
    def test_mismatched_cells_rejected(self, tiny_features):
        synth = synthetic_measurements(
            tiny_features, get_machine("laptop")
        )
        with pytest.raises(ConfigError, match="different cells"):
            fit_constants(tiny_features, synth[:-1])

    def test_zero_cells_rejected(self):
        with pytest.raises(ConfigError, match="zero cells"):
            fit_constants([], [])


class TestModeledMeasurements:
    def test_linear_form_matches_synthetic_generator(self, tiny_features):
        spec = get_machine("laptop")
        synth = synthetic_measurements(tiny_features, spec)
        modeled = modeled_measurements(tiny_features, constants_of(spec))
        for a, b in zip(synth, modeled):
            assert a.cell == b.cell
            assert a.comm_wait_s == pytest.approx(b.comm_wait_s)
            for phase in a.phase_wall_s:
                assert a.phase_wall_s[phase] == pytest.approx(
                    b.phase_wall_s[phase]
                )
        assert total_abs_error(
            synth, tiny_features, constants_of(spec)
        ) == pytest.approx(0.0, abs=1e-15)

    def test_features_price_record_cells_heavier(self, tiny_features):
        """Record-carrying cells move more local bytes than key-only twins
        at the same size — the property that identifies gamma_byte."""
        by_name = {f.cell.name: f for f in tiny_features}
        for feat in tiny_features:
            if not feat.cell.schema:
                continue
            twin_name = feat.cell.name.replace("/rec", "/key").replace(
                "c01", "c00"
            ).replace("c04", "c03")
            twin = by_name.get(twin_name)
            if twin is None:
                continue
            assert sum(b for _, b in feat.compute.values()) > sum(
                b for _, b in twin.compute.values()
            )
            assert feat.net_bytes > twin.net_bytes
            assert np.isclose(
                sum(c for c, _ in feat.compute.values()),
                sum(c for c, _ in twin.compute.values()),
                rtol=0.1,
            )


def test_total_abs_error_is_independent_of_hash_seed():
    """The phase sum runs in one order whatever ``PYTHONHASHSEED`` is, so
    two processes report the same float (CI compares them byte for byte).
    Seeds 0 and 3 summed the quick-tier phases in different orders when
    the loop walked a set."""
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    script = (
        "from repro.bench.runner import run_suite\n"
        "run = run_suite('calibration_quality', 'quick')\n"
        "print([repr(c.metrics['total_abs_error_s']) for c in run.cases])\n"
    )
    outputs = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
