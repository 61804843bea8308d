"""Tests for Scenario: validation, naming, resolution, execution."""

import pytest

from repro.errors import ConfigError
from repro.experiments import Scenario


class TestValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            Scenario(algorithm="quantum-sort", workload="uniform")

    def test_unknown_workload(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            Scenario(algorithm="hss", workload="gaussian-blur")

    def test_unknown_machine(self):
        with pytest.raises(ConfigError, match="unknown machine"):
            Scenario(algorithm="hss", workload="uniform", machine="cray-1")

    def test_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            Scenario(algorithm="hss", workload="uniform", backend="quantum")

    def test_backend_default_keeps_historical_name(self):
        cell = Scenario(algorithm="hss", workload="uniform", procs=4)
        assert cell.name == "uniform/hss@laptop/flat/p4"
        assert cell.backend == "simulated"

    def test_non_default_backend_lands_in_name_and_dict(self):
        cell = Scenario(
            algorithm="hss", workload="uniform", procs=4, backend="process"
        )
        assert cell.name == "uniform/hss@laptop/flat/p4/process"
        assert Scenario.from_dict(cell.to_dict()) == cell

    def test_old_documents_without_backend_still_load(self):
        data = Scenario(algorithm="hss", workload="uniform").to_dict()
        del data["backend"]
        assert Scenario.from_dict(data).backend == "simulated"

    def test_unknown_layout(self):
        with pytest.raises(ConfigError, match="layout"):
            Scenario(algorithm="hss", workload="uniform", layout="spiral")

    def test_bad_sizes(self):
        with pytest.raises(ConfigError, match="procs"):
            Scenario(algorithm="hss", workload="uniform", procs=0)
        with pytest.raises(ConfigError, match="keys_per_rank"):
            Scenario(algorithm="hss", workload="uniform", keys_per_rank=0)


class TestNaming:
    def test_name_encodes_all_axes(self):
        cell = Scenario(
            algorithm="radix", workload="staircase",
            machine="cloud-ethernet", procs=16, layout="node",
        )
        assert cell.name == "staircase/radix@cloud-ethernet/node/p16"

    def test_round_trip(self):
        cell = Scenario(
            algorithm="hss", workload="hotspot", machine="dragonfly-hpc",
            procs=4, keys_per_rank=100, eps=0.1, seed=3, layout="node",
        )
        assert Scenario.from_dict(cell.to_dict()) == cell

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="gpu"):
            Scenario.from_dict(
                {"algorithm": "hss", "workload": "uniform", "gpu": True}
            )

    def test_replace_revalidates(self):
        cell = Scenario(algorithm="hss", workload="uniform")
        assert cell.replace(procs=4).procs == 4
        with pytest.raises(ConfigError):
            cell.replace(machine="not-a-machine")


class TestLayouts:
    def test_flat_forces_single_core_endpoints(self):
        cell = Scenario(
            algorithm="hss", workload="uniform",
            machine="mira-like-bgq", layout="flat",
        )
        assert cell.resolved_machine().cores_per_node == 1

    def test_node_keeps_multicore_structure(self):
        cell = Scenario(
            algorithm="hss", workload="uniform",
            machine="mira-like-bgq", layout="node",
        )
        assert cell.resolved_machine().cores_per_node == 16


class TestRun:
    def test_metrics_and_machine_block(self):
        cell = Scenario(
            algorithm="hss", workload="uniform", machine="laptop",
            procs=4, keys_per_rank=300, eps=0.1, seed=1,
        )
        out = cell.run()
        assert out["scenario"] == cell.to_dict()
        assert out["machine"] == {
            "name": "laptop", "topology": "fully-connected",
            "cores_per_node": 1,
        }
        m = out["metrics"]
        assert m["net_bytes"] > 0 and m["net_messages"] > 0
        assert m["makespan_s"] > 0 and m["imbalance"] >= 1.0
        assert m["rounds"] >= 1 and m["total_sample"] > 0

    def test_non_histogramming_algorithms_omit_round_metrics(self):
        cell = Scenario(
            algorithm="bitonic", workload="uniform", procs=4,
            keys_per_rank=128,
        )
        assert "rounds" not in cell.run()["metrics"]

    def test_deterministic_across_runs(self):
        cell = Scenario(
            algorithm="sample-regular", workload="staircase",
            procs=4, keys_per_rank=200, eps=0.2, seed=7,
        )
        assert cell.run() == cell.run()


class TestExecuteOptions:
    @pytest.mark.parametrize(
        "backend, chaos",
        [("thread", ""), ("thread", "stragglers")],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_reach_the_thread_backend(self, backend, chaos, workers):
        cell = Scenario(
            algorithm="hss", workload="uniform", procs=4, keys_per_rank=200,
            backend=backend, chaos=chaos,
        )
        run, _ = cell.execute(workers=workers)
        assert run.measured.backend == backend
        assert run.measured.workers == workers

    def test_knobs_reach_the_algorithm_config(self):
        cell = Scenario(
            algorithm="radix", workload="uniform", procs=4, keys_per_rank=100,
        )
        with pytest.raises(ConfigError, match="unknown config key"):
            cell.execute(knobs={"tag_duplicates": True})

    def test_eps_and_seed_are_ignored_without_that_knob(self):
        """Every cell carries eps/seed; bitonic has neither knob."""
        cell = Scenario(
            algorithm="bitonic", workload="uniform", procs=4,
            keys_per_rank=100, eps=0.3, seed=4,
        )
        run, result = cell.execute()
        assert run.algorithm == "bitonic"
        assert result["scenario"]["eps"] == 0.3

    def test_unknown_knob_is_rejected(self):
        cell = Scenario(
            algorithm="bitonic", workload="uniform", procs=4,
            keys_per_rank=100, eps=0.3,
        )
        with pytest.raises(ConfigError, match="unknown config key"):
            cell.execute(knobs={"wrong": 1})

    def test_knobs_override_the_cell_axes(self):
        loose = Scenario(
            algorithm="hss", workload="uniform", procs=4, keys_per_rank=200,
            eps=0.3,
        )
        tight = loose.replace(eps=0.05)
        overridden = loose.execute(knobs={"eps": 0.05})[1]["metrics"]
        assert overridden == tight.run()["metrics"]
        assert overridden != loose.run()["metrics"]
