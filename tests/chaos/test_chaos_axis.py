"""The chaos knob on the experiment axes: scenarios, sweeps, documents."""

import pytest

from repro.errors import ConfigError
from repro.experiments import ExperimentRunner, Scenario
from repro.experiments.runner import expand_grid


def _cell(**overrides) -> Scenario:
    defaults = dict(
        algorithm="hss", workload="uniform", procs=4, keys_per_rank=500
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenarioField:
    def test_default_is_fault_free(self):
        cell = _cell()
        assert cell.chaos == ""
        assert "chaos" not in cell.name

    def test_name_carries_the_plan(self):
        assert (
            _cell(chaos="stragglers").name
            == "uniform/hss@laptop/flat/p4/chaos[stragglers]"
        )

    def test_name_orders_chaos_before_backend(self):
        cell = _cell(chaos="stragglers", backend="process")
        assert cell.name.endswith("/chaos[stragglers]/process")

    def test_unknown_plan_rejected_eagerly(self):
        with pytest.raises(ConfigError, match="unknown fault plan"):
            _cell(chaos="storm")

    def test_variant_backend_spelling_validates(self):
        # A plan is never spelled as a backend: 'chaos:<inner>' is an
        # unknown backend name like any other, rejected at construction.
        for backend in ("chaos:process", "chaos:quantum", "chaos",
                        "quantum:process"):
            with pytest.raises(ConfigError) as info:
                _cell(backend=backend, chaos="stragglers")
            assert str(info.value) == (
                f"unknown backend '{backend}'; "
                f"choose from ['process', 'simulated', 'thread']"
            )

    def test_round_trips_through_dict(self):
        cell = _cell(chaos="mayhem")
        assert Scenario.from_dict(cell.to_dict()) == cell

    def test_chaos_metrics_join_the_cell_metrics(self):
        metrics = _cell(chaos="stragglers").run()["metrics"]
        assert metrics["chaos_slowdown"] > 1.0
        assert metrics["chaos_stragglers"] > 0
        assert metrics["chaos_retries"] == 0
        assert metrics["chaos_delay_s"] > 0.0

    def test_fault_free_cells_carry_no_chaos_metrics(self):
        metrics = _cell().run()["metrics"]
        assert not any(k.startswith("chaos") for k in metrics)

    def test_chaos_wraps_the_named_backend(self):
        # A plan on a 'process' cell runs on, and reports, 'process'.
        cell = _cell(chaos="stragglers", backend="process")
        run, outcome = cell.execute(workers=2)
        assert run.backend == "process"
        assert run.engine_result.measured.backend == "process"
        assert run.engine_result.measured.chaos["plan"] == "stragglers"
        assert outcome["metrics"]["chaos_slowdown"] > 1.0


class TestSweepAxis:
    def test_expand_grid_applies_plan_to_every_cell(self):
        cells = expand_grid(
            algorithms="hss", workloads=["uniform", "staircase"],
            chaos="stragglers",
        )
        assert all(c.chaos == "stragglers" for c in cells)

    def test_grid_records_chaos_only_when_set(self):
        runner = ExperimentRunner()
        plain = runner.sweep(
            algorithms="hss", workloads="uniform", procs=2,
            keys_per_rank=200,
        )
        assert "chaos" not in plain.grid
        chaotic = runner.sweep(
            algorithms="hss", workloads="uniform", procs=2,
            keys_per_rank=200, chaos="stragglers",
        )
        assert chaotic.grid["chaos"] == "stragglers"

    def test_injected_fault_records_cell_as_skipped(self):
        doc = ExperimentRunner().sweep(
            algorithms="hss", workloads="uniform", procs=4,
            keys_per_rank=200, chaos="kill-rank",
        )
        (cell,) = doc.cells
        assert cell.status == "skipped"
        assert cell.reason.startswith("injected fault:")
        assert "not SPMD" in cell.reason

    def test_fault_free_failures_still_raise(self):
        # Without a plan, a BSP error is a bug, not a result.
        from repro.errors import BSPError
        from repro.experiments.runner import _run_cell_task

        class Exploding(Scenario):
            def run(self):
                raise BSPError("boom")

        with pytest.raises(BSPError, match="boom"):
            _run_cell_task(
                Exploding(algorithm="hss", workload="uniform")
            )

    def test_parallel_jobs_reproduce_inline_document(self):
        kwargs = dict(
            algorithms="hss", workloads=["uniform", "lognormal"],
            procs=4, keys_per_rank=300, chaos="stragglers",
        )
        inline = ExperimentRunner(1).sweep(**kwargs)
        fanned = ExperimentRunner(2).sweep(**kwargs)
        assert [c.metrics for c in inline.cells] == [
            c.metrics for c in fanned.cells
        ]
