"""Tests for the suite runner: determinism, parallelism, document assembly."""

import os

import pytest

from repro.bench.report import render_document, render_suite
from repro.bench.runner import (
    ParallelRunner,
    resolve_suites,
    run_suite,
    run_suites,
)
from repro.bench.registry import SUITES
from repro.bench.schema import strip_volatile, validate_document
from repro.errors import ConfigError

# A deliberately tiny shootout: two algorithms, one workload, 4 ranks.
TINY_SHOOTOUT = {
    "procs": 4,
    "keys_per_rank": 200,
    "workloads": ["uniform"],
    "algorithms": ["hss", "sample-regular"],
}


class TestDeterminism:
    def test_same_seed_identical_json_modulo_wall_clock(self):
        docs = [
            run_suites(
                ["shootout", "table_5_1"],
                tier="quick",
                overrides={"shootout": TINY_SHOOTOUT},
            )
            for _ in range(2)
        ]
        a, b = (strip_volatile(d.to_dict()) for d in docs)
        assert a == b
        # ... and the volatile fields are genuinely present/populated.
        assert docs[0].created_unix > 0
        assert docs[0].provenance["python"]

    def test_rendering_is_a_pure_function_of_cases(self):
        run1 = run_suite("shootout", "quick", overrides=TINY_SHOOTOUT)
        run2 = run_suite("shootout", "quick", overrides=TINY_SHOOTOUT)
        assert render_suite(run1) == render_suite(run2)
        assert "workload: uniform" in render_suite(run1)


class TestDocument:
    def test_document_is_schema_valid(self):
        doc = run_suites(
            ["shootout"], tier="quick", overrides={"shootout": TINY_SHOOTOUT}
        )
        assert validate_document(doc.to_dict()) == []
        assert doc.suite_names() == ["shootout"]
        assert doc.suite("shootout").tier == "quick"
        assert doc.algorithms() == {"hss", "sample-regular"}

    @pytest.mark.parametrize("overrides", [{"cores_per_node": 1}, {}])
    def test_recorded_machine_is_the_one_that_priced_the_cells(
        self, overrides
    ):
        from repro.bench.suites import _suite_cell

        params = {**SUITES["shootout"].params_for("quick", None),
                  "machine_overrides": overrides}
        cell = _suite_cell(params, algorithm="hss", workload="uniform")
        recorded = run_suite(
            "shootout", "quick",
            overrides={**TINY_SHOOTOUT, "machine_overrides": overrides},
        ).machine
        assert cell.resolved_machine().describe() == recorded

    def test_override_without_a_scenario_layout_is_rejected(self):
        with pytest.raises(ConfigError, match="no Scenario layout"):
            run_suite(
                "shootout", "quick",
                overrides={**TINY_SHOOTOUT,
                           "machine_overrides": {"cores_per_node": 4}},
            )

    def test_progress_callback_invoked(self):
        lines = []
        run_suites(["table_5_1"], tier="quick", progress=lines.append)
        assert any("table_5_1" in line for line in lines)

    def test_summary_render_mentions_every_suite(self):
        doc = run_suites(["table_5_1"], tier="quick")
        text = render_document(doc)
        assert "table_5_1" in text and "tier=quick" in text


class TestResolution:
    def test_default_is_all_suites(self):
        assert resolve_suites(None) == resolve_suites([]) != []

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="quicksort"):
            resolve_suites(["quicksort"])

    def test_subset_preserves_registry_order_and_dedupes(self):
        assert resolve_suites(["table_5_1", "fig_3_1", "table_5_1"]) == [
            "fig_3_1",
            "table_5_1",
        ]

    def test_stress_tier_narrows_default_selection(self):
        stress = resolve_suites(None, "stress")
        assert len(stress) >= 4
        assert set(stress) < set(resolve_suites(None))

    def test_stress_tier_rejects_explicit_non_stress_suite(self):
        with pytest.raises(ConfigError, match="do not define tier 'stress'"):
            resolve_suites(["table_5_1"], "stress")

    def test_quick_tier_keeps_full_selection(self):
        assert resolve_suites(None, "quick") == resolve_suites(None)


class TestGlobResolution:
    def test_glob_selects_matching_suites(self):
        assert resolve_suites(["fig_*"]) == [
            "fig_3_1",
            "fig_4_1",
            "fig_6_1",
            "fig_6_2",
        ]

    def test_glob_and_exact_names_combine(self):
        assert resolve_suites(["table_*", "shootout"]) == [
            "shootout",
            "table_5_1",
            "table_6_1",
        ]

    def test_question_mark_and_charset_patterns(self):
        assert resolve_suites(["table_?_1"]) == ["table_5_1", "table_6_1"]
        assert resolve_suites(["fig_[34]_1"]) == ["fig_3_1", "fig_4_1"]

    def test_pattern_matching_nothing_is_an_error(self):
        with pytest.raises(ConfigError, match="matches no registered"):
            resolve_suites(["nope_*"])

    def test_glob_narrows_to_tier_defining_matches(self):
        # 'ablation_*' matches five suites; only some define stress.
        stress = resolve_suites(["ablation_*"], "stress")
        assert stress
        assert all(s.startswith("ablation_") for s in stress)
        assert set(stress) < set(resolve_suites(["ablation_*"]))

    def test_glob_with_no_tier_matches_is_an_error(self):
        # fig_6_* matches fig_6_1/fig_6_2, neither of which defines stress.
        with pytest.raises(ConfigError, match="none define tier 'stress'"):
            resolve_suites(["fig_6_*"], "stress")

    def test_exact_name_still_rejected_when_tier_missing(self):
        # Globs narrow silently, but an explicit name stays a hard error.
        with pytest.raises(ConfigError, match="do not define tier 'stress'"):
            resolve_suites(["fig_*", "table_5_1"], "stress")


class TestParallelRunner:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigError, match="jobs"):
            ParallelRunner(0)

    def test_parallel_modeled_document_identical_to_serial(self):
        names = ["shootout", "table_5_1", "fig_3_1"]
        overrides = {"shootout": TINY_SHOOTOUT}
        serial = run_suites(names, tier="quick", overrides=overrides, jobs=1)
        parallel = run_suites(names, tier="quick", overrides=overrides, jobs=3)
        assert serial.modeled_dict() == parallel.modeled_dict()
        # Suites land in registry order regardless of completion order.
        assert parallel.suite_names() == serial.suite_names()

    def test_worker_provenance_recorded(self):
        serial = run_suites(["table_5_1"], tier="quick", jobs=1)
        run = serial.suite("table_5_1")
        assert run.worker["pid"] == os.getpid()
        assert run.worker["jobs"] == 1

        parallel = run_suites(
            ["table_5_1", "fig_3_1"], tier="quick", jobs=2
        )
        for suite_run in parallel.suites:
            assert suite_run.worker["jobs"] == 2
            assert suite_run.worker["pid"] != os.getpid()

    def test_worker_block_is_volatile(self):
        doc = run_suites(["table_5_1"], tier="quick", jobs=1)
        stripped = strip_volatile(doc.to_dict())
        assert "worker" not in stripped["suites"][0]
        assert "wall_s" not in stripped["suites"][0]

    def test_single_suite_with_many_jobs_runs_inline(self):
        doc = ParallelRunner(8).run(["table_5_1"], tier="quick")
        assert doc.suite("table_5_1").worker["pid"] == os.getpid()

    def test_progress_reports_worker_fanout(self):
        lines = []
        run_suites(
            ["table_5_1", "fig_3_1"],
            tier="quick",
            jobs=2,
            progress=lines.append,
        )
        assert any("2 worker processes" in line for line in lines)


class TestMachineProvenance:
    def test_suites_with_machines_record_the_resolved_block(self):
        doc = run_suites(
            ["shootout"], tier="quick", overrides={"shootout": TINY_SHOOTOUT}
        )
        run = doc.suite("shootout")
        # The shootout prices on a flattened Mira: the block records the
        # resolution *with* overrides applied, not the raw preset.
        assert run.machine == {
            "name": "mira-like-bgq",
            "topology": "torus",
            "cores_per_node": 1,
        }

    def test_machine_block_defaults_for_machineless_suites(self):
        doc = run_suites(["table_5_1"], tier="quick")
        assert doc.suite("table_5_1").machine == {}

    def test_machine_block_is_deterministic_not_volatile(self):
        doc = run_suites(
            ["shootout"], tier="quick", overrides={"shootout": TINY_SHOOTOUT}
        )
        stripped = strip_volatile(doc.to_dict())
        assert stripped["suites"][0]["machine"]["name"] == "mira-like-bgq"
