"""Tests for the benchmark suite registry."""

import pytest

from repro.bench.registry import KNOWN_TIERS, SUITES, TIERS, suite_names
from repro.errors import ConfigError

EXPECTED_SUITES = {
    "shootout",
    "shootout_records",
    "fig_3_1",
    "fig_4_1",
    "fig_6_1",
    "fig_6_2",
    "table_5_1",
    "table_6_1",
    "ablation_approx",
    "ablation_duplicates",
    "ablation_node",
    "ablation_refinement",
    "ablation_rounds",
    "service_latency",
    "chaos_resilience",
    "calibration_quality",
}


class TestContents:
    def test_every_paper_artifact_registered(self):
        assert set(suite_names()) == EXPECTED_SUITES

    def test_each_suite_has_required_tiers(self):
        for name in suite_names():
            bench = SUITES.get(name)
            assert set(TIERS) <= set(bench.tiers), name
            assert set(bench.tiers) <= set(KNOWN_TIERS), name
            for tier in bench.tiers:
                assert bench.tiers[tier], f"{name}/{tier} has empty params"

    def test_tier_params_share_keys(self):
        # Every tier must be a re-parameterization of full, never a
        # different shape.
        for name in suite_names():
            bench = SUITES.get(name)
            for tier in bench.tiers:
                assert set(bench.tiers[tier]) == set(bench.tiers["full"]), (
                    f"{name}/{tier}"
                )

    def test_stress_tier_is_registered_at_scale(self):
        """≥4 suites opt into stress, each scaling the largest problem
        dimension beyond both quick (≥4x) and full."""

        def scale(params):
            # The dominant size knob per suite: total simulated keys.
            procs = params.get("procs") or max(
                params.get("ps", params.get("measured_ps", [1]))
            )
            keys = (
                params.get("keys_per_proc")
                or params.get("keys_per_rank")
                or params.get("keys_per_core")
                or 1
            )
            return procs * keys

        stress = suite_names("stress")
        assert len(stress) >= 4
        for name in stress:
            bench = SUITES.get(name)
            assert scale(bench.tiers["stress"]) >= 4 * scale(bench.tiers["quick"])
            assert scale(bench.tiers["stress"]) > scale(bench.tiers["full"])

    def test_descriptions_and_kinds(self):
        kinds = {
            "shootout",
            "figure",
            "table",
            "ablation",
            "service",
            "chaos",
            "calibration",
        }
        for name in suite_names():
            bench = SUITES.get(name)
            assert bench.description
            assert bench.kind in kinds
            assert bench.artifact  # text artifact stem

    def test_artifacts_unique(self):
        artifacts = [SUITES.get(n).artifact for n in suite_names()]
        assert len(artifacts) == len(set(artifacts))


class TestResolution:
    def test_unknown_suite_raises(self):
        with pytest.raises(ConfigError, match="unknown benchmark suite"):
            SUITES.get("quicksort")

    def test_unknown_tier_raises(self):
        with pytest.raises(ConfigError, match="no tier"):
            SUITES.get("table_5_1").params_for("huge")

    def test_unknown_override_raises(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            SUITES.get("table_5_1").params_for("quick", {"bogus": 1})

    def test_override_applies(self):
        params = SUITES.get("table_5_1").params_for("quick", {"procs": 1000})
        assert params["procs"] == 1000

    def test_runtime_param_absent_unless_overridden(self):
        # The backend knob must not leak into default params — committed
        # baselines are byte-identical to a registry that never heard of
        # runtime params.
        suite = SUITES.get("shootout")
        assert "backend" in suite.runtime_params
        assert "backend" not in suite.params_for("quick")

    def test_runtime_param_override_accepted(self):
        params = SUITES.get("shootout").params_for(
            "quick", {"backend": "process"}
        )
        assert params["backend"] == "process"

    def test_runtime_param_unknown_elsewhere(self):
        # Suites that never declared the knob still reject it.
        with pytest.raises(ConfigError, match="unknown parameter"):
            SUITES.get("table_5_1").params_for("quick", {"backend": "process"})
