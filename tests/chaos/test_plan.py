"""Fault-plan validation, registry behaviour and decision determinism."""

import pytest

from repro.chaos import (
    FAULT_PLANS,
    FaultPlan,
    make_fault_plan,
    register_fault_plan,
    resolve_fault_plan,
)
from repro.errors import ConfigError


class TestValidation:
    def test_negative_straggler_delay_rejected(self):
        with pytest.raises(ConfigError, match="straggler_delay_s"):
            FaultPlan(straggler_delay_s=-1e-3)

    @pytest.mark.parametrize("prob", [-0.1, 1.5])
    @pytest.mark.parametrize(
        "field", ["straggler_prob", "kill_prob", "drop_prob"]
    )
    def test_probabilities_outside_unit_interval_rejected(self, field, prob):
        with pytest.raises(ConfigError, match=rf"{field}.*\[0, 1\]"):
            FaultPlan(**{field: prob})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            FaultPlan(seed=-1)

    def test_kill_rank_below_minus_one_rejected(self):
        with pytest.raises(ConfigError, match="kill_rank"):
            FaultPlan(kill_rank=-2)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ConfigError, match="max_retries"):
            FaultPlan(max_retries=-1)


class TestRegistry:
    def test_builtins_registered(self):
        assert FAULT_PLANS.names() == [
            "dropped-collectives", "kill-rank", "mayhem", "none",
            "stragglers",
        ]

    def test_every_builtin_has_description(self):
        for name, plan in FAULT_PLANS.items():
            assert plan.description, name
            assert plan.name == name

    def test_unknown_plan_lists_choices(self):
        with pytest.raises(ConfigError, match="unknown fault plan 'storm'"):
            FAULT_PLANS.get("storm")

    def test_make_rejects_unknown_parameters_naming_valid_keys(self):
        # The PR 3 config-validation convention: the error names both the
        # offending keys and the full valid set.
        with pytest.raises(
            ConfigError, match=r"unknown parameter\(s\) \['bogus'\]"
        ) as info:
            make_fault_plan("stragglers", bogus=1)
        assert "valid parameters:" in str(info.value)
        assert "straggler_prob" in str(info.value)

    def test_make_applies_overrides(self):
        plan = make_fault_plan("stragglers", straggler_prob=0.5)
        assert plan.straggler_prob == 0.5
        # The base registry entry is untouched (plans are frozen).
        assert FAULT_PLANS["stragglers"].straggler_prob != 0.5

    def test_make_revalidates_overrides(self):
        with pytest.raises(ConfigError, match="straggler_prob"):
            make_fault_plan("stragglers", straggler_prob=2.0)

    def test_duplicate_registration_rejected(self):
        # Re-registering the identical plan is a no-op; a different plan
        # under a taken name is rejected.
        assert register_fault_plan(FAULT_PLANS["none"]) is FAULT_PLANS["none"]
        with pytest.raises(ConfigError, match="already registered"):
            register_fault_plan(
                FaultPlan(name="none", description="not the zero plan",
                          drop_prob=0.5)
            )

    def test_resolve_accepts_none_name_and_plan(self):
        assert resolve_fault_plan(None) is FAULT_PLANS["none"]
        assert resolve_fault_plan("mayhem") is FAULT_PLANS["mayhem"]
        plan = FaultPlan(straggler_prob=0.5, straggler_delay_s=1e-3)
        assert resolve_fault_plan(plan) is plan


class TestDecisions:
    def test_zero_plan_properties(self):
        none = FAULT_PLANS["none"]
        assert none.is_zero
        assert not none.perturbs_time
        assert not FAULT_PLANS["stragglers"].is_zero
        assert FAULT_PLANS["stragglers"].perturbs_time
        # Drops perturb modeled time too: retries are re-priced traffic.
        assert FAULT_PLANS["dropped-collectives"].perturbs_time
        # A deterministic kill alone never changes modeled time — the run
        # errors out instead, so no fault-free baseline twin is needed.
        assert not FAULT_PLANS["kill-rank"].perturbs_time

    def test_decisions_are_pure_functions_of_the_key(self):
        plan = FAULT_PLANS["mayhem"]
        for rank in range(4):
            for step in range(6):
                assert plan.delay_s(rank, step) == plan.delay_s(rank, step)
                assert plan.kills(rank, step) == plan.kills(rank, step)
        for step in range(6):
            assert plan.drop_retries(step) == plan.drop_retries(step)

    def test_seed_changes_decisions(self):
        a = make_fault_plan("stragglers", seed=0)
        b = make_fault_plan("stragglers", seed=1)
        delays_a = [a.delay_s(r, s) for r in range(8) for s in range(8)]
        delays_b = [b.delay_s(r, s) for r in range(8) for s in range(8)]
        assert delays_a != delays_b

    def test_deterministic_kill(self):
        plan = FAULT_PLANS["kill-rank"]
        assert plan.kills(1, 2)
        assert not plan.kills(1, 1)
        assert not plan.kills(0, 2)

    def test_drop_retries_bounded_by_max(self):
        plan = make_fault_plan("dropped-collectives", drop_prob=1.0)
        for step in range(10):
            assert plan.drop_retries(step) == plan.max_retries
