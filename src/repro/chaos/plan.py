"""Deterministic, seeded fault plans for the chaos backend.

A :class:`FaultPlan` is a frozen description of *which* faults to inject
and *where*: per-rank straggler delays, rank kills at a chosen (or
probabilistic) superstep, and dropped-then-retried collectives.  Every
decision is a pure function of ``(plan.seed, rank, step)`` through
:func:`numpy.random.default_rng` SeedSequence tuples, so the same plan
produces byte-identical fault schedules on any backend, platform, or
process count — chaos runs are as reproducible as fault-free ones.

Drop decisions deliberately depend only on the *step*, never the rank:
a dropped collective is retried by **all** participants, so the BSP
rendezvous stays matched and the retry shows up as extra priced traffic
rather than a mismatch.

Plans are registered by name in :data:`FAULT_PLANS` (the same
pattern as the workload/machine/backend registries) and listed by
``repro chaos``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ConfigError
from repro.utils.registry import Registry

__all__ = [
    "FaultPlan",
    "FAULT_PLANS",
    "register_fault_plan",
    "make_fault_plan",
    "resolve_fault_plan",
]

# Salt constants keep the straggler/kill/drop decision streams
# independent even though they share one plan seed.
_STRAGGLER_SALT = 1
_KILL_SALT = 2
_DROP_SALT = 3


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault-injection schedule.

    ``kill_rank = -1`` means "no deterministic kill"; ``kill_prob``
    independently kills any (rank, step) with that probability.  A plan
    with every knob at its zero default injects nothing, and the chaos
    backend passes such runs through to the inner backend untouched.
    """

    name: str = "custom"
    description: str = ""
    seed: int = 0
    straggler_prob: float = 0.0
    straggler_delay_s: float = 0.0
    kill_rank: int = -1
    kill_superstep: int = 0
    kill_prob: float = 0.0
    drop_prob: float = 0.0
    max_retries: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("fault plan name must be non-empty")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for knob in ("straggler_prob", "kill_prob", "drop_prob"):
            value = getattr(self, knob)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"{knob} must be in [0, 1], got {value}"
                )
        if self.straggler_delay_s < 0.0:
            raise ConfigError(
                f"straggler_delay_s must be >= 0, got "
                f"{self.straggler_delay_s}"
            )
        if self.kill_rank < -1:
            raise ConfigError(
                f"kill_rank must be -1 (disabled) or >= 0, got "
                f"{self.kill_rank}"
            )
        if self.kill_superstep < 0:
            raise ConfigError(
                f"kill_superstep must be >= 0, got {self.kill_superstep}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def summary_lines(self) -> list[str]:
        """This plan's rows in the ``repro chaos`` listing."""
        default = "(default)" if self.name == "none" else ""
        return [
            f"{self.name:20s} {default:10s} {self.description}",
            f"{'':20s} straggler_prob={self.straggler_prob:g} "
            f"delay={self.straggler_delay_s:g}s "
            f"drop_prob={self.drop_prob:g} kill_rank={self.kill_rank}",
        ]

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def is_zero(self) -> bool:
        """True when the plan injects no faults at all."""
        return (
            (self.straggler_prob == 0.0 or self.straggler_delay_s == 0.0)
            and self.kill_rank == -1
            and self.kill_prob == 0.0
            and self.drop_prob == 0.0
        )

    @property
    def perturbs_time(self) -> bool:
        """True when the plan can change modeled time without killing."""
        return (
            self.straggler_prob > 0.0 and self.straggler_delay_s > 0.0
        ) or self.drop_prob > 0.0

    # ------------------------------------------------------------------ #
    # Seeded decisions — pure functions of (seed, rank, step)
    # ------------------------------------------------------------------ #
    def _uniform(self, *key: int) -> float:
        return float(np.random.default_rng((self.seed,) + key).random())

    def delay_s(self, rank: int, step: int) -> float:
        """Straggler delay (seconds) charged to ``rank`` at ``step``."""
        if self.straggler_prob <= 0.0 or self.straggler_delay_s <= 0.0:
            return 0.0
        hit = self._uniform(_STRAGGLER_SALT, rank, step)
        return self.straggler_delay_s if hit < self.straggler_prob else 0.0

    def kills(self, rank: int, step: int) -> bool:
        """True when ``rank`` dies before issuing its ``step`` collective."""
        if rank == self.kill_rank and step == self.kill_superstep:
            return True
        if self.kill_prob > 0.0:
            return self._uniform(_KILL_SALT, rank, step) < self.kill_prob
        return False

    def drop_retries(self, step: int) -> int:
        """How many extra times the ``step`` collective is retransmitted.

        Rank-independent by construction (see module docstring), and
        bounded by ``max_retries`` so a high drop probability cannot
        stall a run forever.
        """
        if self.drop_prob <= 0.0:
            return 0
        retries = 0
        while (
            retries < self.max_retries
            and self._uniform(_DROP_SALT, step, retries) < self.drop_prob
        ):
            retries += 1
        return retries


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
FAULT_PLANS: Registry[FaultPlan] = Registry("fault plan")


def register_fault_plan(plan: FaultPlan) -> FaultPlan:
    """Register ``plan`` under ``plan.name``."""
    if not plan.description:
        raise ConfigError(
            f"fault plan {plan.name!r} must carry a description"
        )
    return FAULT_PLANS.register(plan.name, plan)


def make_fault_plan(name: str, **overrides) -> FaultPlan:
    """A copy of the registered plan ``name`` with knobs overridden.

    Unknown keys raise :class:`ConfigError` naming the valid parameters
    (the PR 3 typed-config convention); value errors (negative delays,
    probabilities outside [0, 1]) surface from ``FaultPlan`` validation.
    """
    plan = FAULT_PLANS.get(name)
    valid = sorted(
        f.name for f in fields(FaultPlan)
        if f.name not in ("name", "description")
    )
    unknown = sorted(set(overrides) - set(valid))
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {unknown} for fault plan {name!r}; "
            f"valid parameters: {valid}"
        )
    return dataclasses.replace(plan, **overrides)


def resolve_fault_plan(plan: FaultPlan | str | None) -> FaultPlan:
    """Normalize ``None`` → the zero plan, names → registry lookups."""
    if plan is None:
        return FAULT_PLANS["none"]
    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, str):
        return FAULT_PLANS.get(plan)
    raise ConfigError(
        f"fault plan must be a FaultPlan, a registered name, or None; "
        f"got {type(plan).__name__}"
    )


# ---------------------------------------------------------------------- #
# Built-in plans
# ---------------------------------------------------------------------- #
register_fault_plan(FaultPlan(
    name="none",
    description="zero faults — the chaos backend passes runs through "
                "bit-identical to the inner backend",
))

register_fault_plan(FaultPlan(
    name="stragglers",
    description="each rank independently stalls for 0.5 ms before 12.5% "
                "of its collectives (slow-node drill)",
    straggler_prob=0.125,
    straggler_delay_s=5e-4,
))

register_fault_plan(FaultPlan(
    name="dropped-collectives",
    description="15% of collectives are dropped and retransmitted by all "
                "participants (bounded HARQ-style retry drill)",
    drop_prob=0.15,
    max_retries=3,
))

register_fault_plan(FaultPlan(
    name="kill-rank",
    description="deterministically kill rank 1 before its superstep-2 "
                "collective (deadlock-detection drill)",
    kill_rank=1,
    kill_superstep=2,
))

register_fault_plan(FaultPlan(
    name="mayhem",
    description="stragglers and dropped collectives together (no kills): "
                "the worst survivable weather",
    straggler_prob=0.2,
    straggler_delay_s=1e-3,
    drop_prob=0.2,
    max_retries=2,
))
