"""The chaos execution backend: seeded fault injection over any backend.

``ChaosBackend`` registers on the runtime axis as ``chaos`` and is
usually spelled as a variant of the backend it wraps —
``--backend chaos:process`` wraps :class:`~repro.runtime.ProcessBackend`,
``chaos:simulated`` (or bare ``chaos``) wraps the simulator.  A
:class:`~repro.chaos.plan.FaultPlan` decides, deterministically from
``(seed, rank, step)``, where to inject:

* **stragglers** — extra seconds charged to a rank's modeled clock via
  ``ctx.charge_seconds`` before a collective, inflating the makespan the
  way a slow node would;
* **kills** — a rank's program returns early, so the surviving ranks'
  next global collective trips the shared resolver's
  :class:`~repro.errors.DeadlockError` (the detection machinery is
  exercised as a feature, not an accident);
* **dropped collectives** — a collective is re-yielded (retransmitted)
  by *all* participants a bounded number of extra times, so retries show
  up as priced bytes/messages without ever breaking the rendezvous.

A zero-fault plan is a literal passthrough: ``run`` delegates to the
inner backend with the unwrapped program, so results are bit-identical
to not using chaos at all.  With a non-zero plan, fault metrics
(slowdown vs the fault-free twin, retries, injected delay, kills) land
in ``Measured.chaos`` on the :class:`~repro.bsp.engine.RunResult`.

Import-order note: :mod:`repro.runtime` imports this module at the end
of its ``__init__`` to register the backend, and this module imports
``repro.runtime.base`` — the cycle is benign because only module
objects, never partially-initialized attributes, cross the boundary.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

from repro.bsp.engine import _NOT_A_GENERATOR, BSPError, RunResult, _Call
from repro.bsp.machine import MachineModel
from repro.bsp.node import NodeLayout
from repro.chaos.plan import FaultPlan, resolve_fault_plan
from repro.errors import (
    CollectiveMismatchError,
    ConfigError,
    DeadlockError,
)
from repro.runtime.base import Backend, get_backend, register_backend

__all__ = ["ChaosBackend"]

#: Marker wrapping every rank's return value so the backend can tell its
#: own instrumentation apart from whatever the program returns.
_CHAOS_TAG = "__repro_chaos__"

class _ChaosProgram:
    """Picklable program wrapper that injects one plan's faults.

    A module-level class (not a closure) so the process backend can ship
    it to spawned workers.  ``__call__`` is a generator function: it
    drives the inner program's generator, consulting the plan before
    each collective, and returns ``(_CHAOS_TAG, value, counters)`` so
    the backend can separate fault accounting from program output.

    The fault *step* index counts the inner program's collectives (not
    resolver sweeps): retransmissions of step ``k`` do not shift the
    plan's decisions for step ``k + 1``.
    """

    def __init__(self, inner: Any, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def __call__(self, ctx, *args: Any, **kwargs: Any):
        plan = self.plan
        counters = {
            "stragglers": 0,
            "delay_s": 0.0,
            "retries": 0,
            "killed": 0,
        }
        gen = self.inner(ctx, *args, **kwargs)
        if not hasattr(gen, "send"):
            raise BSPError(_NOT_A_GENERATOR)

        step = 0
        reply: Any = None
        while True:
            try:
                request = gen.send(reply)
            except StopIteration as stop:
                return (_CHAOS_TAG, stop.value, counters)
            if not isinstance(request, _Call):
                # Let the engine produce its usual diagnostic.
                yield request
                continue
            if plan.kills(ctx.rank, step):
                counters["killed"] = 1
                gen.close()
                return (_CHAOS_TAG, None, counters)
            delay = plan.delay_s(ctx.rank, step)
            if delay > 0.0:
                counters["stragglers"] += 1
                counters["delay_s"] += delay
                ctx.charge_seconds(delay)
            reply = yield request
            for _ in range(plan.drop_retries(step)):
                # The drop decision is rank-independent, so every
                # participant retransmits in lockstep and the rendezvous
                # stays matched; each retry is priced like the original.
                counters["retries"] += 1
                reply = yield request
            step += 1


@register_backend
class ChaosBackend(Backend):
    """Fault-injecting wrapper around any inner execution backend."""

    name = "chaos"
    description = (
        "wraps an inner backend ('chaos:process') with a seeded fault "
        "plan: stragglers, rank kills, dropped-then-retried collectives"
    )

    def __init__(
        self,
        workers: int | None = None,
        inner: str | Backend = "simulated",
        plan: FaultPlan | str | None = None,
    ) -> None:
        super().__init__(workers)
        if isinstance(inner, str):
            if inner.partition(":")[0] == "chaos":
                raise ConfigError(
                    "chaos backend cannot wrap itself; pick a non-chaos "
                    "inner backend"
                )
            inner = get_backend(
                inner, **({} if workers is None else {"workers": workers})
            )
        if not isinstance(inner, Backend):
            raise ConfigError(
                f"inner backend must be a registered name or a Backend "
                f"instance, got {type(inner).__name__}"
            )
        if isinstance(inner, ChaosBackend):
            raise ConfigError(
                "chaos backend cannot wrap itself; pick a non-chaos "
                "inner backend"
            )
        self.inner = inner
        self.plan = resolve_fault_plan(plan)

    @classmethod
    def with_variant(
        cls, variant: str, options: dict[str, Any]
    ) -> dict[str, Any]:
        if "inner" in options:
            raise ConfigError(
                "pass the inner backend either as 'chaos:<inner>' or as "
                "inner=..., not both"
            )
        options["inner"] = variant
        return options

    # ------------------------------------------------------------------ #
    def run(
        self,
        program,
        rank_args: Sequence[tuple],
        *,
        machine: MachineModel | None = None,
        node_layout: NodeLayout | None = None,
        **shared_kwargs: Any,
    ) -> RunResult:
        plan = self.plan
        if plan.is_zero:
            # Bit-identical passthrough, including error paths.
            return self.inner.run(
                program,
                rank_args,
                machine=machine,
                node_layout=node_layout,
                **shared_kwargs,
            )

        wrapped = _ChaosProgram(program, plan)
        try:
            result = self.inner.run(
                wrapped,
                rank_args,
                machine=machine,
                node_layout=node_layout,
                **shared_kwargs,
            )
        except (DeadlockError, CollectiveMismatchError) as exc:
            self._annotate_fault(exc, plan)
            raise

        counters = self._unwrap_returns(result)
        fault_free = result.makespan
        if plan.perturbs_time:
            # The modeled makespan is backend-independent, so the
            # fault-free twin is always priced on the (cheap) simulator.
            from repro.runtime.simulated import SimulatedBackend

            baseline = SimulatedBackend().run(
                program,
                rank_args,
                machine=machine,
                node_layout=node_layout,
                **shared_kwargs,
            )
            fault_free = baseline.makespan

        result.measured = dataclasses.replace(
            result.measured,
            backend=f"chaos:{self.inner.name}",
            chaos=self._metrics(plan, counters, result, fault_free),
        )
        return result

    def emit_spans(self, result: RunResult, sink: Any) -> None:
        """The inner backend's projection, then this plan's injections."""
        from repro.telemetry.adapters import chaos_plan_to_events

        self.inner.emit_spans(result, sink)
        chaos_plan_to_events(
            sink, self.plan, result.trace, len(result.returns)
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _unwrap_returns(result: RunResult) -> dict[str, float]:
        """Strip the chaos tag off every rank return; aggregate counters."""
        totals = {
            "stragglers": 0,
            "delay_s": 0.0,
            "retries": 0,
            "kills": 0,
        }
        unwrapped: list[Any] = []
        for tagged in result.returns:
            if (
                isinstance(tagged, tuple)
                and len(tagged) == 3
                and tagged[0] == _CHAOS_TAG
            ):
                _, value, counters = tagged
                totals["stragglers"] += counters["stragglers"]
                totals["delay_s"] += counters["delay_s"]
                totals["retries"] = max(
                    totals["retries"], counters["retries"]
                )
                totals["kills"] += counters["killed"]
                unwrapped.append(value)
            else:  # pragma: no cover - defensive; wrapper always tags
                unwrapped.append(tagged)
        result.returns[:] = unwrapped
        return totals

    @staticmethod
    def _metrics(
        plan: FaultPlan,
        counters: dict[str, float],
        result: RunResult,
        fault_free_makespan_s: float,
    ) -> dict[str, Any]:
        slowdown = (
            result.makespan / fault_free_makespan_s
            if fault_free_makespan_s > 0.0
            else 1.0
        )
        return {
            "plan": plan.name,
            "seed": plan.seed,
            "stragglers": int(counters["stragglers"]),
            "delay_injected_s": float(counters["delay_s"]),
            "retries": int(counters["retries"]),
            "kills": int(counters["kills"]),
            "fault_free_makespan_s": float(fault_free_makespan_s),
            "slowdown": float(slowdown),
        }

    @staticmethod
    def _annotate_fault(exc: BSPError, plan: FaultPlan) -> None:
        """Attach the plan's provenance to a fault the plan provoked."""
        info: dict[str, Any] = {"plan": plan.name, "seed": plan.seed}
        superstep = getattr(exc, "superstep", None)
        if superstep is not None:
            info["detected_superstep"] = superstep
            if isinstance(exc, DeadlockError) and plan.kill_rank >= 0:
                info["kill_superstep"] = plan.kill_superstep
                info["supersteps_to_detection"] = max(
                    0, superstep - plan.kill_superstep
                )
        exc.chaos = info

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ChaosBackend(inner={self.inner!r}, plan={self.plan.name!r})"
        )
