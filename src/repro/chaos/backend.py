"""Fault injection: a seeded fault plan applied over any backend.

``ChaosBackend`` wraps one built backend (simulated, thread or process)
and is not itself registered: a run that names a plan
(``Scenario(chaos=...)``, ``--chaos PLAN``, a job's ``scenario.chaos``)
is wrapped by :meth:`~repro.experiments.Scenario.execute`.  A
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
in ``Measured.chaos`` on the :class:`~repro.bsp.engine.RunResult`; the
run reports the inner backend's name, so ``SortRun.backend`` and
``Measured.backend`` name the transport the plan ran on.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Sequence

from repro.bsp.engine import _NOT_A_GENERATOR, BSPError, RunResult, _Call
from repro.bsp.node import NodeLayout
from repro.chaos.plan import FaultPlan, resolve_fault_plan
from repro.errors import CollectiveMismatchError, DeadlockError
from repro.runtime.base import Backend

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machines import MachineSpec

__all__ = ["ChaosBackend"]


class _ChaosProgram:
    """Picklable program wrapper that injects one plan's faults.

    A module-level class (not a closure) so the process backend can ship
    it to spawned workers.  ``__call__`` is a generator function: it
    drives the inner program's generator, consulting the plan before
    each collective, and returns ``(value, counters)`` so the backend can
    separate fault accounting from program output.

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
                return (stop.value, counters)
            if not isinstance(request, _Call):
                # Let the engine produce its usual diagnostic.
                yield request
                continue
            if plan.kills(ctx.rank, step):
                counters["killed"] = 1
                gen.close()
                return (None, counters)
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


class ChaosBackend(Backend):
    """Fault-injecting wrapper around an inner execution backend.

    Takes the inner backend's name and worker count, so a chaos run is
    reported as a run on its transport.
    """

    def __init__(self, inner: Backend, plan: FaultPlan | str) -> None:
        super().__init__(inner.workers)
        self.inner = inner
        self.name = inner.name
        self.plan = resolve_fault_plan(plan)

    # ------------------------------------------------------------------ #
    def run(
        self,
        program,
        rank_args: Sequence[tuple],
        *,
        machine: MachineSpec | None = None,
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
        """Strip the counters off every rank return; aggregate them."""
        totals = {
            "stragglers": 0,
            "delay_s": 0.0,
            "retries": 0,
            "kills": 0,
        }
        unwrapped: list[Any] = []
        for value, counters in result.returns:
            totals["stragglers"] += counters["stragglers"]
            totals["delay_s"] += counters["delay_s"]
            totals["retries"] = max(totals["retries"], counters["retries"])
            totals["kills"] += counters["killed"]
            unwrapped.append(value)
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
