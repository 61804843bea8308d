"""Projections from finished runs into the telemetry plane.

Spans are a view of a :class:`~repro.bsp.engine.RunResult`, not a
parameter of the run: the engine and the backends record nothing for
telemetry beyond the result they always return (the modeled
:class:`~repro.bsp.trace.Trace` and each rank's measured segments), and
:func:`run_to_spans` projects that result into a sink after the run
returns.  A run that fails therefore emits nothing.  The chaos backend
adds its fault plan's injections with :func:`chaos_plan_to_events`.

Timeline layout (see :mod:`repro.telemetry.spans` for the pid map):

* modeled (pid 1): one row per sweep cell (``sink.modeled_tid``); each
  superstep is a ``cat="superstep"`` span containing per-phase
  ``cat="compute"`` child spans followed by one ``cat="comm"`` span,
  and one ``cat="run"`` span encloses them all.
* measured (pid 2): one row per rank; ``cat="compute"`` spans from the
  rank's phase segments and ``cat="wait"`` spans for collective
  blocks, flow-connected per rendezvous.
* chaos: instant events on the modeled row at each injection's
  superstep start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.telemetry.spans import (
    MEASURED_PID,
    MODELED_PID,
    TraceSink,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bsp.engine import RunResult
    from repro.bsp.trace import Trace

__all__ = [
    "trace_to_spans",
    "run_to_spans",
    "chaos_plan_to_events",
]


def trace_to_spans(trace: "Trace", sink: TraceSink) -> TraceSink:
    """Fold a modeled trace onto the modeled row; returns the sink.

    Each superstep's span starts where the previous one ended, so the
    layout is a pure fold over the records.  Phase-level children tile
    the parent span exactly: compute spans (in the record's phase order)
    then the collective, which is what lets the export test sum spans
    back into the :class:`~repro.bsp.trace.PhaseBreakdown`.  A ``run``
    span enclosing every superstep comes last.
    """
    tid = sink.modeled_tid
    sink.process(MODELED_PID, "modeled (simulated machine)")
    clock = 0.0
    for record in trace.records:
        total = record.total_seconds
        sink.complete(
            MODELED_PID,
            tid,
            record.op,
            "superstep",
            clock,
            total,
            args={"superstep": record.index, "phase": record.phase},
        )
        t = clock
        for phase, seconds in record.compute_by_phase.items():
            sink.complete(
                MODELED_PID,
                tid,
                phase,
                "compute",
                t,
                seconds,
                args={"superstep": record.index},
            )
            t += seconds
        if record.comm_seconds > 0.0:
            sink.complete(
                MODELED_PID,
                tid,
                record.op,
                "comm",
                t,
                record.comm_seconds,
                args={
                    "superstep": record.index,
                    "phase": record.phase,
                    "nbytes": record.nbytes,
                    "messages": record.messages,
                },
            )
        clock += total
    sink.complete(
        MODELED_PID,
        tid,
        "run",
        "run",
        0.0,
        trace.makespan,
        args={"supersteps": len(trace.records)},
    )
    return sink


def run_to_spans(
    result: "RunResult", sink: TraceSink, backend: str
) -> TraceSink:
    """Project a finished run into ``sink``; returns the sink.

    The modeled fold (:func:`trace_to_spans`) first, then one measured
    row per rank from the result's segments, labelled with ``backend``:
    compute spans, then ``wait:<op>`` spans.  Waits of the same sweep are
    flow-connected across ranks — the arrows in a viewer show which
    ranks met at each rendezvous.  A result without segments (a plugin
    backend that does not run the shared rank loop) gets no measured
    rows.
    """
    trace_to_spans(result.trace, sink)
    if not result.compute_segments:
        return sink
    sink.process(MEASURED_PID, f"measured ({backend} backend)")
    sweeps: dict[int, list[tuple[int, float]]] = {}
    for rank, segments in enumerate(result.compute_segments):
        sink.thread(MEASURED_PID, rank, f"rank {rank}")
        for phase, t0, t1 in segments:
            sink.complete(MEASURED_PID, rank, phase, "compute", t0, t1 - t0)
        for op, t0, t1, sweep in result.wait_segments[rank]:
            sink.complete(
                MEASURED_PID, rank, f"wait:{op}", "wait", t0, t1 - t0,
                args={"sweep": sweep},
            )
            sweeps.setdefault(sweep, []).append((rank, t0))
    for sweep, members in sorted(sweeps.items()):
        if len(members) < 2:
            continue
        last = len(members) - 1
        for i, (rank, t0) in enumerate(members):
            phase = "s" if i == 0 else ("f" if i == last else "t")
            sink.flow(MEASURED_PID, rank, "rendezvous", sweep, t0, phase)
    return sink


def chaos_plan_to_events(
    sink: TraceSink, plan: Any, trace: "Trace", nprocs: int
) -> None:
    """Mark a fault plan's injections as instants on the modeled row.

    The plan's decisions are pure functions of ``(rank, step)``, so the
    injection points are re-derived after the run and anchored at each
    superstep's modeled start time.  Steps index the program's
    collectives; dropped-collective retries shift later records, so
    anchors are exact up to the first drop and indicative past it.
    """
    tid = sink.modeled_tid
    starts: list[float] = []
    clock = 0.0
    for record in trace.records:
        starts.append(clock)
        clock += record.total_seconds
    for step, start in enumerate(starts):
        for rank in range(nprocs):
            if plan.kills(rank, step):
                sink.instant(
                    MODELED_PID, tid, f"kill rank {rank}", "chaos", start,
                    args={"rank": rank, "step": step, "plan": plan.name},
                )
            delay = plan.delay_s(rank, step)
            if delay > 0.0:
                sink.instant(
                    MODELED_PID, tid, f"straggler rank {rank}", "chaos",
                    start,
                    args={
                        "rank": rank, "step": step, "delay_s": delay,
                        "plan": plan.name,
                    },
                )
        retries = plan.drop_retries(step)
        if retries:
            sink.instant(
                MODELED_PID, tid, "dropped collective", "chaos", start,
                args={"step": step, "retries": retries, "plan": plan.name},
            )
