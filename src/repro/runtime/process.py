"""Real-core execution: one worker process per rank, a deterministic broker.

``ProcessBackend`` launches OS worker processes (one per rank, or fewer
with rank multiplexing when ``workers`` is below the rank count), ships
the per-rank input arrays through one shared-memory segment
(:mod:`repro.runtime.shm`), and services the programs' yielded collective
requests through a broker loop in the parent process.

The broker is deliberately thin: it collects one
:class:`~repro.bsp.engine.RankYield` per active rank each sweep and hands
them to the same :class:`~repro.bsp.engine.SuperstepResolver` the lockstep
simulator drives.  Sorted outputs, ``CommStats`` byte/message counts,
modeled makespans and SPMD-violation errors are therefore bit-identical to
:class:`~repro.runtime.SimulatedBackend` — only *wall-clock* changes,
because the compute between collectives now runs concurrently on real
cores.  Workers time their compute segments per program phase and their
collective waits; the aggregated :class:`~repro.runtime.Measured` block
lands on the returned result.

Determinism: collective resolution happens only in the broker, from a
complete sweep, in rank order — worker scheduling can reorder nothing
observable.  A run is the same pure function of its inputs as under the
simulator.

The worker-side rank loop (:func:`_rank_loop`) and the broker loop
(:func:`_broker_loop`) are shared with :class:`~repro.runtime.ThreadBackend`;
each backend supplies only the transport: pipes plus :class:`_ShmChannel`
segments here, queues there.  Workers send one batch ``{rank: RankYield |
RankDone | RankFailed}`` per sweep and receive ``{rank: resume value}``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

from repro.bsp.cost_model import CostModel
from repro.bsp.engine import (
    _NOT_A_GENERATOR,
    Context,
    Program,
    RankYield,
    RunResult,
    SuperstepResolver,
    _Call,
    _bad_yield,
    _PhaseScope,
    default_node_layout,
)
from repro.bsp.machine import MachineModel
from repro.bsp.node import NodeLayout
from repro.errors import BSPError
from repro.runtime.base import Backend, Measured, register_backend
from repro.runtime.shm import (
    attach_segment,
    create_segment,
    fill_segment,
    pack_message,
    pack_rank_args,
    unlink_segment,
    unpack_message,
    unpack_rank_args,
    untrack_segment,
)

__all__ = ["ProcessBackend"]

#: Distinguishes concurrent runs' segment namespaces within one process.
_RUN_COUNTER = itertools.count()


class _ShmChannel:
    """One direction of array traffic over named shared-memory segments.

    Every message is an envelope ``("inline", packed)`` when it carries no
    arrays, or ``("shm", segment_name, packed)`` when its ndarray leaves
    were lifted into a fresh segment named ``{base}-{seq}`` (``seq``
    strictly monotonic, so a peer can probe for in-flight segments after a
    crash).  The sender creates, fills, closes and *untracks* each
    segment; the receiver attaches, copies out, and — depending on
    ``receiver_unlinks`` — either unlinks immediately (worker→broker) or
    leaves the unlink to the sender's bookkeeping (broker→worker result
    segments, reclaimed once the worker's next batch proves them
    consumed).
    """

    __slots__ = ("base", "seq", "last_recv_seq")

    def __init__(self, base: str) -> None:
        self.base = base
        self.seq = 0
        self.last_recv_seq = 0

    def send(self, conn, message: Any) -> str | None:
        """Send one message, lifting array leaves into a new segment.

        Returns the segment name (for sender-side reclamation) or None
        for inline messages.
        """
        packed, arrays, total = pack_message(message)
        if not total:
            conn.send(("inline", packed))
            return None
        self.seq += 1
        name = f"{self.base}-{self.seq}"
        seg = create_segment(name, total)
        try:
            fill_segment(seg, arrays)
        finally:
            untrack_segment(seg)
            seg.close()
        conn.send(("shm", name, packed))
        return name

    def recv(self, conn, *, unlink: bool) -> Any:
        """Receive one message, copying array leaves out of its segment."""
        envelope = conn.recv()
        if envelope[0] == "inline":
            return unpack_message(envelope[1], None)
        _, name, packed = envelope
        self.last_recv_seq = int(name.rsplit("-", 1)[1])
        seg = attach_segment(name)
        try:
            return unpack_message(packed, seg.buf)
        finally:
            if unlink:
                unlink_segment(seg)
            else:
                untrack_segment(seg)
                seg.close()

    def probe_unlink_in_flight(self, extra: int = 2) -> None:
        """Reclaim segments the peer created but we never received.

        After a worker crash, at most one segment is in flight (workers
        block on ``recv`` between sends), but probing a couple of
        sequence numbers past the last received one costs nothing.
        """
        for seq in range(
            self.last_recv_seq + 1, self.last_recv_seq + 1 + extra
        ):
            try:
                seg = attach_segment(f"{self.base}-{seq}")
            except FileNotFoundError:
                continue
            unlink_segment(seg)


def _mp_context():
    """Fork when the platform has it (cheap startup), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _assign_ranks(nprocs: int, workers: int) -> list[list[int]]:
    """Contiguous balanced rank blocks, one per worker.

    Contiguity keeps a node's ranks on one worker under the block-wise
    :class:`~repro.bsp.node.NodeLayout`, so node-scoped collectives of
    co-located ranks need no cross-worker traffic beyond the broker
    round-trip every collective already pays.
    """
    base, extra = divmod(nprocs, workers)
    blocks: list[list[int]] = []
    start = 0
    for i in range(workers):
        size = base + (1 if i < extra else 0)
        if size:
            blocks.append(list(range(start, start + size)))
        start += size
    return blocks


class _WorkerEngineStub:
    """Quacks like ``BSPEngine`` for :class:`Context` (no run loop)."""

    __slots__ = ("nprocs", "machine", "node_layout")

    def __init__(
        self,
        nprocs: int,
        machine: MachineModel,
        node_layout: NodeLayout | None,
    ) -> None:
        self.nprocs = nprocs
        self.machine = machine
        self.node_layout = node_layout


class _TimedPhaseScope(_PhaseScope):
    """Phase scope that also splits the running wall-clock segment.

    Phase bookkeeping is inherited from the engine's scope — the modeled
    and measured attribution can never disagree about *which* phase is
    active; this subclass only closes the timing segment at each
    transition.
    """

    __slots__ = ()

    def __enter__(self) -> "_PhaseScope":
        self._ctx._seg_mark()
        return super().__enter__()

    def __exit__(self, *exc: object) -> None:
        self._ctx._seg_mark()
        super().__exit__(*exc)


class _TimedContext(Context):
    """A :class:`Context` that also measures real per-phase compute time.

    Cost *charging* (the modeled clock) is inherited unchanged — modeled
    results stay bit-identical to the simulator.  On top of it, the worker
    loop opens a wall-clock segment before resuming the rank's generator
    and closes it at the next yield; phase scopes split the segment, so
    measured time lands on the same phase labels as the modeled breakdown.
    """

    def __init__(self, stub: _WorkerEngineStub, rank: int) -> None:
        super().__init__(stub, rank)  # type: ignore[arg-type]
        self.wall_by_phase: dict[str, float] = {}
        self.comm_wait_s = 0.0
        self._seg_start: float | None = None
        #: Raw ``(phase, start, end)`` compute segments and ``(op, start,
        #: end, sweep)`` collective waits on the worker's perf_counter
        #: clock — populated only under a trace sink (None otherwise, so
        #: the telemetry-off path allocates nothing per segment).
        self.segments: list[tuple] | None = None
        self.wait_segments: list[tuple] | None = None

    def enable_segments(self) -> None:
        """Keep raw timestamped segments for span emission."""
        self.segments = []
        self.wait_segments = []

    def _seg_open(self) -> None:
        self._seg_start = time.perf_counter()

    def _seg_mark(self) -> None:
        now = time.perf_counter()
        if self._seg_start is not None:
            self.wall_by_phase[self._phase] = (
                self.wall_by_phase.get(self._phase, 0.0)
                + (now - self._seg_start)
            )
            if self.segments is not None and now > self._seg_start:
                self.segments.append((self._phase, self._seg_start, now))
        self._seg_start = now

    def _seg_close(self) -> None:
        self._seg_mark()
        self._seg_start = None

    def phase(self, name: str) -> _TimedPhaseScope:
        return _TimedPhaseScope(self, name)


def _unlink_by_name(name: str) -> None:
    """Unlink a segment by name, tolerating it being gone already."""
    try:
        seg = attach_segment(name)
    except FileNotFoundError:
        return
    unlink_segment(seg)


@dataclass
class RankDone:
    """A rank's program returned: its value plus what the worker measured."""

    value: Any
    phase: str
    compute: float
    by_phase: dict[str, float]
    wall_by_phase: dict[str, float]
    comm_wait_s: float
    segments: list[tuple] | None
    wait_segments: list[tuple] | None


@dataclass
class RankFailed:
    """A rank's program raised, or broke the yield protocol.

    Pickles with ``exc=None`` and the one-line ``Type: message`` text
    when the exception itself cannot cross a process boundary.
    """

    exc: BaseException | None
    text: str = ""

    def __reduce__(self):
        try:
            pickle.dumps(self.exc)
        except Exception:
            text = "".join(
                traceback.format_exception_only(type(self.exc), self.exc)
            ).strip()
            return RankFailed, (None, text)
        return RankFailed, (self.exc,)

    def error(self, rank: int) -> BaseException:
        if self.exc is not None:
            return self.exc
        return BSPError(f"rank {rank} raised: {self.text}")


def _rank_loop(
    send: Callable[[dict[int, Any]], Any],
    recv: Callable[[], dict[int, Any] | None],
    stub: _WorkerEngineStub,
    ranks: Sequence[int],
    rank_args: Sequence[tuple],
    program: Program,
    shared_kwargs: dict[str, Any],
    record_segments: bool,
) -> None:
    """Advance one worker's ranks to their next yield, sweep after sweep.

    Each sweep ``send``s one batch ``{rank: RankYield | RankDone |
    RankFailed}`` and, while any rank waits on a collective, ``recv``s
    the broker's ``{rank: resume value}``.  A failure is sent at once and
    ends the loop; so does a closed transport (``None`` or a pipe error:
    the broker went away because of an error elsewhere).
    """
    ctxs: dict[int, _TimedContext] = {}
    gens: dict[int, Any] = {}
    try:
        for rank, args in zip(ranks, rank_args):
            ctx = _TimedContext(stub, rank)
            if record_segments:
                ctx.enable_segments()
            try:
                gen = program(ctx, *args, **shared_kwargs)
                if not hasattr(gen, "send"):
                    raise BSPError(_NOT_A_GENERATOR)
            except BaseException as exc:
                send({rank: RankFailed(exc)})
                return
            ctxs[rank] = ctx
            gens[rank] = gen

        resume: dict[int, Any] = dict.fromkeys(ranks)
        active = list(ranks)
        ops: dict[int, str] = {}
        sweep_index = 0
        while active:
            batch: dict[int, Any] = {}
            waiting: list[int] = []
            for r in active:
                ctx = ctxs[r]
                ctx._seg_open()
                try:
                    request = gens[r].send(resume[r])
                except StopIteration as stop:
                    ctx._seg_close()
                    pending, by_phase = ctx._drain_compute()
                    batch[r] = RankDone(
                        stop.value,
                        ctx._phase,
                        pending,
                        by_phase,
                        ctx.wall_by_phase,
                        ctx.comm_wait_s,
                        ctx.segments,
                        ctx.wait_segments,
                    )
                    continue
                except BaseException as exc:
                    ctx._seg_close()
                    batch[r] = RankFailed(exc)
                    send(batch)
                    return
                ctx._seg_close()
                if not isinstance(request, _Call):
                    batch[r] = RankFailed(_bad_yield(r, request))
                    send(batch)
                    return
                pending, by_phase = ctx._drain_compute()
                batch[r] = RankYield(request, ctx._phase, pending, by_phase)
                if record_segments:
                    ops[r] = request.op
                waiting.append(r)
                resume[r] = None
            send(batch)
            if not waiting:
                return
            wait_start = time.perf_counter()
            results = recv()
            waited = time.perf_counter() - wait_start
            if results is None:
                return
            for r in waiting:
                ctxs[r].comm_wait_s += waited
                if record_segments:
                    # Every live worker joins every broker sweep, so this
                    # local counter indexes the same global rendezvous on
                    # all workers — the flow-connection key.
                    ctxs[r].wait_segments.append(
                        (ops[r], wait_start, wait_start + waited, sweep_index)
                    )
            sweep_index += 1
            resume.update(results)
            active = waiting
    except (EOFError, ConnectionError, KeyboardInterrupt):
        # The broker went away (an error elsewhere): exit quietly.
        pass


def _broker_loop(
    assignment: list[list[int]],
    recv: Callable[[int], dict[int, Any]],
    send: Callable[[int, dict[int, Any]], Any],
    *,
    backend: str,
    machine: MachineModel,
    layout: NodeLayout | None,
    start: float,
    trace_sink: Any,
) -> RunResult:
    """Resolve complete sweeps of worker ``i``'s ``recv(i)`` batches.

    Collects one batch from every worker with live ranks, resolves the
    sweep in rank order through the shared :class:`SuperstepResolver`,
    and ``send(i, ...)``s each worker its ranks' resume values.  A
    :class:`RankFailed` re-raises at once; a worker whose transport hits
    EOF died.
    """
    p = sum(map(len, assignment))
    resolver = SuperstepResolver(
        CostModel(machine, p, layout), layout, p, trace_sink=trace_sink
    )
    returns: list[Any] = [None] * p
    final: dict[int, RankDone] = {}
    finished: list[int] = []
    live = {i: set(ranks) for i, ranks in enumerate(assignment)}
    while True:
        yields: dict[int, RankYield] = {}
        for i, ranks in live.items():
            if not ranks:
                continue
            try:
                batch = recv(i)
            except EOFError:
                raise BSPError(
                    f"worker {i} exited unexpectedly while ranks "
                    f"{sorted(ranks)[:4]} were still running"
                ) from None
            for r, msg in batch.items():
                if isinstance(msg, RankYield):
                    yields[r] = msg
                elif isinstance(msg, RankDone):
                    returns[r] = msg.value
                    final[r] = msg
                    finished.append(r)
                    ranks.discard(r)
                else:
                    raise msg.error(r)
        if not yields:
            break
        results = resolver.resolve_sweep(yields, finished)
        for i, ranks in live.items():
            if ranks:
                send(i, {r: results[r] for r in ranks})

    resolver.record_final(
        [(final[r].compute, final[r].by_phase) for r in range(p)],
        fallback_phase=final[0].phase,
    )
    result = resolver.result(returns)
    result.measured = _measured(
        final, backend, len(assignment), start, trace_sink
    )
    return result


def _measured(
    final: dict[int, RankDone],
    backend: str,
    workers: int,
    start: float,
    trace_sink: Any,
) -> Measured:
    """Aggregate the ranks' measurements; emit their spans under a sink.

    Worker timestamps come from ``perf_counter`` (CLOCK_MONOTONIC — one
    machine-wide clock, comparable across processes), normalized here
    against the run's own start so the measured timeline begins at zero.
    """
    ranks = range(len(final))
    phase_wall: dict[str, float] = {}
    for r in ranks:
        for phase, seconds in final[r].wall_by_phase.items():
            if seconds > phase_wall.get(phase, 0.0):
                phase_wall[phase] = seconds
    measured = Measured(
        backend=backend,
        workers=workers,
        wall_s=time.perf_counter() - start,
        rank_compute_s=tuple(
            sum(final[r].wall_by_phase.values()) for r in ranks
        ),
        rank_comm_wait_s=tuple(final[r].comm_wait_s for r in ranks),
        phase_wall_s=phase_wall,
    )
    if trace_sink is not None:
        from repro.telemetry.adapters import emit_rank_segments

        def shift(entries: list[tuple] | None) -> list[tuple]:
            return [
                (entry[0], max(0.0, entry[1] - start), entry[2] - start)
                + entry[3:]
                for entry in entries or ()
            ]

        emit_rank_segments(
            trace_sink,
            {r: shift(final[r].segments) for r in ranks},
            {r: shift(final[r].wait_segments) for r in ranks},
            backend,
        )
    return measured


def _worker_main(
    conn,
    shm_name: str | None,
    ranks: Sequence[int],
    packed_args: Sequence[tuple],
    program: Program,
    shared_kwargs: dict[str, Any],
    stub: _WorkerEngineStub,
    unregister_shm: bool = False,
    chan_base: str = "",
    record_segments: bool = False,
    inherited_conns: Sequence[Any] = (),
) -> None:
    """Run this worker's ranks, forwarding every collective to the broker.

    ``inherited_conns`` are the broker's pipe ends a forked worker got
    copies of (its own and earlier workers').  They are closed first:
    while any process holds a copy, closing the broker's end delivers no
    EOF, and a worker blocked on ``recv`` after an error would wait out
    the broker's join timeout.
    """
    for inherited in inherited_conns:
        inherited.close()
    tx = _ShmChannel(f"{chan_base}t")  # worker -> broker
    rx = _ShmChannel(f"{chan_base}r")  # broker -> worker
    try:
        shm = None
        if shm_name is not None:
            shm = shared_memory.SharedMemory(name=shm_name)
            if unregister_shm:
                # Spawned workers run their own resource tracker, which
                # would unlink the parent-owned segment when this process
                # exits; drop the attach-time registration.  (Forked
                # workers share the parent's tracker, whose registry is a
                # set — the parent's own unlink handles it.)
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
        try:
            args = unpack_rank_args(shm, packed_args)
        finally:
            if shm is not None:
                shm.close()
        _rank_loop(
            lambda batch: tx.send(conn, batch),
            # The broker owns each result segment and unlinks it after
            # our next send proves we read it.
            lambda: rx.recv(conn, unlink=False),
            stub,
            ranks,
            args,
            program,
            shared_kwargs,
            record_segments,
        )
    finally:
        conn.close()


@register_backend
class ProcessBackend(Backend):
    """Execute ranks in real worker processes; measure real wall-clock.

    Parameters
    ----------
    workers:
        Worker processes to multiplex ranks over; defaults to
        ``min(nprocs, os.cpu_count())``.  Each worker advances its ranks'
        generators between collective rendezvous concurrently with every
        other worker, which is where the wall-clock speedup over the
        lockstep simulator comes from.
    """

    name = "process"
    description = (
        "one worker process per rank (multiplexed over N workers); "
        "real cores, measured wall-clock, bit-identical modeled results"
    )

    # ------------------------------------------------------------------ #
    def run(
        self,
        program: Program,
        rank_args: Sequence[tuple],
        *,
        machine: MachineModel | None = None,
        node_layout: NodeLayout | None = None,
        trace_sink: Any = None,
        **shared_kwargs: Any,
    ) -> RunResult:
        p = len(rank_args)
        if p < 1:
            raise BSPError(f"need at least one rank, got {p}")
        if machine is None:
            from repro.machines import get_machine

            machine = get_machine("laptop")
        layout = default_node_layout(machine, p, node_layout)
        nworkers = min(self.workers or os.cpu_count() or 1, p)
        start = time.perf_counter()

        assignment = _assign_ranks(p, nworkers)
        stub = _WorkerEngineStub(p, machine, layout)
        shm, packed = pack_rank_args(rank_args)
        mp = _mp_context()
        procs: list[Any] = []
        conns: list[Any] = []
        chan_base = f"rpr{os.getpid():x}x{next(_RUN_COUNTER):x}w"
        # Broker-side channel pair per worker; bases mirror the workers'.
        worker_rx = [
            _ShmChannel(f"{chan_base}{i}t") for i in range(len(assignment))
        ]
        worker_tx = [
            _ShmChannel(f"{chan_base}{i}r") for i in range(len(assignment))
        ]
        #: Result segments sent to worker i, not yet proven consumed.
        sent_results: dict[int, list[str]] = {
            i: [] for i in range(len(assignment))
        }

        def recv(i: int) -> dict[int, Any]:
            batch = worker_rx[i].recv(conns[i], unlink=True)
            # A new batch proves the worker copied the previous sweep's
            # results out: reclaim those segments.
            for name in sent_results[i]:
                _unlink_by_name(name)
            sent_results[i].clear()
            return batch

        def send(i: int, results: dict[int, Any]) -> None:
            name = worker_tx[i].send(conns[i], results)
            if name is not None:
                sent_results[i].append(name)

        forked = mp.get_start_method() == "fork"
        try:
            for i, ranks in enumerate(assignment):
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        shm.name if shm is not None else None,
                        ranks,
                        [packed[r] for r in ranks],
                        program,
                        shared_kwargs,
                        stub,
                        not forked,
                        f"{chan_base}{i}",
                        trace_sink is not None,
                        [*conns, parent_conn] if forked else (),
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                procs.append(proc)
                conns.append(parent_conn)
            return _broker_loop(
                assignment,
                recv,
                send,
                backend=self.name,
                machine=machine,
                layout=layout,
                start=start,
                trace_sink=trace_sink,
            )
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join()
            # Reclaim collective-channel segments stranded by an error or
            # worker crash: results we sent but never saw consumed, and
            # batches a worker created that we never received.
            for names in sent_results.values():
                for name in names:
                    _unlink_by_name(name)
            for rx in worker_rx:
                rx.probe_unlink_in_flight()
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - defensive
                    pass
