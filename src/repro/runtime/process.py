"""Real-core execution: one worker process per rank, a deterministic broker.

``ProcessBackend`` launches OS worker processes (one per rank, or fewer
with rank multiplexing when ``workers`` is below the rank count), ships
the per-rank input arrays through one shared-memory segment
(:mod:`repro.runtime.shm`), and services the programs' yielded collective
requests through a broker loop in the parent process.

The process runs the shared rank loop and broker loop of
:mod:`repro.bsp.engine`: each worker pumps
:func:`~repro.bsp.engine._rank_steps` for its ranks (:func:`_rank_loop`)
and the parent runs :func:`~repro.bsp.engine._broker_loop`, which
resolves every complete sweep through the one
:class:`~repro.bsp.engine.SuperstepResolver`.  This module supplies only
the transport — a pipe per worker plus :class:`_ShmChannel` segments for
array payloads — and the worker lifecycle.  Sorted outputs, ``CommStats``
byte/message counts, modeled makespans and SPMD-violation errors are
therefore bit-identical to :class:`~repro.runtime.SimulatedBackend`; only
*wall-clock* changes, because the compute between collectives runs
concurrently on real cores.  Workers send one batch ``{rank: RankYield |
RankDone | RankFailed}`` per sweep and receive ``{rank: resume value}``;
the per-phase compute and collective waits they time land in the
:class:`~repro.runtime.Measured` block on the returned result.

Determinism: collective resolution happens only in the broker, from a
complete sweep, in rank order — worker scheduling can reorder nothing
observable.  A run is the same pure function of its inputs as under the
simulator.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

from repro.bsp.engine import (
    BSPEngine,
    Program,
    RunResult,
    _broker_loop,
    _rank_steps,
)
from repro.bsp.machine import MachineModel
from repro.bsp.node import NodeLayout
from repro.runtime.base import Backend, register_backend
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


def _unlink_by_name(name: str) -> None:
    """Unlink a segment by name, tolerating it being gone already."""
    try:
        seg = attach_segment(name)
    except FileNotFoundError:
        return
    unlink_segment(seg)


def _rank_loop(
    send: Callable[[dict[int, Any]], Any],
    recv: Callable[[], dict[int, Any] | None],
    engine: BSPEngine,
    ranks: Sequence[int],
    rank_args: Sequence[tuple],
    program: Program,
    shared_kwargs: dict[str, Any],
    record_segments: bool,
) -> None:
    """Pump one worker's rank steps over a blocking transport.

    ``send``s each batch :func:`~repro.bsp.engine._rank_steps` yields and
    feeds it the broker's reply from ``recv``; the returned last batch is
    sent without awaiting a reply.  A closed transport (``None`` or a
    pipe error: the broker went away because of an error elsewhere) ends
    the pump quietly.
    """
    steps = _rank_steps(
        engine, ranks, rank_args, program, shared_kwargs, record_segments
    )
    try:
        try:
            batch = next(steps)
            while True:
                send(batch)
                results = recv()
                if results is None:
                    return
                batch = steps.send(results)
        except StopIteration as stop:
            send(stop.value)
    except (EOFError, ConnectionError, KeyboardInterrupt):
        pass


def _worker_main(
    conn,
    shm_name: str | None,
    ranks: Sequence[int],
    packed_args: Sequence[tuple],
    program: Program,
    shared_kwargs: dict[str, Any],
    engine: BSPEngine,
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
            engine,
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
        engine = BSPEngine(
            len(rank_args), machine=machine, node_layout=node_layout
        )
        p = engine.nprocs
        nworkers = min(self.workers or os.cpu_count() or 1, p)
        start = time.perf_counter()

        assignment = _assign_ranks(p, nworkers)
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
                        engine,
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
                engine,
                assignment,
                recv,
                send,
                backend=self.name,
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
