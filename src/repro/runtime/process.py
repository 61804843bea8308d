"""Real-core execution: one worker process per rank, a deterministic broker.

``ProcessBackend`` launches OS worker processes (one per rank, or fewer
with rank multiplexing when ``workers`` is below the rank count), hands
each worker its ranks' inputs as process arguments (fork shares them
copy-on-write, spawn pickles them), and services the programs' yielded
collective requests through a broker loop in the parent process.

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
the compute segments and collective waits they time travel in each
rank's final ``RankDone`` and land on the returned result.

The broker routes descriptors, not bytes.  Each worker writes a batch's
arrays into one segment it creates, and the pipe carries the batch with
:class:`~repro.bsp.collectives.ArrayRef` descriptors in their place.  The
resolver routes those refs unread (``sizeof`` counts a ref as its array).
An ``alltoallv`` payload is ``(counts, arrays)``: the counts are plain
ints in the pickled skeleton, so the broker prices and checks the
exchange from them and routes each run as an ``ArrayRef`` sub-slice
(``ref[lo:hi]``) of the sender's array.  The broker copies out only the
segments of what it reads — the payloads of
:data:`~repro.bsp.collectives.VALUE_OPS` and finished or failed ranks'
messages — and ships arrays it computes (reduction results) in a
segment of its own.  It unlinks the segments a sweep's results name
once every receiver has sent its next batch, which proves it mapped
them; a mapping outlives the name, so the views stay readable.

Copy budget, one copy per hop (see :mod:`repro.runtime.shm`):

* *send* — a worker copies a batch's arrays into its new segment;
* *route* — the broker copies no segment whose bytes it only routes;
* *receive* — a worker hands its ranks views of the senders' segments
  (:func:`~repro.runtime.shm.map_out`, private copy-on-write), so
  ``Context.alltoallv``'s concatenation is the one copy of a run;
* *finish* — the broker copies each worker's final batch once, into one
  buffer (:func:`~repro.runtime.shm.copy_out`); the outputs are views of
  it and never alias shared memory, whose pages are slow to release.

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
from typing import Any, Callable, Sequence

from repro.bsp.collectives import VALUE_OPS, ArrayRef
from repro.bsp.engine import (
    BSPEngine,
    Program,
    RankYield,
    RunResult,
    _broker_loop,
    _Call,
    _rank_steps,
)
from repro.bsp.machine import MachineModel
from repro.bsp.node import NodeLayout
from repro.runtime.base import Backend, register_backend
from repro.runtime.shm import (
    copy_out,
    create_segment,
    fill_segment,
    map_out,
    pack_message,
    unlink_segment,
)

__all__ = ["ProcessBackend"]

#: Distinguishes concurrent runs' segment namespaces within one process.
_RUN_COUNTER = itertools.count()


class _ShmChannel:
    """One sender's data channel: a fresh segment per message with bytes.

    ``send`` lifts a message's ndarray leaves into segment
    ``{base}-{seq}`` (``seq`` strictly monotonic, so the broker can probe
    for a segment in flight after a crash) and pipes ``(segment name or
    None, skeleton)``.  The sender creates and fills segments, and
    unlinks only one whose send failed; the broker unlinks the rest.
    """

    __slots__ = ("base", "seq", "last_recv_seq")

    def __init__(self, base: str) -> None:
        self.base = base
        self.seq = 0
        self.last_recv_seq = 0

    def send(self, conn, message: Any) -> str | None:
        """Send one message; return the segment it created, if any."""
        name = f"{self.base}-{self.seq + 1}"
        packed, arrays, total = pack_message(message, name)
        if not total:
            conn.send((None, packed))
            return None
        self.seq += 1
        seg = create_segment(name, total)
        try:
            fill_segment(seg, arrays)
        finally:
            seg.close()
        try:
            conn.send((name, packed))
        except BaseException:
            unlink_segment(name)  # no receiver will learn its name
            raise
        return name

    def recv(self, conn) -> tuple[str | None, Any]:
        """Receive one ``(segment name or None, skeleton)`` envelope."""
        name, packed = conn.recv()
        if name is not None:
            self.last_recv_seq = int(name.rsplit("-", 1)[1])
        return name, packed

    def probe_unlink_in_flight(self, extra: int = 2) -> None:
        """Reclaim segments the peer created but we never received.

        After a worker crash, at most one segment is in flight (workers
        block on ``recv`` between sends), but probing a couple of
        sequence numbers past the last received one costs nothing.
        """
        for seq in range(
            self.last_recv_seq + 1, self.last_recv_seq + 1 + extra
        ):
            unlink_segment(f"{self.base}-{seq}")


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


def _reads_payload(call: _Call) -> bool:
    """Whether the broker must copy ``call``'s payload bytes to resolve it.

    Reductions compute with values; scatter indexes into a payload
    sequence, which the ref of one bare array cannot stand in for.  Every
    other payload is routed as the refs it arrived as — ``alltoallv``
    included: its counts ride in the pickled skeleton, and its runs are
    :class:`~repro.bsp.collectives.ArrayRef` sub-slices.
    """
    return call.op in VALUE_OPS or (
        call.op == "scatter" and isinstance(call.payload, ArrayRef)
    )


def _recv_results(conn) -> dict[int, Any]:
    """Receive one sweep's results as views of the segments they name."""
    _, packed = conn.recv()
    return map_out(packed)


def _rank_loop(
    send: Callable[[dict[int, Any]], Any],
    recv: Callable[[], dict[int, Any] | None],
    engine: BSPEngine,
    ranks: Sequence[int],
    rank_args: Sequence[tuple],
    program: Program,
    shared_kwargs: dict[str, Any],
) -> None:
    """Pump one worker's rank steps over a blocking transport.

    ``send``s each batch :func:`~repro.bsp.engine._rank_steps` yields and
    feeds it the broker's reply from ``recv``; the returned last batch is
    sent without awaiting a reply.  A closed transport (``None`` or a
    pipe error: the broker went away because of an error elsewhere) ends
    the pump quietly.
    """
    steps = _rank_steps(engine, ranks, rank_args, program, shared_kwargs)
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
    ranks: Sequence[int],
    rank_args: Sequence[tuple],
    program: Program,
    shared_kwargs: dict[str, Any],
    engine: BSPEngine,
    chan_base: str,
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
    tx = _ShmChannel(f"{chan_base}t")
    try:
        _rank_loop(
            lambda batch: tx.send(conn, batch),
            lambda: _recv_results(conn),
            engine,
            ranks,
            rank_args,
            program,
            shared_kwargs,
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
        **shared_kwargs: Any,
    ) -> RunResult:
        engine = BSPEngine(
            len(rank_args), machine=machine, node_layout=node_layout
        )
        p = engine.nprocs
        nworkers = min(self.workers or os.cpu_count() or 1, p)
        start = time.perf_counter()

        assignment = _assign_ranks(p, nworkers)
        mp = _mp_context()
        procs: list[Any] = []
        conns: list[Any] = []
        chan_base = f"rpr{os.getpid():x}x{next(_RUN_COUNTER):x}w"
        # Worker i sends on f"{chan_base}{i}t"; the broker on its own.
        worker_rx = [
            _ShmChannel(f"{chan_base}{i}t") for i in range(len(assignment))
        ]
        broker_tx = _ShmChannel(f"{chan_base}b")
        #: Segments received in the sweep being collected, and those the
        #: results of the last resolved sweep may name.
        received: list[str] = []
        routed: list[str] = []
        collecting = False

        def recv(i: int) -> dict[int, Any]:
            nonlocal collecting
            collecting = True
            name, batch = worker_rx[i].recv(conns[i])
            if name is not None:
                received.append(name)
            # Copy out only what the broker itself reads, in one copy per
            # segment; routed payloads stay refs, which receivers map.
            reads = {
                r: msg.call.payload if isinstance(msg, RankYield) else msg
                for r, msg in batch.items()
                if not isinstance(msg, RankYield) or _reads_payload(msg.call)
            }
            for r, value in copy_out(reads).items():
                if isinstance(batch[r], RankYield):
                    batch[r].call.payload = value
                else:
                    batch[r] = value
            return batch

        def send(i: int, results: dict[int, Any]) -> None:
            nonlocal collecting, routed, received
            if collecting:
                # Every worker sent results last sweep has now delivered
                # its next batch, so it mapped them: reclaim the names
                # (its mappings, and the views on them, stay valid).
                collecting = False
                for name in routed:
                    unlink_segment(name)
                routed, received = received, []
            name = broker_tx.send(conns[i], results)
            if name is not None:
                routed.append(name)

        forked = mp.get_start_method() == "fork"
        try:
            for i, ranks in enumerate(assignment):
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=_worker_main,
                    args=(
                        child_conn,
                        ranks,
                        # Fork shares these copy-on-write; spawn pickles.
                        [rank_args[r] for r in ranks],
                        program,
                        shared_kwargs,
                        engine,
                        f"{chan_base}{i}",
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
            )
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join()
                # Release its sentinel pipes now, not when an error's
                # traceback lets go of this frame.
                proc.close()
            # Reclaim what the sweeps left: segments still named by sent
            # results or received batches, and batches a worker created
            # that we never received (a crash mid-send).
            for name in routed + received:
                unlink_segment(name)
            for rx in worker_rx:
                rx.probe_unlink_in_flight()
