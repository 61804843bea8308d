"""The BSP SPMD engine.

An algorithm is expressed as a *program*: a generator function whose first
argument is a :class:`Context` and which uses ``yield from`` at every
communication point::

    def program(ctx, local_keys):
        with ctx.phase("local sort"):
            local_keys = np.sort(local_keys)
            ctx.charge_sort(len(local_keys))
        sample = local_keys[:: max(1, len(local_keys) // 4)]
        with ctx.phase("splitting"):
            gathered = yield from ctx.gather(sample, root=0)
        ...
        return my_final_bucket

One rank loop and one broker loop execute every program, on every
backend.  :func:`_rank_steps` advances a block of rank generators to their
next collective and yields the sweep's requests as one batch;
:func:`_broker_loop` collects a batch from every worker, checks SPMD
consistency (same op, same root — the simulated analogue of MPI's
matching rules), resolves the data movement with
:mod:`repro.bsp.collectives` and prices the superstep with
:mod:`repro.bsp.cost_model` through :class:`SuperstepResolver`, then sends
each rank its result.  Backends differ only in the transport between the
two: :meth:`BSPEngine.run` (the simulator) advances one block of all
ranks inline, while the thread and process backends in
:mod:`repro.runtime` pump blocks over queues or pipes.

Computation between collectives is *charged* explicitly (``ctx.charge_sort``,
``ctx.charge_compare`` ...) against the machine model, following the paper's
convention of counting key comparisons (``T_I``) and bytes moved.  Charged
time accumulates per rank; at each rendezvous the superstep's compute cost is
the *maximum* over ranks, exactly as in Valiant's BSP accounting.  The rank
loop also times the real wall-clock of every compute segment and
collective wait; the result carries those segments and the
:class:`Measured` totals derived from them.

Determinism: rank programs run in rank order within each scheduling sweep and
all randomness comes from caller-provided seeded generators, so a run is a
pure function of its inputs.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Generator, Mapping, Sequence

import numpy as np

from repro.bsp import collectives as coll
from repro.bsp.cost_model import CommStats, CostModel
from repro.bsp.node import NodeLayout
from repro.bsp.trace import SuperstepRecord, Trace
from repro.errors import BSPError, CollectiveMismatchError, DeadlockError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machines import MachineSpec

__all__ = [
    "Context",
    "NodeContext",
    "BSPEngine",
    "Measured",
    "RunResult",
    "Program",
    "RankYield",
    "SuperstepResolver",
]

#: Type of an SPMD program: a generator function taking (ctx, *args).
Program = Callable[..., Generator[Any, Any, Any]]

_DEFAULT_PHASE = "unlabeled"

_NOT_A_GENERATOR = (
    "program must be a generator function (use 'yield from' "
    "for collectives); got a plain function"
)


def _bad_yield(rank: int, request: Any) -> BSPError:
    """The error for a rank that yielded something other than a collective."""
    return BSPError(
        f"rank {rank} yielded {type(request).__name__}; programs "
        "must only 'yield from' Context collectives"
    )


@dataclass
class _Call:
    """A collective request yielded by a rank program."""

    op: str
    payload: Any = None
    root: int = 0
    reduce_op: str = "sum"
    partner: int = -1
    node_combining: bool = False
    #: Rendezvous group: ``("global",)`` or ``("node", node_id)``.
    group: tuple = ("global",)


class _PhaseScope:
    """Context manager produced by :meth:`Context.phase`.

    Each transition also closes the rank's running wall-clock segment, so
    measured time lands on the same phase labels as the modeled charges.
    """

    __slots__ = ("_ctx", "_name", "_prev")

    def __init__(self, ctx: "Context", name: str) -> None:
        self._ctx = ctx
        self._name = name
        self._prev = ""

    def __enter__(self) -> "_PhaseScope":
        ctx = self._ctx
        ctx._seg_mark()
        self._prev = ctx._phase
        ctx._phase = self._name
        return self

    def __exit__(self, *exc: object) -> None:
        self._ctx._seg_mark()
        self._ctx._phase = self._prev


class Context:
    """Per-rank handle a program uses for communication and cost charging.

    Besides the modeled clock (``charge_*``), a context measures real
    wall-clock: the rank loop opens a segment before resuming the rank's
    generator and closes it at the next yield, phase scopes split it, and
    each wait for the broker's reply is logged as a wait segment.
    """

    _group: tuple = ("global",)

    def __init__(self, engine: "BSPEngine", rank: int) -> None:
        self._engine = engine
        self.rank = rank
        self.nprocs = engine.nprocs
        self._phase = _DEFAULT_PHASE
        self._pending_compute = 0.0  # seconds since last rendezvous
        self._pending_by_phase: dict[str, float] = {}
        self._seg_start: float | None = None
        #: Raw ``(phase, start, end)`` compute segments and ``(op, start,
        #: end, sweep)`` collective waits on the ``perf_counter`` clock.
        self.segments: list[tuple] = []
        self.wait_segments: list[tuple] = []

    def node_comm(self) -> "NodeContext":
        """A sub-communicator over this rank's *node* (§6.1 nodegroups).

        Collectives on the returned context rendezvous only with the other
        ranks of the same physical node and are priced as shared-memory
        operations (no network messages).  Requires the engine to have a
        :class:`~repro.bsp.node.NodeLayout`.
        """
        return NodeContext(self)

    # ------------------------------------------------------------- misc
    @property
    def machine(self) -> MachineSpec:
        """The simulated machine description."""
        return self._engine.machine

    @property
    def node_layout(self) -> NodeLayout | None:
        """Node layout, if the engine was configured with one."""
        return self._engine.node_layout

    @property
    def current_phase(self) -> str:
        return self._phase

    def phase(self, name: str) -> _PhaseScope:
        """Label subsequent charges/collectives with ``name`` (for Fig 6.1
        style breakdowns)."""
        return _PhaseScope(self, name)

    # -------------------------------------------------------- cost charging
    def charge_seconds(self, seconds: float) -> None:
        """Charge raw computation seconds to this rank's clock."""
        if seconds < 0:
            raise BSPError("cannot charge negative time")
        self._pending_compute += seconds
        self._pending_by_phase[self._phase] = (
            self._pending_by_phase.get(self._phase, 0.0) + seconds
        )

    def charge_compare(self, comparisons: float) -> None:
        """Charge ``comparisons`` key comparisons."""
        self.charge_seconds(self.machine.compare_seconds(comparisons))

    def charge_bytes(self, nbytes: float) -> None:
        """Charge local memory traffic of ``nbytes`` bytes."""
        self.charge_seconds(self.machine.copy_seconds(nbytes))

    def charge_sort(self, n: int, *, key_bytes: int = 8) -> None:
        """Charge an ``n log n`` comparison sort plus its memory traffic."""
        import math

        if n > 1:
            self.charge_compare(n * math.log2(n))
            self.charge_bytes(2.0 * n * key_bytes)

    def charge_merge(self, total: int, ways: int, *, key_bytes: int = 8) -> None:
        """Charge a ``ways``-way merge of ``total`` total elements."""
        import math

        if total > 0 and ways > 1:
            self.charge_compare(total * math.log2(ways))
            self.charge_bytes(2.0 * total * key_bytes)

    def charge_binary_searches(self, queries: int, haystack: int) -> None:
        """Charge ``queries`` binary searches over ``haystack`` sorted keys."""
        import math

        if queries > 0:
            self.charge_compare(queries * math.log2(max(2, haystack)))

    # --------------------------------------------------------- collectives
    # Each returns a generator; invoke with ``yield from``.
    def barrier(self) -> Generator[Any, Any, None]:
        yield _Call("barrier", group=self._group)

    def bcast(self, value: Any = None, root: int = 0) -> Generator[Any, Any, Any]:
        result = yield _Call("bcast", value, root, group=self._group)
        return result

    def gather(self, value: Any, root: int = 0) -> Generator[Any, Any, Any]:
        result = yield _Call("gather", value, root, group=self._group)
        return result

    def allgather(self, value: Any) -> Generator[Any, Any, list[Any]]:
        result = yield _Call("allgather", value, group=self._group)
        return result

    def scatter(
        self, values: Sequence[Any] | None, root: int = 0
    ) -> Generator[Any, Any, Any]:
        result = yield _Call("scatter", values, root, group=self._group)
        return result

    def reduce(
        self, value: Any, op: str = "sum", root: int = 0
    ) -> Generator[Any, Any, Any]:
        result = yield _Call("reduce", value, root, reduce_op=op, group=self._group)
        return result

    def allreduce(self, value: Any, op: str = "sum") -> Generator[Any, Any, Any]:
        result = yield _Call("allreduce", value, reduce_op=op, group=self._group)
        return result

    def scan(self, value: Any, op: str = "sum") -> Generator[Any, Any, Any]:
        result = yield _Call("scan", value, reduce_op=op, group=self._group)
        return result

    def alltoallv(
        self,
        counts: Sequence[int],
        *arrays: np.ndarray,
        node_combining: bool = False,
    ) -> Generator[Any, Any, tuple[np.ndarray, ...]]:
        """Personalized all-to-all of contiguous runs (MPI_Alltoallv).

        ``arrays`` are one or more aligned 1-D arrays whose rows are
        grouped by destination: run ``j`` — the next ``counts[j]`` rows of
        every array — goes to rank ``j``.  Returns one array per sent
        array: the runs this rank received, in source-rank order.  With
        ``node_combining=True`` the superstep is *priced* as if per-node
        message combining (§6.1.1) were applied; data semantics are
        identical.
        """
        payload = (tuple(np.asarray(counts, dtype=np.int64).tolist()), arrays)
        runs = yield _Call(
            "alltoallv", payload, node_combining=node_combining, group=self._group
        )
        return tuple(np.concatenate(column) for column in runs)

    def exchange(self, partner: int, value: Any) -> Generator[Any, Any, Any]:
        """Symmetric pairwise exchange with ``partner`` (for bitonic sort)."""
        result = yield _Call("exchange", value, partner=partner, group=self._group)
        return result

    # ------------------------------------------------------------ internal
    def _seg_mark(self) -> None:
        """Close the running wall-clock segment and open the next one.

        The rank loop sets ``_seg_start`` when it resumes the rank and
        marks again at the next yield; the segment it then leaves open is
        overwritten at the next resume, so waits never count as compute.
        """
        now = perf_counter()
        start = self._seg_start
        if start is not None and now > start:
            self.segments.append((self._phase, start, now))
        self._seg_start = now

    def _drain_compute(self) -> tuple[float, dict[str, float]]:
        pending = self._pending_compute
        by_phase = self._pending_by_phase
        self._pending_compute = 0.0
        self._pending_by_phase = {}
        return pending, by_phase


class NodeContext(Context):
    """Sub-communicator over one node's ranks (shared-memory collectives).

    Exposes the same collective API as :class:`Context` but with
    ``self.rank`` / ``self.nprocs`` relative to the node, rendezvousing only
    with the node's other ranks.  Computation charges and phase labels are
    forwarded to the parent (global) context, so cost accounting stays
    unified.
    """

    def __init__(self, parent: Context) -> None:
        layout = parent._engine.node_layout
        if layout is None:
            raise BSPError(
                "node_comm() requires the engine to be configured with a "
                "NodeLayout (machine.cores_per_node > 1 or explicit layout)"
            )
        self._engine = parent._engine
        self._parent = parent
        self.node = layout.node_of(parent.rank)
        ranks = layout.ranks_on_node(self.node)
        self.rank = parent.rank - ranks.start
        self.nprocs = len(ranks)
        self.global_rank = parent.rank
        self._group = ("node", self.node)

    # Charges and phases belong to the (single, global) per-rank context.
    def charge_seconds(self, seconds: float) -> None:
        self._parent.charge_seconds(seconds)

    def phase(self, name: str) -> _PhaseScope:
        return self._parent.phase(name)

    @property
    def current_phase(self) -> str:
        return self._parent._phase

    def node_comm(self) -> "NodeContext":
        return self


@dataclass(frozen=True)
class Measured:
    """Real wall-clock measurements of one backend run.

    The *modeled* timing (:class:`~repro.bsp.trace.Trace`,
    ``RunResult.makespan``) is a deterministic function of the simulated
    machine and is bit-identical across backends; this block records what
    the host actually did — the measured side of the measured-vs-modeled
    calibration story (see ``examples/measured_vs_modeled.py``).  The
    shared rank loop fills it on every built-in backend, the simulator
    included.

    Phase attribution follows the programs' own ``ctx.phase(...)`` labels,
    so measured entries line up with the modeled phase breakdown.  Times
    spent blocked at collectives are kept separate (``rank_comm_wait_s``)
    rather than smeared into compute phases.  Every total is derived from
    the per-rank segments on :class:`RunResult`.
    """

    #: Which backend produced the run (registry name).
    backend: str
    #: Workers (threads or processes) that advanced ranks; 1 for the
    #: simulator, which advances every rank inline.
    workers: int
    #: End-to-end wall-clock of the run, including worker startup.
    wall_s: float
    #: Per-rank wall-clock spent advancing the rank program (sum of its
    #: compute segments, excluding collective waits).  Empty only for a
    #: plugin backend that does not run the shared rank loop.
    rank_compute_s: tuple[float, ...] = ()
    #: Per-rank wall-clock spent blocked waiting on collective resolution.
    rank_comm_wait_s: tuple[float, ...] = ()
    #: Per-phase compute wall-clock, max over ranks (the BSP critical-path
    #: convention, matching the modeled breakdown's aggregation; with
    #: ``workers < p`` it understates the path, see :attr:`compute_s`).
    #: One key per phase label a rank ran code under — a superset of the
    #: modeled breakdown's labels, which list only phases that cost
    #: modeled time (code outside every ``ctx.phase`` is ``unlabeled``).
    phase_wall_s: dict[str, float] = field(default_factory=dict)
    #: Fault-injection metrics when the run went through the chaos
    #: backend with a non-zero plan (``None`` otherwise): plan name and
    #: seed, straggler/retry/kill counts, injected delay, and modeled
    #: slowdown vs the fault-free twin.  JSON-safe by construction.
    chaos: dict[str, Any] | None = None

    @property
    def compute_s(self) -> float:
        """Largest per-rank compute wall-clock (max over ranks).

        This is the critical path only with one worker per rank.  With
        ``workers < p`` a worker advances its ranks one after another,
        so the critical path is closer to the largest per-worker *sum*
        of its ranks' values, which this max understates.
        """
        return max(self.rank_compute_s, default=0.0)

    @property
    def comm_wait_s(self) -> float:
        """Largest per-rank collective-wait wall-clock (max over ranks).

        Values are per rank.  A multiplexed worker's ranks all wait on the
        same broker reply, so each of them carries the same wait; like
        :attr:`compute_s`, the max is a critical path only when
        ``workers == p``.
        """
        return max(self.rank_comm_wait_s, default=0.0)


@dataclass
class RunResult:
    """Outcome of one :meth:`BSPEngine.run` (or any runtime backend)."""

    returns: list[Any]
    trace: Trace
    stats: CommStats
    makespan: float
    #: Real wall-clock measurements of the run (:class:`Measured`), filled
    #: by the shared broker loop on every built-in backend.  Modeled
    #: fields above are bit-identical across backends; this block and the
    #: segments below are the only backend-dependent part of a result.
    measured: Measured | None = None
    #: Per rank, its ``(phase, start_s, end_s)`` compute segments, in
    #: seconds since the run started.  Empty only for a plugin backend
    #: that does not run the shared rank loop.
    compute_segments: tuple[list[tuple], ...] = ()
    #: Per rank, its ``(op, start_s, end_s, sweep)`` collective waits on
    #: the same clock; ``sweep`` indexes the broker's rendezvous.
    wait_segments: tuple[list[tuple], ...] = ()

    def breakdown(self):
        """Phase breakdown of the modeled execution time."""
        return self.trace.breakdown()


@dataclass
class RankYield:
    """One rank's contribution to a scheduling sweep.

    Captured at the moment the rank's generator yields: the collective
    request itself, the phase label active at the yield, and the compute
    charged since the previous rendezvous.  :class:`SuperstepResolver`
    consumes these, whichever transport carried them to the broker.
    """

    call: _Call
    phase: str = _DEFAULT_PHASE
    compute: float = 0.0
    by_phase: dict[str, float] = field(default_factory=dict)


@dataclass
class RankDone:
    """A rank's program returned: its value plus what the loop measured."""

    value: Any
    phase: str
    compute: float
    by_phase: dict[str, float]
    segments: list[tuple]
    wait_segments: list[tuple]


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


class SuperstepResolver:
    """The rendezvous core shared by every execution backend.

    Given one :class:`RankYield` per waiting rank, the resolver groups the
    requests, enforces the SPMD matching rules (raising
    :class:`CollectiveMismatchError` / :class:`DeadlockError` with the
    same messages regardless of backend), resolves the data movement,
    prices the superstep, and accumulates the trace and comm stats.
    :func:`_broker_loop` drives it for every backend, so modeled
    accounting cannot drift between transports.
    """

    def __init__(
        self,
        cost_model: CostModel,
        node_layout: NodeLayout | None,
        nprocs: int,
    ) -> None:
        self.cost_model = cost_model
        self.node_layout = node_layout
        self.nprocs = nprocs
        self.trace = Trace()
        self.stats = CommStats()
        self.step = 0

    # ------------------------------------------------------------------ #
    def resolve_sweep(
        self,
        yields: Mapping[int, RankYield],
        finished: Sequence[int],
    ) -> dict[int, Any]:
        """Resolve one scheduling sweep; returns each rank's resume value.

        ``yields`` maps every *waiting* rank to its request (iterated in
        ascending rank order); ``finished`` lists ranks whose programs
        have already returned (they participate only in the deadlock
        check).
        """
        active = sorted(yields)
        step = self.step

        # --- group the rendezvous ----------------------------------
        groups: dict[tuple, list[int]] = {}
        for r in active:
            groups.setdefault(yields[r].call.group, []).append(r)
        if ("global",) in groups:
            if len(groups) > 1:
                other = next(g for g in groups if g != ("global",))
                err = CollectiveMismatchError(
                    f"superstep {step}: ranks {groups[('global',)][:4]} "
                    f"issued a global collective while ranks "
                    f"{groups[other][:4]} issued a {other} collective"
                )
                err.superstep = step
                err.ranks = tuple(sorted(groups[("global",)] + groups[other]))
                raise err
            if finished:
                stalled = groups[("global",)]
                err = DeadlockError(
                    f"superstep {step}: ranks {sorted(finished)[:8]} "
                    f"finished while ranks {stalled[:8]} wait on "
                    f"'{yields[stalled[0]].call.op}' — program is not SPMD"
                )
                err.superstep = step
                err.finished_ranks = tuple(sorted(finished))
                err.stuck_ranks = tuple(stalled)
                raise err
        else:
            # All node-scoped: every node group must be complete.
            layout = self.node_layout
            for gkey, members in groups.items():
                expected = list(layout.ranks_on_node(gkey[1]))
                if members != expected:
                    err = DeadlockError(
                        f"superstep {step}: node {gkey[1]} collective has "
                        f"participants {members} but the node hosts ranks "
                        f"{expected}"
                    )
                    err.superstep = step
                    err.stuck_ranks = tuple(members)
                    raise err

        # --- resolve each group independently -----------------------
        # Node groups on different nodes run concurrently: a sweep of
        # node collectives contributes the MAX group cost to the
        # makespan (one aggregated record), while the (single) global
        # group is recorded as-is.
        sweep_comm = 0.0
        sweep_compute = 0.0
        sweep_phases: dict[str, float] = {}
        sweep_op = ""
        sweep_phase = _DEFAULT_PHASE
        sweep_endpoints = 0
        results: dict[int, Any] = {}
        for gkey in sorted(groups):
            members = groups[gkey]
            first = yields[members[0]].call
            for r in members:
                call = yields[r].call
                if call.op != first.op or call.root != first.root or (
                    call.reduce_op != first.reduce_op
                ):
                    disagreeing = sorted(
                        m for m in members
                        if yields[m].call.op != first.op
                        or yields[m].call.root != first.root
                        or yields[m].call.reduce_op != first.reduce_op
                    )
                    err = CollectiveMismatchError(
                        f"superstep {step} {gkey}: rank {members[0]} "
                        f"called '{first.op}' (root={first.root}) but "
                        f"rank {r} called '{call.op}' (root={call.root}); "
                        f"disagreeing ranks {disagreeing[:8]}"
                    )
                    err.superstep = step
                    err.ranks = tuple(disagreeing)
                    raise err
            if first.op == "exchange" and gkey != ("global",):
                raise CollectiveMismatchError(
                    "pairwise exchange is only supported on the global "
                    "communicator"
                )
            partners = (
                [yields[r].call.partner for r in members]
                if first.op == "exchange"
                else None
            )
            resolved = coll.resolve(
                first.op,
                [yields[r].call.payload for r in members],
                first.root,
                reduce_op=first.reduce_op,
                partners=partners,
            )
            scope = "global" if gkey == ("global",) else "node"
            cost = self.cost_model.price(
                first.op,
                max_bytes=resolved.max_bytes,
                total_bytes=resolved.total_bytes,
                node_combining=first.node_combining,
                scope=scope,
                group_size=len(members),
            )
            self.stats.record(first.op, cost)

            # Critical-path compute over this group's members.
            max_compute = 0.0
            max_phases: dict[str, float] = {}
            for r in members:
                if yields[r].compute > max_compute:
                    max_compute = yields[r].compute
                    max_phases = yields[r].by_phase

            group_comm = cost.comm_seconds + cost.compute_seconds
            if scope == "global":
                self.trace.append(
                    SuperstepRecord(
                        index=step,
                        op=first.op,
                        phase=yields[members[0]].phase,
                        compute_by_phase=max_phases,
                        comm_seconds=group_comm,
                        nbytes=cost.nbytes,
                        messages=cost.messages,
                        endpoints=cost.endpoints,
                    )
                )
            elif group_comm + max_compute > sweep_comm + sweep_compute:
                sweep_comm = group_comm
                sweep_compute = max_compute
                sweep_phases = max_phases
                sweep_op = f"node:{first.op}"
                sweep_phase = yields[members[0]].phase
                sweep_endpoints = cost.endpoints

            for i, r in enumerate(members):
                results[r] = resolved.results[i]

        if sweep_op:
            self.trace.append(
                SuperstepRecord(
                    index=step,
                    op=sweep_op,
                    phase=sweep_phase,
                    compute_by_phase=sweep_phases,
                    comm_seconds=sweep_comm,
                    nbytes=0,
                    messages=0,
                    endpoints=sweep_endpoints,
                )
            )
        self.step += 1
        return results

    # ------------------------------------------------------------------ #
    def record_final(
        self,
        drains: Sequence[tuple[float, dict[str, float]]],
        fallback_phase: str = _DEFAULT_PHASE,
    ) -> None:
        """Record trailing computation after the last collective.

        ``drains`` holds every rank's final ``(compute, by_phase)`` drain
        in rank order; ``fallback_phase`` labels the record when no
        compute was charged anywhere (rank 0's final phase).
        """
        max_compute = 0.0
        max_phases: dict[str, float] = {}
        for pending, by_phase in drains:
            if pending > max_compute:
                max_compute, max_phases = pending, by_phase
        if max_compute > 0.0:
            if max_phases:
                phase = max(max_phases.items(), key=lambda kv: kv[1])[0]
            else:
                phase = fallback_phase
            self.trace.append(
                SuperstepRecord(
                    index=self.step,
                    op="__final__",
                    phase=phase,
                    compute_by_phase=max_phases,
                    comm_seconds=0.0,
                    nbytes=0,
                    messages=0,
                    endpoints=self.nprocs,
                )
            )

    def result(self, returns: list[Any]) -> RunResult:
        """Package the accumulated trace/stats into a :class:`RunResult`."""
        return RunResult(
            returns=returns,
            trace=self.trace,
            stats=self.stats,
            makespan=self.trace.makespan,
        )


def _rank_steps(
    engine: "BSPEngine",
    ranks: Sequence[int],
    rank_args: Sequence[tuple],
    program: Program,
    shared_kwargs: dict[str, Any],
) -> Generator[dict[int, Any], dict[int, Any], dict[int, Any]]:
    """Advance a block of ranks to their next yield, sweep after sweep.

    The one place rank generators run.  Each sweep that leaves some rank
    waiting on a collective yields one batch ``{rank: RankYield |
    RankDone}`` and is ``send()``-ed the broker's ``{rank: resume
    value}`` for the waiting ranks.  The *returned* batch is the last and
    awaits no reply: every rank is done, or one carries a
    :class:`RankFailed` (a failure ends the block at once).
    """
    ctxs: dict[int, Context] = {}
    gens: dict[int, Any] = {}
    for rank, args in zip(ranks, rank_args):
        ctx = Context(engine, rank)
        try:
            gen = program(ctx, *args, **shared_kwargs)
            if not hasattr(gen, "send"):
                raise BSPError(_NOT_A_GENERATOR)
        except BaseException as exc:
            return {rank: RankFailed(exc)}
        ctxs[rank] = ctx
        gens[rank] = gen

    resume: dict[int, Any] = dict.fromkeys(ranks)
    active = list(ranks)
    ops: dict[int, str] = {}
    sweep_index = 0
    while True:
        batch: dict[int, Any] = {}
        waiting: list[int] = []
        for r in active:
            ctx = ctxs[r]
            ctx._seg_start = perf_counter()
            try:
                request = gens[r].send(resume[r])
            except StopIteration as stop:
                ctx._seg_mark()
                pending, by_phase = ctx._drain_compute()
                batch[r] = RankDone(
                    stop.value,
                    ctx._phase,
                    pending,
                    by_phase,
                    ctx.segments,
                    ctx.wait_segments,
                )
                continue
            except BaseException as exc:
                batch[r] = RankFailed(exc)
                return batch
            ctx._seg_mark()
            if not isinstance(request, _Call):
                batch[r] = RankFailed(_bad_yield(r, request))
                return batch
            pending, by_phase = ctx._drain_compute()
            batch[r] = RankYield(request, ctx._phase, pending, by_phase)
            ops[r] = request.op
            waiting.append(r)
            resume[r] = None
        if not waiting:
            return batch
        wait_start = perf_counter()
        results = yield batch
        wait_end = perf_counter()
        for r in waiting:
            # Every live worker joins every broker sweep, so this local
            # counter indexes the same global rendezvous on all workers —
            # the flow-connection key.
            ctxs[r].wait_segments.append(
                (ops[r], wait_start, wait_end, sweep_index)
            )
        sweep_index += 1
        resume.update(results)
        # Drop the transport's references: the ranks hold what they need.
        results.clear()
        active = waiting


def _broker_loop(
    engine: "BSPEngine",
    assignment: list[list[int]],
    recv: Callable[[int], dict[int, Any]],
    send: Callable[[int, dict[int, Any]], Any],
    *,
    backend: str,
    start: float,
) -> RunResult:
    """Resolve complete sweeps of worker ``i``'s ``recv(i)`` batches.

    The one place sweeps are resolved.  Collects one batch from every
    worker with live ranks (``assignment[i]`` lists worker ``i``'s
    ranks), resolves the sweep in rank order through
    :class:`SuperstepResolver`, and ``send(i, ...)``s each worker its
    ranks' resume values.  A :class:`RankFailed` re-raises at once; a
    worker whose transport hits EOF died.
    """
    p = engine.nprocs
    resolver = SuperstepResolver(engine.cost_model, engine.node_layout, p)
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
            # Drop the payloads now: an inline recv runs the ranks' next
            # compute before this name would be rebound.
            batch = None
        if not yields:
            break
        results = resolver.resolve_sweep(yields, finished)
        for i, ranks in live.items():
            if ranks:
                send(i, {r: results[r] for r in ranks})
        results = None  # likewise, before the next sweep's recv

    resolver.record_final(
        [(final[r].compute, final[r].by_phase) for r in range(p)],
        fallback_phase=final[0].phase,
    )
    # Rank timestamps come from ``perf_counter`` (CLOCK_MONOTONIC — one
    # machine-wide clock, comparable across processes); rebased on the
    # run's start, the measured timeline begins at zero.
    result = resolver.result(returns)
    result.compute_segments = tuple(
        [
            (phase, t0 - start, t1 - start)
            for phase, t0, t1 in final[r].segments
        ]
        for r in range(p)
    )
    result.wait_segments = tuple(
        [
            (op, t0 - start, t1 - start, sweep)
            for op, t0, t1, sweep in final[r].wait_segments
        ]
        for r in range(p)
    )
    result.measured = _measured(result, backend, len(assignment), start)
    return result


def _measured(
    result: RunResult, backend: str, workers: int, start: float
) -> Measured:
    """Every :class:`Measured` total, derived from the result's segments."""
    rank_compute: list[float] = []
    phase_wall: dict[str, float] = {}
    for segments in result.compute_segments:
        by_phase: dict[str, float] = {}
        total = 0.0
        for phase, t0, t1 in segments:
            seconds = t1 - t0
            total += seconds
            by_phase[phase] = by_phase.get(phase, 0.0) + seconds
        rank_compute.append(total)
        for phase, seconds in by_phase.items():
            if seconds > phase_wall.get(phase, 0.0):
                phase_wall[phase] = seconds
    return Measured(
        backend=backend,
        workers=workers,
        wall_s=perf_counter() - start,
        rank_compute_s=tuple(rank_compute),
        rank_comm_wait_s=tuple(
            sum(t1 - t0 for _, t0, t1, _ in waits)
            for waits in result.wait_segments
        ),
        phase_wall_s=phase_wall,
    )


class BSPEngine:
    """Runs SPMD programs over ``nprocs`` simulated ranks.

    Also the run description every backend builds (rank count, machine,
    node layout, cost model) and the one its rank contexts read.
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineSpec | None = None,
        node_layout: NodeLayout | None = None,
    ) -> None:
        if nprocs < 1:
            raise BSPError(f"need at least one rank, got {nprocs}")
        self.nprocs = nprocs
        if machine is None:
            # Lazy import: the registry layer sits above the BSP substrate.
            from repro.machines import get_machine

            machine = get_machine("laptop")
        self.machine = machine
        # An explicit layout wins; a multicore machine defaults to the
        # block-wise layout, a single-core machine to none.
        if node_layout is None and machine.cores_per_node > 1:
            node_layout = NodeLayout(nprocs, machine.cores_per_node)
        self.node_layout = node_layout
        self.cost_model = CostModel(self.machine, nprocs, self.node_layout)

    # ------------------------------------------------------------------ #
    def run(
        self,
        program: Program,
        rank_args: Sequence[tuple] | None = None,
        **shared_kwargs: Any,
    ) -> RunResult:
        """Execute ``program`` on every rank and return the joint result.

        The shared broker loop drives one block of all ranks inline: no
        thread, no queue — ``recv`` advances the rank steps directly.

        Parameters
        ----------
        program:
            Generator function ``program(ctx, *args, **shared_kwargs)``.
        rank_args:
            Optional per-rank positional arguments (length ``nprocs``).
        shared_kwargs:
            Keyword arguments passed identically to every rank.
        """
        p = self.nprocs
        if rank_args is None:
            rank_args = [()] * p
        if len(rank_args) != p:
            raise BSPError(
                f"rank_args has length {len(rank_args)}, expected {p}"
            )
        start = perf_counter()
        ranks = list(range(p))
        steps = _rank_steps(self, ranks, rank_args, program, shared_kwargs)
        reply: dict[int, Any] | None = None

        def recv(_: int) -> dict[int, Any]:
            try:
                return steps.send(reply)
            except StopIteration as stop:
                return stop.value

        def send(_: int, results: dict[int, Any]) -> None:
            nonlocal reply
            reply = results

        return _broker_loop(
            self, [ranks], recv, send,
            backend="simulated", start=start,
        )
