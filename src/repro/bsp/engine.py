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

:class:`BSPEngine` instantiates one generator per simulated rank and advances
them in lockstep.  When every live rank has yielded its next collective
request, the engine checks SPMD consistency (same op, same root — the
simulated analogue of MPI's matching rules), resolves the data movement with
:mod:`repro.bsp.collectives`, prices the superstep with
:mod:`repro.bsp.cost_model`, and resumes each rank with its result.

Computation between collectives is *charged* explicitly (``ctx.charge_sort``,
``ctx.charge_compare`` ...) against the machine model, following the paper's
convention of counting key comparisons (``T_I``) and bytes moved.  Charged
time accumulates per rank; at each rendezvous the superstep's compute cost is
the *maximum* over ranks, exactly as in Valiant's BSP accounting.

Determinism: rank programs run in rank order within each scheduling sweep and
all randomness comes from caller-provided seeded generators, so a run is a
pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterator, Mapping, Sequence

from repro.bsp import collectives as coll
from repro.bsp.cost_model import CommStats, CostModel
from repro.bsp.machine import MachineModel
from repro.bsp.node import NodeLayout
from repro.bsp.trace import SuperstepRecord, Trace
from repro.errors import BSPError, CollectiveMismatchError, DeadlockError

__all__ = [
    "Context",
    "NodeContext",
    "BSPEngine",
    "RunResult",
    "Program",
    "RankYield",
    "SuperstepResolver",
    "default_node_layout",
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
    """Context manager produced by :meth:`Context.phase`."""

    __slots__ = ("_ctx", "_name", "_prev")

    def __init__(self, ctx: "Context", name: str) -> None:
        self._ctx = ctx
        self._name = name
        self._prev = ""

    def __enter__(self) -> "_PhaseScope":
        self._prev = self._ctx._phase
        self._ctx._phase = self._name
        return self

    def __exit__(self, *exc: object) -> None:
        self._ctx._phase = self._prev


class Context:
    """Per-rank handle a program uses for communication and cost charging."""

    _group: tuple = ("global",)

    def __init__(self, engine: "BSPEngine", rank: int) -> None:
        self._engine = engine
        self.rank = rank
        self.nprocs = engine.nprocs
        self._phase = _DEFAULT_PHASE
        self._pending_compute = 0.0  # seconds since last rendezvous
        self._pending_by_phase: dict[str, float] = {}

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
    def machine(self) -> MachineModel:
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

    def alltoall(
        self, values: Sequence[Any], node_combining: bool = False
    ) -> Generator[Any, Any, list[Any]]:
        """Personalized all-to-all: ``values[j]`` goes to rank ``j``.

        With ``node_combining=True`` the superstep is *priced* as if per-node
        message combining (§6.1.1) were applied; data semantics are identical.
        """
        result = yield _Call(
            "alltoallv", values, node_combining=node_combining, group=self._group
        )
        return result

    def exchange(self, partner: int, value: Any) -> Generator[Any, Any, Any]:
        """Symmetric pairwise exchange with ``partner`` (for bitonic sort)."""
        result = yield _Call("exchange", value, partner=partner, group=self._group)
        return result

    # ------------------------------------------------------------ internal
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


@dataclass
class RunResult:
    """Outcome of one :meth:`BSPEngine.run` (or any runtime backend)."""

    returns: list[Any]
    trace: Trace
    stats: CommStats
    makespan: float
    #: Real wall-clock measurements attached by the runtime layer
    #: (:class:`repro.runtime.Measured`), or None for a bare engine run.
    #: Modeled fields above are bit-identical across backends; this block
    #: is the only backend-dependent part of a result.
    measured: Any = None

    def breakdown(self):
        """Phase breakdown of the modeled execution time."""
        return self.trace.breakdown()


def default_node_layout(
    machine: MachineModel, nprocs: int, node_layout: NodeLayout | None = None
) -> NodeLayout | None:
    """The engine's node-layout rule, shared by every execution backend.

    An explicit layout wins; otherwise a multicore machine gets the
    block-wise :class:`NodeLayout` and a single-core machine gets none.
    """
    if node_layout is None and machine.cores_per_node > 1:
        return NodeLayout(nprocs, machine.cores_per_node)
    return node_layout


@dataclass
class RankYield:
    """One rank's contribution to a scheduling sweep.

    Captured at the moment the rank's generator yields: the collective
    request itself, the phase label active at the yield, and the compute
    charged since the previous rendezvous.  :class:`SuperstepResolver`
    consumes these — the in-process engine builds them from its
    :class:`Context` objects, the process backend's broker from worker
    messages, and the resolution is bit-identical either way.
    """

    call: _Call
    phase: str = _DEFAULT_PHASE
    compute: float = 0.0
    by_phase: dict[str, float] = field(default_factory=dict)


class SuperstepResolver:
    """The rendezvous core shared by every execution backend.

    Given one :class:`RankYield` per waiting rank, the resolver groups the
    requests, enforces the SPMD matching rules (raising
    :class:`CollectiveMismatchError` / :class:`DeadlockError` with the
    same messages regardless of backend), resolves the data movement,
    prices the superstep, and accumulates the trace and comm stats.
    :class:`BSPEngine` drives it in-process; the process backend's broker
    drives it from worker messages — modeled accounting cannot drift
    between the two because there is only one implementation.
    """

    def __init__(
        self,
        cost_model: CostModel,
        node_layout: NodeLayout | None,
        nprocs: int,
        trace_sink: Any = None,
    ) -> None:
        self.cost_model = cost_model
        self.node_layout = node_layout
        self.nprocs = nprocs
        self.trace = Trace()
        self.stats = CommStats()
        self.step = 0
        self.trace_sink = trace_sink
        self._span_clock = 0.0
        if trace_sink is not None:
            # Bound once: the per-record emission path must not pay an
            # import per superstep (and stays entirely off when no sink).
            from repro.telemetry.adapters import emit_superstep_spans

            self._emit_spans = emit_superstep_spans

    def _record(self, record: SuperstepRecord) -> None:
        """Append one superstep record, mirroring it to the span sink."""
        self.trace.append(record)
        if self.trace_sink is not None:
            self._span_clock = self._emit_spans(
                self.trace_sink, record, self._span_clock
            )

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
                self._record(
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
            self._record(
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
            self._record(
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
        if self.trace_sink is not None:
            from repro.telemetry.adapters import emit_run_span

            emit_run_span(
                self.trace_sink, self.trace.makespan, len(self.trace)
            )
        return RunResult(
            returns=returns,
            trace=self.trace,
            stats=self.stats,
            makespan=self.trace.makespan,
        )


class BSPEngine:
    """Runs SPMD programs over ``nprocs`` simulated ranks."""

    def __init__(
        self,
        nprocs: int,
        machine: MachineModel | None = None,
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
        self.node_layout = default_node_layout(self.machine, nprocs, node_layout)
        self.cost_model = CostModel(self.machine, nprocs, self.node_layout)

    # ------------------------------------------------------------------ #
    def run(
        self,
        program: Program,
        rank_args: Sequence[tuple] | None = None,
        trace_sink: Any = None,
        **shared_kwargs: Any,
    ) -> RunResult:
        """Execute ``program`` on every rank and return the joint result.

        Parameters
        ----------
        program:
            Generator function ``program(ctx, *args, **shared_kwargs)``.
        rank_args:
            Optional per-rank positional arguments (length ``nprocs``).
        trace_sink:
            Optional :class:`~repro.telemetry.TraceSink` receiving
            modeled superstep/phase spans as they resolve.  ``None``
            (the default) records nothing and allocates nothing.
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

        contexts = [Context(self, r) for r in range(p)]
        gens: list[Iterator[Any] | None] = []
        for r in range(p):
            gen = program(contexts[r], *rank_args[r], **shared_kwargs)
            if not hasattr(gen, "send"):
                raise BSPError(_NOT_A_GENERATOR)
            gens.append(gen)

        returns: list[Any] = [None] * p
        resume: list[Any] = [None] * p
        resolver = SuperstepResolver(
            self.cost_model, self.node_layout, p, trace_sink=trace_sink
        )

        # Ranks whose generators are still running.  The scheduling sweep
        # walks only this list, so ranks that returned early are never
        # re-scanned superstep after superstep (at large p the sweeps
        # dominate engine overhead).
        active: list[int] = list(range(p))
        finished: list[int] = []

        while active:
            yields: dict[int, RankYield] = {}
            waiting: list[int] = []
            for r in active:
                try:
                    request = gens[r].send(resume[r])
                except StopIteration as stop:
                    returns[r] = stop.value
                    gens[r] = None
                    finished.append(r)
                    continue
                if not isinstance(request, _Call):
                    raise _bad_yield(r, request)
                ctx = contexts[r]
                pending, by_phase = ctx._drain_compute()
                yields[r] = RankYield(request, ctx._phase, pending, by_phase)
                waiting.append(r)
                resume[r] = None
            active = waiting

            if not active:
                break

            for r, value in resolver.resolve_sweep(yields, finished).items():
                resume[r] = value

        # Trailing computation after the last collective.
        resolver.record_final(
            [ctx._drain_compute() for ctx in contexts],
            fallback_phase=contexts[0]._phase if contexts else _DEFAULT_PHASE,
        )
        return resolver.result(returns)
