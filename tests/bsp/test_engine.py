"""Tests for the BSP SPMD engine: rendezvous, SPMD checks, cost accounting."""

import numpy as np
import pytest

from repro.bsp import BSPEngine
from repro.machines import get_machine
from repro.errors import BSPError, CollectiveMismatchError, DeadlockError

LAPTOP = get_machine("laptop")


def run(engine, program, args=None, **kw):
    return engine.run(program, rank_args=args, **kw)


class TestBasics:
    def test_returns_per_rank(self):
        def program(ctx):
            yield from ctx.barrier()
            return ctx.rank * 10

        res = run(BSPEngine(4), program)
        assert res.returns == [0, 10, 20, 30]

    def test_single_rank(self):
        def program(ctx):
            total = yield from ctx.allreduce(5)
            return total

        assert run(BSPEngine(1), program).returns == [5]

    def test_no_collectives_program(self):
        def program(ctx):
            ctx.charge_seconds(1e-6)
            return ctx.rank
            yield  # pragma: no cover — makes this a generator

        res = run(BSPEngine(3), program)
        assert res.returns == [0, 1, 2]
        assert res.makespan >= 1e-6

    def test_rank_args(self):
        def program(ctx, a, b):
            s = yield from ctx.allreduce(a + b)
            return s

        res = run(BSPEngine(2), program, args=[(1, 2), (3, 4)])
        assert res.returns == [10, 10]

    def test_shared_kwargs(self):
        def program(ctx, *, offset):
            yield from ctx.barrier()
            return ctx.rank + offset

        res = BSPEngine(2).run(program, offset=100)
        assert res.returns == [100, 101]

    def test_plain_function_rejected(self):
        def not_a_generator(ctx):
            return 1

        with pytest.raises(BSPError, match="generator"):
            run(BSPEngine(2), not_a_generator)

    def test_wrong_rank_args_length(self):
        def program(ctx):
            yield from ctx.barrier()

        with pytest.raises(BSPError, match="length"):
            run(BSPEngine(3), program, args=[()])

    def test_zero_ranks_rejected(self):
        with pytest.raises(BSPError):
            BSPEngine(0)


class TestCollectiveSemantics:
    def test_bcast_gather_roundtrip(self):
        def program(ctx):
            value = yield from ctx.bcast(
                "hello" if ctx.rank == 0 else None, root=0
            )
            gathered = yield from ctx.gather(ctx.rank, root=0)
            return value, gathered

        res = run(BSPEngine(3), program)
        assert res.returns[1][0] == "hello"
        assert res.returns[0][1] == [0, 1, 2]
        assert res.returns[2][1] is None

    def test_allreduce_array(self):
        def program(ctx):
            out = yield from ctx.allreduce(np.full(3, ctx.rank))
            return out

        res = run(BSPEngine(4), program)
        assert np.array_equal(res.returns[2], np.full(3, 6))

    def test_scan(self):
        def program(ctx):
            out = yield from ctx.scan(1)
            return out

        assert run(BSPEngine(5), program).returns == [1, 2, 3, 4, 5]

    def test_scatter(self):
        def program(ctx):
            chunk = yield from ctx.scatter(
                list(range(100, 104)) if ctx.rank == 0 else None, root=0
            )
            return chunk

        assert run(BSPEngine(4), program).returns == [100, 101, 102, 103]

    def test_alltoall(self):
        def program(ctx):
            rows = np.array([ctx.rank * 10 + dst for dst in range(ctx.nprocs)])
            (out,) = yield from ctx.alltoallv([1] * ctx.nprocs, rows)
            return out.tolist()

        res = run(BSPEngine(3), program)
        assert res.returns[1] == [1, 11, 21]

    def test_exchange(self):
        def program(ctx):
            partner = ctx.rank ^ 1
            theirs = yield from ctx.exchange(partner, ctx.rank * 2)
            return theirs

        assert run(BSPEngine(4), program).returns == [2, 0, 6, 4]


class TestSPMDEnforcement:
    def test_mismatched_ops(self):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.barrier()
            else:
                yield from ctx.allreduce(1)

        with pytest.raises(CollectiveMismatchError):
            run(BSPEngine(2), program)

    def test_mismatched_roots(self):
        def program(ctx):
            yield from ctx.bcast(1, root=ctx.rank % 2)

        with pytest.raises(CollectiveMismatchError):
            run(BSPEngine(2), program)

    def test_early_finisher_deadlocks(self):
        def program(ctx):
            if ctx.rank == 0:
                return 0
            yield from ctx.barrier()
            return 1

        with pytest.raises(DeadlockError, match="finished"):
            run(BSPEngine(3), program)

    def test_yielding_garbage_rejected(self):
        def program(ctx):
            yield "not a call"

        with pytest.raises(BSPError, match="yield"):
            run(BSPEngine(2), program)

    def test_rank_exception_propagates(self):
        class Boom(RuntimeError):
            pass

        def program(ctx):
            yield from ctx.barrier()
            if ctx.rank == 1:
                raise Boom("rank 1 failed")
            yield from ctx.barrier()

        with pytest.raises(Boom):
            run(BSPEngine(2), program)


class TestStructuredDiagnostics:
    """SPMD violations name the superstep and the ranks involved.

    The chaos backend leans on these fields to attribute injected
    faults; the service layer's structured error replies lean on the
    message text.  Both the prose and the machine-readable attributes
    are pinned here.
    """

    def test_deadlock_names_superstep_and_rank_sets(self):
        def program(ctx):
            yield from ctx.barrier()
            if ctx.rank == 2:
                return "early"
            yield from ctx.allreduce(1)

        with pytest.raises(DeadlockError) as info:
            run(BSPEngine(4), program)
        message = str(info.value)
        assert message.startswith("superstep 1: ")
        assert "ranks [2] finished" in message
        assert "ranks [0, 1, 3] wait on 'allreduce'" in message
        assert "not SPMD" in message
        assert info.value.superstep == 1
        assert info.value.finished_ranks == (2,)
        assert info.value.stuck_ranks == (0, 1, 3)

    def test_mismatch_names_superstep_and_disagreeing_ranks(self):
        def program(ctx):
            if ctx.rank == 1:
                yield from ctx.gather(1, root=0)
            else:
                yield from ctx.bcast(1, root=0)

        with pytest.raises(CollectiveMismatchError) as info:
            run(BSPEngine(3), program)
        assert "disagreeing ranks [1]" in str(info.value)
        assert info.value.superstep == 0
        assert 1 in info.value.ranks

    def test_mismatched_roots_report_disagreement(self):
        def program(ctx):
            yield from ctx.bcast(1, root=ctx.rank % 2)

        with pytest.raises(CollectiveMismatchError) as info:
            run(BSPEngine(4), program)
        assert info.value.superstep == 0
        assert info.value.ranks  # the minority root holders are named


class TestCostAccounting:
    def test_compute_charges_appear_in_makespan(self):
        def program(ctx):
            ctx.charge_seconds(1e-3)
            yield from ctx.barrier()

        res = run(BSPEngine(2), program)
        assert res.makespan >= 1e-3

    def test_superstep_takes_max_not_sum(self):
        def program(ctx):
            ctx.charge_seconds(1e-3 if ctx.rank == 0 else 1e-6)
            yield from ctx.barrier()

        res = run(BSPEngine(4), program)
        compute = sum(r.compute_seconds for r in res.trace)
        assert 1e-3 <= compute < 1.5e-3

    def test_negative_charge_rejected(self):
        def program(ctx):
            ctx.charge_seconds(-1.0)
            yield from ctx.barrier()

        with pytest.raises(BSPError, match="negative"):
            run(BSPEngine(1), program)

    def test_phase_attribution(self):
        def program(ctx):
            with ctx.phase("alpha"):
                ctx.charge_seconds(1e-4)
                yield from ctx.barrier()
            with ctx.phase("beta"):
                ctx.charge_seconds(2e-4)
            yield from ctx.barrier()

        res = run(BSPEngine(2), program)
        breakdown = res.breakdown()
        assert breakdown.compute["alpha"] == pytest.approx(1e-4)
        assert breakdown.compute["beta"] == pytest.approx(2e-4)

    def test_charge_helpers_scale_with_machine(self):
        def program(ctx):
            ctx.charge_sort(1000)
            ctx.charge_merge(1000, 4)
            ctx.charge_binary_searches(10, 1000)
            yield from ctx.barrier()

        res = run(BSPEngine(1, machine=LAPTOP), program)
        assert res.makespan > 0

    def test_message_and_byte_stats(self):
        def program(ctx):
            yield from ctx.bcast(np.zeros(100, np.int64), root=0)

        res = run(BSPEngine(4), program)
        assert res.stats.collectives == 1
        assert res.stats.messages == 3
        assert res.stats.bytes == 800 * 3

    def test_trailing_compute_recorded(self):
        def program(ctx):
            yield from ctx.barrier()
            with ctx.phase("tail"):
                ctx.charge_seconds(5e-4)

        res = run(BSPEngine(2), program)
        assert res.breakdown().compute.get("tail", 0) == pytest.approx(5e-4)


class TestNodeCommunicators:
    def engine(self, p=8, cores=4):
        return BSPEngine(p, machine=LAPTOP.override(cores_per_node=cores))

    def test_node_allreduce(self):
        def program(ctx):
            node = ctx.node_comm()
            s = yield from node.allreduce(ctx.rank)
            return node.node, s

        res = run(self.engine(), program)
        assert res.returns[0] == (0, 0 + 1 + 2 + 3)
        assert res.returns[7] == (1, 4 + 5 + 6 + 7)

    def test_node_local_ranks(self):
        def program(ctx):
            node = ctx.node_comm()
            yield from node.barrier()
            return node.rank, node.nprocs, node.global_rank

        res = run(self.engine(6, 4), program)
        assert res.returns[5] == (1, 2, 5)  # last node has 2 cores

    def test_node_gather_rooted_at_leader(self):
        def program(ctx):
            node = ctx.node_comm()
            got = yield from node.gather(ctx.rank, root=0)
            return got

        res = run(self.engine(), program)
        assert res.returns[0] == [0, 1, 2, 3]
        assert res.returns[4] == [4, 5, 6, 7]
        assert res.returns[1] is None

    def test_node_collectives_inject_no_network_messages(self):
        def program(ctx):
            node = ctx.node_comm()
            yield from node.allreduce(1)

        res = run(self.engine(), program)
        assert res.stats.messages == 0
        assert res.stats.bytes == 0

    def test_node_scope_is_concurrent_across_nodes(self):
        def program(ctx):
            node = ctx.node_comm()
            ctx.charge_seconds(1e-3)
            yield from node.barrier()

        res = run(self.engine(8, 4), program)
        # Two node groups, same sweep: makespan counts the max, not 2x.
        compute = sum(r.compute_seconds for r in res.trace)
        assert compute == pytest.approx(1e-3)

    def test_global_and_node_mix_in_same_sweep_rejected(self):
        def program(ctx):
            if ctx.rank < 4:
                node = ctx.node_comm()
                yield from node.barrier()
            else:
                yield from ctx.barrier()

        with pytest.raises((CollectiveMismatchError, DeadlockError)):
            run(self.engine(), program)

    def test_node_comm_requires_layout(self):
        def program(ctx):
            node = ctx.node_comm()
            yield from node.barrier()

        eng = BSPEngine(4, machine=LAPTOP.override(cores_per_node=1))
        with pytest.raises(BSPError, match="NodeLayout"):
            run(eng, program)

    def test_node_charges_flow_to_parent(self):
        def program(ctx):
            node = ctx.node_comm()
            with ctx.phase("inner"):
                node.charge_seconds(1e-4)
            yield from ctx.barrier()

        res = run(self.engine(), program)
        assert res.breakdown().compute["inner"] == pytest.approx(1e-4)
