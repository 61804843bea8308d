"""Tests for superstep traces and phase breakdowns."""

import pytest

from repro.bsp.trace import PhaseBreakdown, SuperstepRecord, Trace


def record(op="bcast", phase="work", compute=None, comm=2.0, nbytes=10, messages=3):
    return SuperstepRecord(
        index=0,
        op=op,
        phase=phase,
        compute_by_phase=compute if compute is not None else {"work": 1.0},
        comm_seconds=comm,
        nbytes=nbytes,
        messages=messages,
        endpoints=4,
    )


class TestSuperstepRecord:
    def test_totals(self):
        r = record(compute={"a": 1.0, "b": 0.5}, comm=2.0)
        assert r.compute_seconds == pytest.approx(1.5)
        assert r.total_seconds == pytest.approx(3.5)


class TestTrace:
    def test_makespan_sums(self):
        t = Trace()
        t.append(record())
        t.append(record(comm=5.0))
        assert t.makespan == pytest.approx(1.0 + 2.0 + 1.0 + 5.0)

    def test_breakdown_splits_compute_and_comm(self):
        t = Trace()
        t.append(record(phase="comm-phase", compute={"cpu-phase": 1.0}, comm=2.0))
        b = t.breakdown()
        assert b.compute["cpu-phase"] == pytest.approx(1.0)
        assert b.comm["comm-phase"] == pytest.approx(2.0)
        assert b.total() == pytest.approx(3.0)

    def test_counting(self):
        t = Trace()
        t.append(record(op="bcast"))
        t.append(record(op="reduce"))
        t.append(record(op="bcast"))
        assert t.count_collectives() == 3
        assert t.count_collectives("bcast") == 2
        assert t.total_bytes() == 30
        assert t.total_messages() == 9

    def test_final_marker_not_counted(self):
        t = Trace()
        t.append(record(op="__final__"))
        assert t.count_collectives() == 0

    def test_iteration_and_len(self):
        t = Trace()
        t.append(record())
        assert len(t) == 1
        assert [r.op for r in t] == ["bcast"]


class TestPhaseBreakdown:
    def test_add_and_total(self):
        b = PhaseBreakdown()
        b.add("x", 1.0, 2.0)
        b.add("x", 0.5, 0.0)
        assert b.total("x") == pytest.approx(3.5)

    def test_phase_order_preserved(self):
        b = PhaseBreakdown()
        b.add("later", 0, 1)
        b.add("earlier", 1, 0)
        assert b.phases() == ["later", "earlier"]

    def test_merged(self):
        a = PhaseBreakdown({"x": 1.0}, {"x": 2.0})
        c = a.merged(PhaseBreakdown({"x": 1.0, "y": 3.0}, {}))
        assert c.total("x") == pytest.approx(4.0)
        assert c.total("y") == pytest.approx(3.0)
        assert a.total("x") == pytest.approx(3.0)  # original untouched

    def test_table_renders(self):
        b = PhaseBreakdown()
        b.add("phase-one", 1.0, 2.0)
        text = b.table()
        assert "phase-one" in text
        assert "TOTAL" in text


class TestEngineTraceAccounting:
    """Trace/CommStats accounting driven through the real engine, on
    machines resolved from the named-topology registry path."""

    @staticmethod
    def _program(ctx, value):
        with ctx.phase("alpha"):
            ctx.charge_compare(100)
            yield from ctx.bcast(value, root=0)
            yield from ctx.gather(value, root=0)
        with ctx.phase("beta"):
            yield from ctx.bcast(value, root=0)
            yield from ctx.barrier()
        return value

    def _run(self, machine_name):
        from repro.bsp import BSPEngine
        from repro.machines import get_machine

        engine = BSPEngine(4, machine=get_machine(machine_name))
        return engine.run(self._program, rank_args=[(r,) for r in range(4)])

    def test_by_op_counts_every_collective(self):
        res = self._run("dragonfly-hpc")
        assert res.stats.by_op == {"bcast": 2, "gather": 1, "barrier": 1}
        assert res.stats.collectives == 4

    def test_by_op_agrees_with_trace_counts(self):
        res = self._run("mira-like-bgq")
        for op, count in res.stats.by_op.items():
            assert res.trace.count_collectives(op) == count
        assert res.trace.count_collectives() == res.stats.collectives

    def test_stats_totals_agree_with_trace(self):
        res = self._run("cloud-ethernet")
        assert res.stats.bytes == res.trace.total_bytes()
        assert res.stats.messages == res.trace.total_messages()
        assert res.stats.comm_seconds == pytest.approx(
            sum(r.comm_seconds for r in res.trace.records)
        )

    def test_breakdown_attributes_compute_to_the_charging_phase(self):
        res = self._run("fat-tree-hpc")
        b = res.breakdown()
        assert set(b.phases()) >= {"alpha", "beta"}
        # All 100 comparisons were charged under "alpha".
        assert b.compute.get("beta", 0.0) == 0.0
        assert b.compute["alpha"] > 0.0
        assert res.makespan == pytest.approx(b.total())

    def test_contention_separates_topologies(self):
        # Same program, same scalars, different named topology: the torus
        # machine must not price identically to its flat-crossbar twin.
        from repro.bsp import BSPEngine
        from repro.machines import get_machine
        import numpy as np

        def exchange_heavy(ctx, chunk):
            # The same chunk to every rank.
            counts = [len(chunk)] * ctx.nprocs
            yield from ctx.alltoallv(counts, np.tile(chunk, ctx.nprocs))
            return None

        def run_on(topology, params):
            spec = get_machine("mira-like-bgq").override(
                topology=topology, topology_params=params,
                cores_per_node=1,
            )
            engine = BSPEngine(64, machine=spec)
            chunk = np.arange(256, dtype=np.int64)
            return engine.run(
                exchange_heavy, rank_args=[(chunk,)] * 64
            )

        torus = run_on("torus", {"dims": 2, "base_endpoints": 4})
        flat = run_on("fully-connected", {})
        assert torus.stats.by_op == flat.stats.by_op == {"alltoallv": 1}
        assert torus.stats.bytes == flat.stats.bytes
        assert torus.makespan > flat.makespan
