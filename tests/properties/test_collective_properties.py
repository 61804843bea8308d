"""Property-based tests for collective algebra on the BSP engine.

Classic identities: gather∘scatter = id, allreduce = reduce; bcast,
alltoall conservation, scan prefix property — under random payload shapes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bsp import BSPEngine

COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def rank_values(draw, max_ranks=8):
    p = draw(st.integers(1, max_ranks))
    values = draw(
        st.lists(st.integers(-(2**31), 2**31), min_size=p, max_size=p)
    )
    return p, values


class TestIdentities:
    @given(rank_values())
    @settings(**COMMON)
    def test_scatter_gather_roundtrip(self, data):
        p, values = data

        def program(ctx):
            chunk = yield from ctx.scatter(
                list(values) if ctx.rank == 0 else None, root=0
            )
            back = yield from ctx.gather(chunk, root=0)
            return back

        res = BSPEngine(p).run(program)
        assert res.returns[0] == values

    @given(rank_values())
    @settings(**COMMON)
    def test_allreduce_equals_reduce_then_bcast(self, data):
        p, values = data

        def program(ctx):
            a = yield from ctx.allreduce(values[ctx.rank])
            r = yield from ctx.reduce(values[ctx.rank], root=0)
            b = yield from ctx.bcast(r, root=0)
            return a, b

        res = BSPEngine(p).run(program)
        for a, b in res.returns:
            assert a == b == sum(values)

    @given(rank_values())
    @settings(**COMMON)
    def test_scan_last_equals_allreduce(self, data):
        p, values = data

        def program(ctx):
            s = yield from ctx.scan(values[ctx.rank])
            total = yield from ctx.allreduce(values[ctx.rank])
            return s, total

        res = BSPEngine(p).run(program)
        assert res.returns[-1][0] == res.returns[-1][1]
        # And scan is the prefix sum at every rank.
        for r, (s, _) in enumerate(res.returns):
            assert s == sum(values[: r + 1])

    @given(rank_values(max_ranks=6), st.integers(0, 2**31))
    @settings(**COMMON)
    def test_alltoall_is_an_involution(self, data, seed):
        p, _ = data
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 100, (p, p))

        def program(ctx):
            ones = [1] * ctx.nprocs
            (once,) = yield from ctx.alltoallv(ones, matrix[ctx.rank])
            (twice,) = yield from ctx.alltoallv(ones, once)
            return twice

        res = BSPEngine(p).run(program)
        for r in range(p):
            assert list(res.returns[r]) == list(matrix[r])

    @given(rank_values())
    @settings(**COMMON)
    def test_allgather_equals_gather_plus_bcast(self, data):
        p, values = data

        def program(ctx):
            ag = yield from ctx.allgather(values[ctx.rank])
            g = yield from ctx.gather(values[ctx.rank], root=0)
            gb = yield from ctx.bcast(g, root=0)
            return ag, gb

        res = BSPEngine(p).run(program)
        for ag, gb in res.returns:
            assert ag == gb == values

    @given(rank_values(max_ranks=6))
    @settings(**COMMON)
    def test_min_max_reductions(self, data):
        p, values = data

        def program(ctx):
            lo = yield from ctx.allreduce(values[ctx.rank], op="min")
            hi = yield from ctx.allreduce(values[ctx.rank], op="max")
            return lo, hi

        res = BSPEngine(p).run(program)
        assert res.returns[0] == (min(values), max(values))
