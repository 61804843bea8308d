"""Property-based tests for the two-level node sort (§6.1).

Random rank counts, node widths and shard sizes — including ragged last
nodes and single-node machines — must always yield a sorted permutation
within the combined load bound.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bsp import BSPEngine
from repro.bsp.node import NodeLayout
from repro.core.config import HSSConfig
from repro.core.node_sort import combined_eps, hss_node_sort_program
from repro.machines import get_machine
from repro.metrics import verify_sorted_output

LAPTOP = get_machine("laptop")

COMMON = dict(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def node_worlds(draw):
    p = draw(st.integers(2, 12))
    cores = draw(st.integers(1, 6))
    n_per = draw(st.integers(50, 400))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    shards = [rng.integers(0, 2**60, n_per) for _ in range(p)]
    return p, cores, shards


class TestNodeSortContract:
    @given(node_worlds())
    @settings(**COMMON)
    def test_sorted_permutation_balanced(self, world):
        p, cores, shards = world
        engine = BSPEngine(
            p,
            machine=LAPTOP.override(cores_per_node=cores),
            node_layout=NodeLayout(p, cores),
        )
        cfg = HSSConfig(eps=0.2, within_node_eps=0.2, node_level=True, seed=3)
        res = engine.run(
            hss_node_sort_program, rank_args=[(x,) for x in shards], cfg=cfg
        )
        outs = [r[0].keys for r in res.returns]
        verify_sorted_output(shards, outs, combined_eps(0.2, 0.2))

    @given(node_worlds())
    @settings(**COMMON)
    def test_within_node_traffic_never_on_network(self, world):
        p, cores, shards = world
        engine = BSPEngine(
            p,
            machine=LAPTOP.override(cores_per_node=cores),
            node_layout=NodeLayout(p, cores),
        )
        cfg = HSSConfig(eps=0.2, within_node_eps=0.2, node_level=True, seed=5)
        res = engine.run(
            hss_node_sort_program, rank_args=[(x,) for x in shards], cfg=cfg
        )
        for record in res.trace.records:
            if record.op.startswith("node:"):
                assert record.nbytes == 0 and record.messages == 0
