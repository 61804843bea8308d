"""Tests for the alpha-beta collective cost model."""

import pytest

from repro.bsp.cost_model import CostModel
from repro.bsp.node import NodeLayout
from repro.errors import ConfigError
from repro.machines import MachineSpec, get_machine

MIRA_LIKE = get_machine("mira-like-bgq")
GENERIC_CLUSTER = get_machine("generic-cluster")
LAPTOP = get_machine("laptop")


def model(p=64, machine=None, layout=None):
    return CostModel(machine or LAPTOP, p, layout)


class TestPricingBasics:
    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            model().price("gossip", max_bytes=1, total_bytes=1)

    def test_barrier_latency_only(self):
        cost = model().price("barrier", max_bytes=0, total_bytes=0)
        assert cost.comm_seconds > 0
        assert cost.nbytes == 0

    def test_bcast_cost_grows_with_size(self):
        small = model().price("bcast", max_bytes=100, total_bytes=100)
        large = model().price("bcast", max_bytes=10**7, total_bytes=10**7)
        assert large.comm_seconds > small.comm_seconds

    def test_bcast_pipelined_beats_binomial_for_large(self):
        cost = model(p=1024).price("bcast", max_bytes=10**8, total_bytes=10**8)
        assert cost.algorithm == "pipelined"

    def test_bcast_picks_cheaper_algorithm(self):
        # Under pure alpha-beta formulas the pipelined variant dominates for
        # p > 4 (binomial pays S*beta per tree level); verify the model takes
        # the min rather than a fixed choice.
        m = LAPTOP
        cost = model(p=1024, machine=m).price("bcast", max_bytes=8, total_bytes=8)
        import math

        lg = math.log2(1024)
        binomial = (m.alpha + 8 * m.beta) * lg
        pipelined = m.alpha * lg + 2 * 8 * m.beta
        assert cost.comm_seconds == pytest.approx(min(binomial, pipelined))

    def test_reduce_charges_compute(self):
        cost = model().price("reduce", max_bytes=10**6, total_bytes=10**6)
        assert cost.compute_seconds > 0

    def test_gather_scales_with_total(self):
        small = model().price("gather", max_bytes=10, total_bytes=10 * 64)
        large = model().price("gather", max_bytes=10, total_bytes=10**7)
        assert large.comm_seconds > small.comm_seconds

    def test_monotone_in_p(self):
        costs = [
            CostModel(LAPTOP, p)
            .price("barrier", max_bytes=0, total_bytes=0)
            .comm_seconds
            for p in (2, 16, 256, 4096)
        ]
        assert costs == sorted(costs)


class TestAllToAll:
    def test_contention_on_torus(self):
        torus = MachineSpec(
            name="generic", topology="torus",
            topology_params={"dims": 3, "base_endpoints": 8},
        )
        flat = MachineSpec(name="generic", topology="fully-connected")
        big = 10**8
        c_torus = CostModel(torus, 4096).price(
            "alltoallv", max_bytes=big, total_bytes=big * 4096
        )
        c_flat = CostModel(flat, 4096).price(
            "alltoallv", max_bytes=big, total_bytes=big * 4096
        )
        assert c_torus.comm_seconds > c_flat.comm_seconds

    def test_bruck_chosen_for_small_messages(self):
        cost = model(p=4096).price("alltoallv", max_bytes=64, total_bytes=64 * 4096)
        assert cost.algorithm == "bruck"

    def test_pairwise_chosen_for_large_messages(self):
        cost = model(p=16).price(
            "alltoallv", max_bytes=10**8, total_bytes=16 * 10**8
        )
        assert cost.algorithm == "pairwise"

    def test_node_combining_reduces_messages(self):
        layout = NodeLayout(256, 16)
        cm = CostModel(MIRA_LIKE, 256, layout)
        combined = cm.price(
            "alltoallv", max_bytes=10**7, total_bytes=256 * 10**7, node_combining=True
        )
        separate = cm.price(
            "alltoallv", max_bytes=10**7, total_bytes=256 * 10**7, node_combining=False
        )
        assert combined.messages < separate.messages
        assert combined.endpoints == 16
        assert separate.endpoints == 256


class TestNodeScope:
    def test_node_scope_cheaper_than_network(self):
        cm = model(p=64)
        net = cm.price("allreduce", max_bytes=10**6, total_bytes=10**6)
        shm = cm.price(
            "allreduce", max_bytes=10**6, total_bytes=10**6, scope="node", group_size=8
        )
        assert shm.comm_seconds < net.comm_seconds

    def test_node_scope_zero_network_traffic(self):
        cost = model().price(
            "gather", max_bytes=100, total_bytes=800, scope="node", group_size=8
        )
        assert cost.messages == 0 and cost.nbytes == 0
        assert cost.algorithm == "shared-memory"

    def test_node_scope_requires_group_size(self):
        with pytest.raises(ValueError, match="group_size"):
            model().price("barrier", max_bytes=0, total_bytes=0, scope="node")

    def test_unknown_scope(self):
        with pytest.raises(ValueError, match="scope"):
            model().price("barrier", max_bytes=0, total_bytes=0, scope="rack")


class TestCommStats:
    def test_record_accumulates(self):
        from repro.bsp.cost_model import CommStats

        stats = CommStats()
        cost = model().price("bcast", max_bytes=80, total_bytes=80)
        stats.record("bcast", cost)
        stats.record("bcast", cost)
        assert stats.collectives == 2
        assert stats.by_op == {"bcast": 2}
        assert stats.bytes == 2 * cost.nbytes


class TestEndpoints:
    def test_endpoints_with_and_without_combining(self):
        layout = NodeLayout(64, 16)
        cm = CostModel(MIRA_LIKE, 64, layout)
        assert cm.endpoints(True) == 4
        assert cm.endpoints(False) == 64

    def test_endpoints_without_layout(self):
        cm = CostModel(LAPTOP, 64, None)
        assert cm.endpoints(True) == 64


class TestMachinePresets:
    def test_presets_valid(self):
        for machine in (MIRA_LIKE, GENERIC_CLUSTER, LAPTOP):
            assert machine.alpha >= 0
            assert machine.nodes_for(100) >= 1

    def test_with_override(self):
        faster = MIRA_LIKE.override(alpha=1e-9)
        assert faster.alpha == 1e-9
        assert faster.beta == MIRA_LIKE.beta

    def test_invalid_machine_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            MachineSpec(name="generic", alpha=-1.0)
        with pytest.raises(ConfigError, match="cores_per_node"):
            MachineSpec(name="generic", cores_per_node=0)

    def test_conversions(self):
        assert LAPTOP.compare_seconds(10) == pytest.approx(10 * LAPTOP.gamma_compare)
        assert LAPTOP.copy_seconds(100) == pytest.approx(100 * LAPTOP.gamma_byte)
        assert LAPTOP.transfer_seconds(100, 2.0) == pytest.approx(
            200 * LAPTOP.beta
        )


class TestResolvedFallbacks:
    """The "0 means inherit" rules live in one place: MachineSpec.resolved."""

    def test_zeros_resolve_to_source_fields(self):
        m = MachineSpec(
            name="generic", gamma_compare=3e-9, gamma_key_compare=0.0,
            alpha=5e-6, node_alpha=0.0,
        )
        r = m.resolved()
        assert r.gamma_key_compare == m.gamma_compare
        assert r.node_alpha == m.alpha

    def test_explicit_values_pass_through(self):
        m = MachineSpec(
            name="generic", gamma_key_compare=7e-10, node_alpha=3e-7
        )
        assert m.resolved() is m  # nothing to resolve: same object

    def test_resolved_is_idempotent_and_cached(self):
        m = MachineSpec(name="generic", gamma_key_compare=0.0)
        r = m.resolved()
        assert r.resolved() is r
        assert m.resolved() is r

    def test_zeroed_spec_prices_identically_to_explicit(self):
        """Regression: derived-field zeros must price like spelled-out values.

        Before centralization each use site re-implemented its own
        fallback (or forgot to): node-scoped collectives priced
        node_alpha=0 as literally free latency while key comparisons
        inherited gamma_compare.
        """
        zeroed = MachineSpec(
            name="generic", alpha=4e-6, gamma_compare=2e-9,
            gamma_key_compare=0.0, node_alpha=0.0,
        )
        explicit = zeroed.override(gamma_key_compare=2e-9, node_alpha=4e-6)
        layout = NodeLayout(64, 16)
        ops = [
            ("bcast", dict(max_bytes=4096, total_bytes=4096)),
            ("alltoallv", dict(max_bytes=8192, total_bytes=8192 * 64)),
            ("reduce", dict(max_bytes=1024, total_bytes=1024)),
            ("gather", dict(max_bytes=512, total_bytes=512 * 64,
                            scope="node", group_size=16)),
            ("alltoallv", dict(max_bytes=2048, total_bytes=2048 * 16,
                              scope="node", group_size=16)),
            ("barrier", dict(max_bytes=0, total_bytes=0,
                             scope="node", group_size=16)),
        ]
        for op, kwargs in ops:
            a = CostModel(zeroed, 64, layout).price(op, **kwargs)
            b = CostModel(explicit, 64, layout).price(op, **kwargs)
            assert a == b, op
        assert zeroed.key_compare_seconds(1000) == pytest.approx(
            explicit.key_compare_seconds(1000)
        )

    def test_cost_model_keeps_the_unresolved_machine_visible(self):
        m = MachineSpec(name="generic", gamma_key_compare=0.0)
        cm = CostModel(m, 8)
        assert cm.machine is m
