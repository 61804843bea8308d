"""Tests for the two-level node-partitioned sort (§6.1)."""

import pytest

from repro.bsp import BSPEngine
from repro.machines import get_machine
from repro.core.config import HSSConfig
from repro.core.node_sort import (
    combined_eps,
    hss_node_sort_program,
)
from repro.errors import BSPError
from repro.metrics import verify_sorted_output

LAPTOP = get_machine("laptop")


def run_node_sort(inputs, cores_per_node=4, eps=0.05, within=0.05, seed=1):
    p = len(inputs)
    engine = BSPEngine(p, machine=LAPTOP.override(cores_per_node=cores_per_node))
    cfg = HSSConfig(
        eps=eps, within_node_eps=within, node_level=True, seed=seed
    )
    res = engine.run(hss_node_sort_program, rank_args=[(x,) for x in inputs], cfg=cfg)
    return res, [r[0].keys for r in res.returns]


class TestNodeSortCorrectness:
    def test_sorted_and_balanced(self, rng):
        inputs = [rng.integers(0, 10**9, 1000) for _ in range(16)]
        res, outs = run_node_sort(inputs)
        verify_sorted_output(inputs, outs, combined_eps(0.05, 0.05))

    def test_ragged_last_node(self, rng):
        inputs = [rng.integers(0, 10**9, 800) for _ in range(10)]
        res, outs = run_node_sort(inputs, cores_per_node=4)
        verify_sorted_output(inputs, outs, combined_eps(0.05, 0.05))

    def test_single_node(self, rng):
        inputs = [rng.integers(0, 10**9, 500) for _ in range(4)]
        res, outs = run_node_sort(inputs, cores_per_node=4)
        verify_sorted_output(inputs, outs)

    def test_one_core_per_node(self, rng):
        inputs = [rng.integers(0, 10**9, 500) for _ in range(4)]
        p = len(inputs)
        from repro.bsp.node import NodeLayout

        engine = BSPEngine(
            p,
            machine=LAPTOP.override(cores_per_node=1),
            node_layout=NodeLayout(p, 1),
        )
        cfg = HSSConfig(eps=0.05, node_level=True, seed=1)
        res = engine.run(
            hss_node_sort_program, rank_args=[(x,) for x in inputs], cfg=cfg
        )
        outs = [r[0].keys for r in res.returns]
        verify_sorted_output(inputs, outs, combined_eps(0.05, 0.05))

    def test_requires_layout(self, rng):
        inputs = [rng.integers(0, 100, 50) for _ in range(2)]
        engine = BSPEngine(2, machine=LAPTOP.override(cores_per_node=1))
        with pytest.raises(BSPError, match="NodeLayout"):
            engine.run(
                hss_node_sort_program,
                rank_args=[(x,) for x in inputs],
                cfg=HSSConfig(node_level=True),
            )


class TestDuplicateHeavyNodes:
    """Constant keys: a whole node receives no keys from the node split."""

    CELL = ["sort", "--algorithm", "hss-node", "--workload", "constant",
            "-p", "16", "-n", "97"]

    def test_cli_cell_fails_verification_like_hss(self, capsys):
        from repro.cli import main

        # On laptop (2 nodes x 8 cores) node 0 gets nothing; strict
        # splitting then reports the missed tolerance, exactly as hss
        # does on this input, never a numpy error: exit 1, one line.
        for algorithm in ("hss-node", "hss"):
            argv = [*self.CELL]
            argv[2] = algorithm
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("verification failed: ")
            assert "max rank error" in err and len(err.splitlines()) == 1

    def test_best_effort_leaves_the_empty_node_empty(self):
        from repro.experiments import Scenario

        cell = Scenario(
            algorithm="hss-node", workload="constant", procs=16,
            keys_per_rank=97, layout="node",
        )
        dataset = cell.build_dataset()
        run, _ = cell.execute(dataset=dataset, knobs={"strict": False})
        verify_sorted_output(dataset.shards, run.shards)
        assert [len(s) for s in run.shards[:8]] == [0] * 8

    def test_tagging_balances_equal_keys_within_nodes(self):
        from repro.experiments import Scenario

        cell = Scenario(
            algorithm="hss-node", workload="constant", procs=16,
            keys_per_rank=1000, layout="node",
        )
        dataset = cell.build_dataset()
        run, _ = cell.execute(dataset=dataset, knobs={"tag_duplicates": True})
        verify_sorted_output(
            dataset.shards, run.shards, combined_eps(0.05, 0.05)
        )


class TestNodeSortBenefits:
    def test_splitter_count_scales_with_nodes(self, rng):
        """Node-level partitioning determines n−1, not p−1, splitters."""
        inputs = [rng.integers(0, 10**9, 1000) for _ in range(16)]
        res, _ = run_node_sort(inputs, cores_per_node=4)
        stats = res.returns[0][1]
        assert stats.nparts == 4  # 16 cores / 4 per node

    def test_fewer_network_messages_than_flat(self, rng):
        from repro.core.hss import hss_sort_program

        inputs = [rng.integers(0, 10**9, 1000) for _ in range(16)]
        machine = LAPTOP.override(cores_per_node=4)
        res_node, _ = run_node_sort(inputs, cores_per_node=4)
        engine = BSPEngine(16, machine=machine)
        res_flat = engine.run(
            hss_sort_program,
            rank_args=[(x, None) for x in inputs],
            cfg=HSSConfig(eps=0.05, seed=1),
        )
        assert res_node.stats.messages < res_flat.stats.messages

    def test_within_node_phase_has_no_network_bytes(self, rng):
        inputs = [rng.integers(0, 10**9, 800) for _ in range(8)]
        res, _ = run_node_sort(inputs, cores_per_node=4)
        within_records = [
            r for r in res.trace.records if r.phase == "within-node sort"
        ]
        assert within_records, "within-node phase missing from trace"
        assert all(r.nbytes == 0 for r in within_records)

    def test_four_phase_breakdown(self, rng):
        inputs = [rng.integers(0, 10**9, 800) for _ in range(8)]
        res, _ = run_node_sort(inputs)
        phases = res.breakdown().phases()
        for expected in (
            "local sort",
            "histogramming",
            "data exchange",
            "within-node sort",
        ):
            assert expected in phases


class TestCombinedEps:
    def test_formula(self):
        assert combined_eps(0.02, 0.05) == pytest.approx(1.02 * 1.05 - 1)

    def test_zero(self):
        assert combined_eps(0.0, 0.0) == pytest.approx(0.0)
