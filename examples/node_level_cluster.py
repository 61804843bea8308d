#!/usr/bin/env python
"""Two-level node-partitioned sort on a simulated multicore cluster (§6.1).

Builds a Mira-like machine (16 cores per node, 5-D torus), sorts with the
shared-memory-optimized HSS — node-level splitters, per-node message
combining, within-node regular-sampling sort — and contrasts it against
flat core-level HSS on the same input: fewer splitters, a much smaller
histogram, and ~cores²-fold fewer network messages.

Run:  python examples/node_level_cluster.py
"""

import repro
from repro.algorithms import Dataset
from repro.machines import get_machine

P = 64               # simulated cores
CORES_PER_NODE = 16  # => 4 nodes
KEYS_PER_CORE = 10_000
EPS_NODE = 0.02      # across nodes (paper's setting)
EPS_WITHIN = 0.05    # within a node


def main() -> None:
    dataset = Dataset.from_workload(
        "uniform", p=P, n_per=KEYS_PER_CORE, seed=42
    )
    machine = get_machine(
        "mira-like-bgq", overrides={"cores_per_node": CORES_PER_NODE}
    )

    # --- two-level: node splitters + shared-memory within-node sort ------
    # The Sorter verifies against the combined (1+eps)(1+within)-1 bound
    # declared by the hss-node spec.
    node_run = repro.sort(
        dataset,
        algorithm="hss-node",
        machine=machine,
        eps=EPS_NODE,
        within_node_eps=EPS_WITHIN,
        seed=9,
    )
    node_stats = node_run.stats

    # --- flat core-level HSS for contrast --------------------------------
    flat_run = repro.sort(
        dataset, algorithm="hss", machine=machine, eps=EPS_NODE, seed=9
    )
    flat_stats = flat_run.stats

    nodes = P // CORES_PER_NODE
    print(f"machine: {P} cores = {nodes} nodes x {CORES_PER_NODE} cores, "
          f"{machine.network.describe()}")
    print(f"input  : {P * KEYS_PER_CORE:,} keys\n")
    header = f"{'':28s} {'node-level':>12s} {'core-level':>12s}"
    print(header)
    print("-" * len(header))
    print(f"{'splitters determined':28s} {node_stats.nparts - 1:>12} "
          f"{flat_stats.nparts - 1:>12}")
    print(f"{'histogramming rounds':28s} {node_stats.num_rounds:>12} "
          f"{flat_stats.num_rounds:>12}")
    print(f"{'total sample (keys)':28s} {node_stats.total_sample:>12} "
          f"{flat_stats.total_sample:>12}")
    print(f"{'network messages':28s} "
          f"{node_run.engine_result.stats.messages:>12,} "
          f"{flat_run.engine_result.stats.messages:>12,}")
    print(f"{'modeled makespan (ms)':28s} "
          f"{node_run.makespan * 1e3:>12.3f} {flat_run.makespan * 1e3:>12.3f}")
    print(f"{'imbalance':28s} {node_run.imbalance:>12.4f} "
          f"{flat_run.imbalance:>12.4f}")

    print("\nnode-level phase breakdown:")
    print(node_run.breakdown().table())


if __name__ == "__main__":
    main()
