#!/usr/bin/env python
"""Quickstart: sort a distributed dataset with Histogram Sort with Sampling.

Sorts one million uniform 64-bit keys spread across 16 simulated
processors with the one-call façade ``repro.sort(...)`` at a 5%
load-imbalance budget, and prints what the algorithm did: histogramming
rounds, sample sizes, interval shrinkage, the modeled phase breakdown and
the achieved balance.  (``repro.sort`` wraps the layered
Dataset → Sorter → SortRun API — drop down to it when you need registries
or pre-built configs.)

Run:  python examples/quickstart.py
"""

import repro
from repro.algorithms import Dataset
from repro.metrics import verify_sorted_output

P = 16               # simulated processors
KEYS_PER_PROC = 62_500  # 1M keys total
EPS = 0.05           # load-imbalance budget: max load <= (1+eps) * N/p


def main() -> None:
    # A Dataset owns the distributed input: one shard per simulated rank,
    # validated once (any workload 'repro workloads' lists, by name,
    # or Dataset.from_arrays for your own arrays).
    dataset = Dataset.from_workload(
        "uniform", p=P, n_per=KEYS_PER_PROC, seed=2019
    )

    # repro.sort resolves "hss" through the algorithm registry and builds
    # the §6.1.2 configuration: expected 5p sample keys per histogramming
    # round, iterate until every splitter is inside its tolerance window.
    # (A flat array plus p= works too: repro.sort(keys, p=16, eps=0.05).)
    run = repro.sort(dataset, algorithm="hss", eps=EPS, seed=1, oversample=5.0)

    # The output is the same multiset, globally sorted, within the budget —
    # the Sorter already verified this (verify=True); do it again
    # explicitly to show the API.
    verify_sorted_output(dataset.shards, run.shards, EPS)

    stats = run.splitter_stats
    print(f"sorted {P * KEYS_PER_PROC:,} keys on {P} simulated processors")
    print(f"achieved imbalance : {run.imbalance:.4f}  (budget {1 + EPS})")
    print(f"histogramming rounds: {stats.num_rounds}")
    print(f"total sample        : {stats.total_sample} keys "
          f"({stats.total_sample / (P * KEYS_PER_PROC):.2e} of the input)")
    print()
    print("per-round view (intervals shrink, Fig 3.1 style):")
    print(f"{'round':>5} {'prob':>10} {'sample':>7} {'G_j before':>12} "
          f"{'open':>5} {'max width':>10}")
    for r in stats.rounds:
        print(
            f"{r.round_index:>5} {r.probability:>10.2e} {r.sample_size:>7} "
            f"{r.candidate_mass_before:>12,} {r.open_intervals_after:>5} "
            f"{r.max_interval_width_after:>10.0f}"
        )
    print()
    print("modeled phase breakdown on the simulated machine:")
    print(run.breakdown().table())
    print()
    print(f"network messages: {run.engine_result.stats.messages:,}, "
          f"bytes: {run.engine_result.stats.bytes:,}")


if __name__ == "__main__":
    main()
