"""Seeded oracle grid: every algorithm agrees with ``np.sort`` on every backend.

Each cell sorts one seeded workload and checks the concatenated output
against an ``np.sort`` of the input; when the cell carries payload
columns, the ``(key, payload)`` rows must come out as a permutation of the
rows that went in, so every payload row followed its key.  The grid is
every registered algorithm x four workloads x p in {1, 2, 7, 16} on the
simulated and thread backends, plus every algorithm x workload at p=7 on
the process backend.

Each cell gets the knobs its spec documents for that input: duplicate
tagging for the algorithms that offer it, and best-effort splitting for
the fixed-round HSS variants, whose balance holds only w.h.p.  A cell an
algorithm documents it cannot serve asserts the documented error instead
of being skipped:

* bitonic sort and its parallel-sample-sort user need a power-of-two
  ``p`` (``ConfigError``);
* a balanced algorithm that does not tolerate duplicates makes no balance
  promise on duplicate-heavy input: the cell raises ``VerificationError``
  or returns correct output, and when one key alone outweighs a rank's
  budget it must raise (untagged splitters cannot split equal keys).
"""

import numpy as np
import pytest

from repro.algorithms import REGISTRY
from repro.errors import ConfigError, VerificationError
from repro.experiments import Scenario
from repro.metrics.verify import check_load_balance

N_PER = 100
EPS = 0.05
PROCS = (1, 2, 7, 16)
#: Workload -> payload schema for payload-capable algorithms.
WORKLOADS = {
    "uniform": "",
    "constant": "",
    "staircase-duplicates": "",
    "changa-dwarf": "mass:f8,id:u4",
}
DUPLICATE_HEAVY = ("constant", "staircase-duplicates")
POWER_OF_TWO_ONLY = ("bitonic", "sample-regular-parallel")
FIXED_ROUNDS = ("hss-1round", "hss-2round")


def _knobs(algorithm: str) -> dict:
    spec = REGISTRY[algorithm]
    knobs = {}
    if "tag_duplicates" in spec.config_keys():
        knobs["tag_duplicates"] = True
    if algorithm in FIXED_ROUNDS:
        knobs["strict"] = False
    return knobs


def _cell(algorithm: str, workload: str, p: int, backend: str) -> Scenario:
    spec = REGISTRY[algorithm]
    return Scenario(
        algorithm=algorithm,
        workload=workload,
        procs=p,
        keys_per_rank=N_PER,
        eps=EPS,
        seed=3,
        layout="node" if spec.needs_multicore else "flat",
        backend=backend,
        payloads=WORKLOADS[workload] if spec.supports_payloads else "",
    )


def _rows(keys, payloads) -> np.ndarray:
    """Sorted records, one structured row each: the key, then its fields."""
    keys = np.concatenate(keys)
    payload = np.concatenate(payloads)
    rows = np.empty(
        len(keys),
        dtype=[("key", keys.dtype)]
        + [(name, payload.dtype[name]) for name in payload.dtype.names],
    )
    rows["key"] = keys
    for name in payload.dtype.names:
        rows[name] = payload[name]
    return np.sort(rows)


def _check_cell(algorithm: str, workload: str, p: int, backend: str) -> None:
    spec = REGISTRY[algorithm]
    cell = _cell(algorithm, workload, p, backend)
    knobs = _knobs(algorithm)
    workers = None if backend == "simulated" else 2

    if algorithm in POWER_OF_TWO_ONLY and p & (p - 1):
        with pytest.raises(ConfigError, match="power of two|power-of-two"):
            cell.execute(knobs=knobs, workers=workers)
        return

    dataset = cell.build_dataset()
    inputs = np.concatenate(dataset.shards)
    no_promise = (
        spec.balanced
        and not spec.duplicate_tolerant
        and workload in DUPLICATE_HEAVY
    )
    # One key heavier than a rank's whole budget cannot be split by
    # untagged splitters, so a balanced algorithm must report it.
    must_fail = (
        no_promise
        and np.unique(inputs, return_counts=True)[1].max()
        > (1 + EPS) * N_PER
    )
    try:
        run, _ = cell.execute(dataset=dataset, knobs=knobs, workers=workers)
    except VerificationError:
        assert no_promise, f"{algorithm} on {workload} must not fail"
        return

    # The np.sort oracle: same keys, globally ascending across ranks.
    np.testing.assert_array_equal(np.concatenate(run.shards), np.sort(inputs))
    if dataset.has_payloads:
        np.testing.assert_array_equal(
            _rows(run.shards, run.payloads),
            _rows(dataset.shards, dataset.payloads),
        )
    if must_fail:
        config = {"eps": EPS, "seed": 3, **knobs}
        budget = spec.verify_eps(
            spec.build_config(
                **{k: v for k, v in config.items() if k in spec.config_keys()}
            )
        )
        with pytest.raises(VerificationError):
            check_load_balance(run.shards, budget, total_keys=len(inputs))


GRID = [
    (algorithm, workload, p)
    for algorithm in sorted(REGISTRY)
    for workload in WORKLOADS
    for p in PROCS
]
IDS = [f"{a}-{w}-p{p}" for a, w, p in GRID]


@pytest.mark.parametrize("algorithm,workload,p", GRID, ids=IDS)
@pytest.mark.parametrize("backend", ["simulated", "thread"])
def test_matches_np_sort(algorithm, workload, p, backend):
    _check_cell(algorithm, workload, p, backend)


@pytest.mark.parametrize(
    "algorithm,workload",
    [(a, w) for a in sorted(REGISTRY) for w in WORKLOADS],
    ids=[f"{a}-{w}" for a in sorted(REGISTRY) for w in WORKLOADS],
)
def test_process_backend_matches_np_sort(algorithm, workload):
    _check_cell(algorithm, workload, 7, "process")
